import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efpc.align import (
    LabeledExample,
    build_example,
    label_distilled_pairs,
    label_pair,
    read_labeled_jsonl,
    write_labeled_jsonl,
)
from efpc.distill import DistilledDataset, DistilledPair
from efpc.errors import LengthMismatch, RecordError
from efpc.text_core import normalize_word


def test_label_pair_simple_deletion():
    result = label_pair(["the", "cat", "sat", "down"], ["cat", "down"])
    assert result.labels == (0, 1, 0, 1)
    assert result.match_rate == 1.0


def test_label_pair_duplicates_follow_greedy_cursor():
    # original: a a b b a c a d   compressed: b b c d
    # the cursor skips both leading a's, takes both b's, then c, then d
    result = label_pair(list("aabbacad"), list("bbcd"))
    assert result.labels == (0, 0, 1, 1, 0, 1, 0, 1)
    assert result.match_rate == 1.0


def test_label_pair_duplicate_takes_first_occurrence():
    result = label_pair(["a", "a"], ["a"])
    assert result.labels == (1, 0)


def test_label_pair_repeated_kept_word():
    result = label_pair(["the", "cat", "the", "mat"], ["the", "mat"])
    assert result.labels == (1, 0, 0, 1)


def test_label_pair_normalizes_case_and_punctuation():
    result = label_pair(["The", "cat,", "sat."], ["the", "CAT"])
    assert result.labels == (1, 1, 0)
    assert result.match_rate == 1.0


def test_label_pair_unmatchable_word_lowers_match_rate():
    result = label_pair(["x", "y"], ["z"])
    assert result.labels == (0, 0)
    assert result.matched == 0
    assert result.match_rate == 0.0


def test_label_pair_out_of_order_compression():
    result = label_pair(["a", "b"], ["b", "a"])
    assert result.labels == (0, 1)
    assert result.match_rate == pytest.approx(0.5)


def test_label_pair_empty_compressed():
    result = label_pair(["a", "b"], [])
    assert result.labels == (0, 0)
    assert result.match_rate == 1.0  # nothing to match


# case and punctuation variants normalize alike, and "..." to the empty word
_WORDS = st.sampled_from(["cat", "Cat", "cat.", "dog", "(dog)", "the", "The", "...", "w1"])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_label_pair_random_deletions_recover_exactly(data):
    words = data.draw(st.lists(_WORDS | st.text(min_size=1, max_size=3), max_size=40))
    keep = [i for i, k in enumerate(data.draw(st.lists(st.booleans(), min_size=len(words),
                                                       max_size=len(words)))) if k]
    result = label_pair(words, [words[i] for i in keep])
    assert result.match_rate == 1.0
    labeled = [i for i, label in enumerate(result.labels) if label]
    assert [normalize_word(words[i]) for i in labeled] == [
        normalize_word(words[i]) for i in keep]
    if len({normalize_word(w) for w in words}) == len(words):
        assert labeled == keep


def _label_pair_per_comparison(original_words, compressed_words):
    """Labels and match count as computed before the compressed words were
    normalized once up front: the word at the cursor is normalized again
    for every original word it is compared with."""
    labels = [0] * len(original_words)
    cursor = 0
    for i, word in enumerate(original_words):
        if cursor >= len(compressed_words):
            break
        if normalize_word(word) == normalize_word(compressed_words[cursor]):
            labels[i] = 1
            cursor += 1
    return tuple(labels), cursor


# "..." and "«»" normalize to the empty word; "zebra" and "Éclair" never occur
# in the original draws, so a compressed word can stall the cursor for good
_COMPRESSED_ONLY = st.sampled_from(["zebra", "Éclair!", "«»"])


@settings(max_examples=200, deadline=None)
@given(st.lists(_WORDS | st.text(max_size=3), max_size=30),
       st.lists(_WORDS | _COMPRESSED_ONLY | st.text(max_size=3), max_size=30))
def test_label_pair_matches_the_per_comparison_reference(original, compressed):
    result = label_pair(original, compressed)
    assert (result.labels, result.matched) == _label_pair_per_comparison(original, compressed)
    assert result.total_compressed == len(compressed)


def test_build_example_prefixes_instruction_with_zero_labels():
    example, result = build_example("find cats", "the cat sat", "cat")
    assert example.words == ("find", "cats", "the", "cat", "sat")
    assert example.labels == (0, 0, 0, 1, 0)
    assert example.boundary_m == 2
    assert result.match_rate == 1.0


def test_build_example_no_instruction():
    example, _ = build_example("", "a b", "b")
    assert example.boundary_m == 0
    assert example.labels == (0, 1)


def _dataset():
    return DistilledDataset(
        pairs=[
            DistilledPair(
                chunk_text="the cat sat on the mat",
                compressed_text="cat sat mat",
                instruction="where did the cat sit?",
                ratio=2.0,
            ),
            DistilledPair(
                chunk_text="a b c",
                compressed_text="z z z",
                instruction="",
                ratio=1.0,
            ),
        ],
        failures=[],
    )


def test_label_distilled_pairs_keeps_instruction_by_default():
    examples = label_distilled_pairs(_dataset())
    assert len(examples) == 2
    assert examples[0].boundary_m == 5
    assert examples[0].words[:5] == ("where", "did", "the", "cat", "sit?")


def test_label_distilled_pairs_task_agnostic_strips_instruction():
    examples = label_distilled_pairs(_dataset(), include_instruction=False)
    assert all(ex.boundary_m == 0 for ex in examples)


def test_label_distilled_pairs_min_match_rate_filters():
    examples = label_distilled_pairs(_dataset(), min_match_rate=0.5)
    assert len(examples) == 1  # the z z z pair matches nothing


@pytest.mark.parametrize("rate", [float("nan"), -0.1, 2.0, float("inf")])
def test_label_distilled_pairs_refuses_a_rate_outside_zero_to_one(rate):
    with pytest.raises(ValueError, match=r"min_match_rate must be within \[0, 1\]"):
        label_distilled_pairs(_dataset(), min_match_rate=rate)


def test_labeled_example_rejects_bad_labels_on_construction():
    LabeledExample(words=("a", "b"), labels=(0, 1), boundary_m=0)  # fine
    with pytest.raises(LengthMismatch):
        LabeledExample(words=("a",), labels=(2,), boundary_m=0)
    with pytest.raises(LengthMismatch):
        LabeledExample(words=("a", "b"), labels=(1, 0), boundary_m=1)


def test_labeled_example_validates_lengths_on_construction():
    with pytest.raises(LengthMismatch):
        LabeledExample(words=("a", "b"), labels=(1,), boundary_m=0)
    with pytest.raises(LengthMismatch):
        LabeledExample(words=("a",), labels=(1,), boundary_m=2)


def test_labeled_jsonl_round_trip(tmp_path):
    examples = label_distilled_pairs(_dataset())
    path = tmp_path / "labeled.jsonl"
    write_labeled_jsonl(examples, path)
    back = read_labeled_jsonl(path)
    assert back == examples


def test_labeled_jsonl_rejects_instruction_that_disagrees_with_boundary(tmp_path):
    path = tmp_path / "labeled.jsonl"
    path.write_text('{"instruction": "where is it", "original_words": ["x", "y"], '
                    '"labels": [0, 0, 0, 1, 0], "boundary_m": 2}\n')
    with pytest.raises(RecordError) as info:
        read_labeled_jsonl(path)
    assert str(info.value) == f"{path}:1: instruction has 3 words but boundary_m is 2"


@pytest.mark.parametrize("bad_word", ["new york", ""])
def test_write_labeled_jsonl_rejects_an_instruction_word_its_reader_would_split(tmp_path,
                                                                            bad_word):
    good = LabeledExample(words=("who", "x"), labels=(0, 1), boundary_m=1)
    bad = LabeledExample(words=(bad_word, "x", "y"), labels=(0, 0, 1), boundary_m=1)
    path = tmp_path / "labeled.jsonl"
    with pytest.raises(ValueError) as info:
        write_labeled_jsonl([good, bad], path)
    assert str(info.value) == f"example 1: instruction word {bad_word!r} is empty or holds whitespace"
    assert not path.exists()


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=30), st.text(max_size=60), st.text(max_size=60))
def test_labeled_jsonl_round_trips_every_built_example(instruction, original, compressed):
    example, _ = build_example(instruction, original, compressed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labeled.jsonl"
        write_labeled_jsonl([example], path)
        assert read_labeled_jsonl(path) == [example]
