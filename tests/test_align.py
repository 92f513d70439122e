import random

import pytest

from efpc.align import (
    LabeledExample,
    build_example,
    label_distilled_pairs,
    label_pair,
    mix_datasets,
    read_labeled_jsonl,
    write_labeled_jsonl,
)
from efpc.distill import DistilledDataset, DistilledPair
from efpc.errors import LengthMismatch


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


def test_label_pair_random_deletions_recover_exactly():
    rng = random.Random(42)
    for trial in range(50):
        n = rng.randint(1, 40)
        words = [f"w{i}x" for i in range(n)]  # all distinct once normalized
        rng.shuffle(words)
        keep = sorted(rng.sample(range(n), rng.randint(1, n)))
        compressed = [words[i] for i in keep]
        result = label_pair(words, compressed)
        assert result.match_rate == 1.0
        assert [i for i, l in enumerate(result.labels) if l] == keep


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


def _pools():
    aware = [
        LabeledExample(words=("q", "a"), labels=(0, 1), boundary_m=1)
        for _ in range(4)
    ]
    agnostic = [
        LabeledExample(words=("b",), labels=(1,), boundary_m=0) for _ in range(4)
    ]
    return aware, agnostic


def test_mix_datasets_half_and_half():
    aware, agnostic = _pools()
    mixed = mix_datasets(aware, agnostic, alpha=0.5, total=8)
    assert len(mixed) == 8
    assert sum(1 for ex in mixed if ex.boundary_m > 0) == 4


def test_mix_datasets_rounds_half_up():
    aware, agnostic = _pools()
    mixed = mix_datasets(aware, agnostic, alpha=0.5, total=3)
    assert sum(1 for ex in mixed if ex.boundary_m > 0) == 2  # 1.5 -> 2


def test_mix_datasets_cycles_short_pools():
    aware, agnostic = _pools()
    mixed = mix_datasets(aware, agnostic, alpha=1.0, total=10)
    assert len(mixed) == 10
    assert all(ex.boundary_m > 0 for ex in mixed)


def test_mix_datasets_validates():
    aware, agnostic = _pools()
    with pytest.raises(ValueError):
        mix_datasets(aware, agnostic, alpha=1.5, total=4)
    with pytest.raises(ValueError):
        mix_datasets(aware, agnostic, alpha=0.5, total=-1)
    with pytest.raises(ValueError):
        mix_datasets([], agnostic, alpha=0.5, total=4)
    with pytest.raises(ValueError):
        mix_datasets(aware, [], alpha=0.5, total=4)
    assert mix_datasets([], agnostic, alpha=0.0, total=2) == agnostic[:2]


def test_labeled_jsonl_round_trip(tmp_path):
    examples = label_distilled_pairs(_dataset())
    path = tmp_path / "labeled.jsonl"
    write_labeled_jsonl(examples, path)
    back = read_labeled_jsonl(path)
    assert back == examples
