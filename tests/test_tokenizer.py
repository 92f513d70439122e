import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efpc.errors import InstructionTooLong, LengthMismatch
from efpc.model import (
    SEP_ID,
    TokenizedExample,
    tokenize_words,
    vocab_from_words,
    window_example,
)


VOCAB = vocab_from_words(list("abcdefgh") + ["find", "stuff"])


@pytest.fixture()
def vocab():
    return VOCAB


def test_tokenize_with_instruction_inserts_sep(vocab):
    ex = tokenize_words(vocab, ["find", "stuff"], ["a", "b"], [1, 0])
    assert ex.token_ids[2] == SEP_ID
    assert ex.boundary == 3
    assert ex.labels == (1, 0)
    assert len(ex.token_ids) == 5


def test_tokenize_without_instruction_has_no_sep(vocab):
    ex = tokenize_words(vocab, [], ["a", "b"], [0, 1])
    assert ex.boundary == 0
    assert SEP_ID not in ex.token_ids


def test_tokenize_rejects_label_count_mismatch(vocab):
    with pytest.raises(LengthMismatch):
        tokenize_words(vocab, [], ["a", "b"], [1])


def test_tokenized_example_validates_boundary():
    with pytest.raises(LengthMismatch):
        TokenizedExample(token_ids=(3, 4, 5), labels=(1, 0), boundary=0)


def _example(n_original: int, boundary_m: int = 2):
    """(instruction words, original words, labels) for window_example."""
    instr = tuple("find stuff".split())[:boundary_m]
    originals = tuple("abcdefgh"[i % 8] for i in range(n_original))
    labels = tuple(i % 2 for i in range(n_original))
    return instr, originals, labels


def test_window_short_input_is_single_window(vocab):
    windows = window_example(vocab, *_example(4), max_seq_len=16)
    assert len(windows) == 1
    assert windows[0].boundary == 3


def test_window_long_input_repeats_instruction(vocab):
    # prefix takes 3 slots of 8, so capacity is 5 originals per window
    windows = window_example(vocab, *_example(12), max_seq_len=8)
    assert [len(w.labels) for w in windows] == [5, 5, 2]
    for w in windows:
        assert w.boundary == 3
        assert w.token_ids[2] == SEP_ID
        assert len(w.token_ids) <= 8
    # concatenated labels reconstruct the example's original labels
    flat = [l for w in windows for l in w.labels]
    assert flat == [i % 2 for i in range(12)]


def test_window_without_instruction_uses_full_capacity(vocab):
    windows = window_example(vocab, *_example(12, boundary_m=0), max_seq_len=8)
    assert [len(w.labels) for w in windows] == [8, 4]
    assert all(w.boundary == 0 for w in windows)


def test_window_instruction_filling_model_raises(vocab):
    with pytest.raises(InstructionTooLong):
        # 2 words + SEP = whole model
        window_example(vocab, *_example(3, boundary_m=2), max_seq_len=3)


def test_window_instruction_exactly_at_limit_raises(vocab):
    args = (("find", "stuff"), ("a",), (1,))
    with pytest.raises(InstructionTooLong):
        window_example(vocab, *args, max_seq_len=3)
    # one free slot is enough
    windows = window_example(vocab, *args, max_seq_len=4)
    assert len(windows) == 1


def test_window_encodes_each_word_once(vocab, monkeypatch):
    calls = []
    encode_words = type(vocab).encode_words
    monkeypatch.setattr(
        type(vocab), "encode_words", lambda self, ws: calls.append(len(ws)) or encode_words(self, ws)
    )
    windows = window_example(vocab, *_example(40), max_seq_len=8)
    assert len(windows) == 8
    assert calls == [2, 40]


def _reference_windows(vocab, instruction_words, original_words, labels, max_seq_len):
    """The per-window algorithm: tokenize_words on each slice of original
    words, the instruction encoded again for every window."""
    prefix_len = len(instruction_words) + 1 if instruction_words else 0
    if prefix_len >= max_seq_len:
        raise InstructionTooLong("no room")
    capacity = max_seq_len - prefix_len
    return [
        tokenize_words(
            vocab,
            instruction_words,
            original_words[start : start + capacity],
            labels[start : start + capacity],
        )
        for start in range(0, len(original_words), capacity)
    ]


# known words, their cased and punctuation-wrapped forms, words the
# vocabulary has never seen, and words that normalize to nothing
_WINDOW_WORDS = st.one_of(
    st.sampled_from(list("abcdefgh") + ["find", "stuff"]),
    st.sampled_from(["A", "(b)", "c,", "Find.", '"stuff"', "...", "-", "zebra", "Quux!"]),
    st.text(min_size=1, max_size=6).filter(lambda w: w.split() == [w]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_WINDOW_WORDS, max_size=10),
    st.lists(st.tuples(_WINDOW_WORDS, st.integers(0, 1)), max_size=40),
    st.data(),
)
def test_window_matches_per_window_reference(instruction, originals, data):
    words = tuple(w for w, _ in originals)
    labels = tuple(label for _, label in originals)
    prefix_len = len(instruction) + 1 if instruction else 0
    max_seq_len = data.draw(st.integers(1, prefix_len + len(words) + 3), label="max_seq_len")
    if prefix_len >= max_seq_len:
        with pytest.raises(InstructionTooLong):
            window_example(VOCAB, instruction, words, labels, max_seq_len)
        return
    got = window_example(VOCAB, instruction, words, labels, max_seq_len)
    assert got == _reference_windows(VOCAB, instruction, words, labels, max_seq_len)
    assert all(type(w.token_ids) is tuple for w in got)
