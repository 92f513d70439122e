import re
import string
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from efpc import text_core
from efpc.text_core import chunk_document, normalize_word, sentence_ranges, split_words


def test_split_words_basic():
    assert split_words("the cat  sat") == ("the", "cat", "sat")


def test_split_words_empty_and_whitespace():
    assert split_words("") == ()
    assert split_words("  \n\t ") == ()


@given(st.text())
def test_split_words_takes_every_maximal_non_whitespace_run(text):
    assert split_words(text) == tuple(re.findall(r"\S+", text))


@pytest.mark.parametrize(
    "word,expected",
    [
        ("Cat,", "cat"),
        ("''Hello!''", "hello"),
        ("--", ""),
        ("don't", "don't"),
        ("«word»", "word"),
        ("U.S.", "u.s"),
        ("34,", "34"),
    ],
)
def test_normalize_word(word, expected):
    assert normalize_word(word) == expected


def _normalize_word_loop(word):
    """The per-character category loop every word took before the ASCII path."""
    start, end = 0, len(word)
    while start < end and unicodedata.category(word[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(word[end - 1]).startswith("P"):
        end -= 1
    return word[start:end].lower()


# ASCII punctuation and symbols (string.punctuation holds both), letters,
# digits, non-ASCII punctuation, and non-ASCII capitals: İ lowers to two
# code points, ẞ to ß
_EDGE_WORDS = st.text(st.sampled_from(string.punctuation + "aZ09«»¿—、İẞ"), max_size=8)


@given(st.one_of(st.text(), _EDGE_WORDS))
def test_normalize_word_matches_the_category_loop(word):
    assert normalize_word(word) == _normalize_word_loop(word)


def test_ascii_punctuation_is_the_ascii_category_p_set():
    derived = {chr(c) for c in range(128) if unicodedata.category(chr(c)).startswith("P")}
    assert set(text_core._ASCII_PUNCT) == derived
    assert len(text_core._ASCII_PUNCT) == len(derived)


def test_ascii_words_normalize_without_category_lookups(monkeypatch):
    def category(char):
        raise AssertionError(f"category({char!r}) called")

    monkeypatch.setattr(text_core.unicodedata, "category", category)
    assert normalize_word("(Don't!)") == "don't"
    assert normalize_word("$5+x|") == "$5+x|"
    assert normalize_word("...") == ""
    with pytest.raises(AssertionError):
        normalize_word("«word»")


def test_sentence_ranges_trailing_run_counts():
    words = split_words("a b. c d! e")
    assert sentence_ranges(words) == [(0, 2), (2, 4), (4, 5)]


def test_sentence_ranges_single_terminated():
    words = split_words("one two three.")
    assert sentence_ranges(words) == [(0, 3)]


def test_chunk_short_document_is_one_chunk():
    chunks = chunk_document("w1 w2 w3", max_units=10)
    assert len(chunks) == 1
    assert chunks == ["w1 w2 w3"]


def test_chunk_greedy_sentence_packing():
    chunks = chunk_document("A b. C d. E f.", max_units=4)
    assert chunks == ["A b. C d.", "E f."]


def test_chunk_never_exceeds_max_units():
    text = " ".join(f"w{i}" + ("." if i % 5 == 4 else "") for i in range(100))
    for c in chunk_document(text, max_units=12):
        assert len(split_words(c)) <= 12


def test_chunk_oversized_sentence_is_force_split():
    text = " ".join(f"w{i}" for i in range(12)) + "."
    chunks = chunk_document(text, max_units=5)
    assert [len(split_words(c)) for c in chunks] == [5, 5, 2]
    # pieces of a split sentence don't end at a sentence boundary, except
    # the piece that happens to carry the final period
    assert [c.endswith(".") for c in chunks] == [False, False, True]


def test_chunk_spans_reconstruct_text():
    text = "The falcon glided.  The meadow\nwas still. A kettle whistled on the stove."
    chunks = chunk_document(text, max_units=6)
    assert chunks == ["The falcon glided.", "The meadow\nwas still.", "A kettle whistled on the stove."]


def test_chunk_concatenation_preserves_words():
    text = " ".join(f"w{i}" + ("." if i % 7 == 6 else "") for i in range(40))
    chunks = chunk_document(text, max_units=9)
    rebuilt = [w for c in chunks for w in split_words(c)]
    assert rebuilt == list(split_words(text))


def test_chunk_empty_document():
    assert chunk_document("", max_units=8) == []


def test_chunk_rejects_bad_max_units():
    with pytest.raises(ValueError):
        chunk_document("a b", max_units=0)


_WORD = st.text(st.characters(blacklist_categories=("Z", "Cc")), min_size=1, max_size=6)
_SENTENCES = st.lists(
    st.tuples(_WORD, st.sampled_from(["", ".", "!", "?"]), st.sampled_from([" ", "  ", "\n", "\t ", "\u3000"])),
    max_size=40,
).map(lambda parts: "".join(w + end + gap for w, end, gap in parts))


_DOCUMENTS = st.one_of(st.text(), _SENTENCES)


@given(_DOCUMENTS, st.integers(1, 12))
def test_chunks_are_disjoint_in_order_substrings_of_at_most_max_units_words(text, max_units):
    pos = 0
    for c in chunk_document(text, max_units):
        start = text.index(c, pos)
        # a chunk starts on a word, so only whitespace lies between chunks
        assert text[pos:start].strip() == ""
        assert c == c.strip() and 1 <= len(split_words(c)) <= max_units
        pos = start + len(c)
    assert text[pos:].strip() == ""


@given(_DOCUMENTS, st.integers(1, 12))
def test_chunk_words_concatenated_are_the_document_words(text, max_units):
    chunks = chunk_document(text, max_units)
    assert tuple(w for c in chunks for w in split_words(c)) == split_words(text)
