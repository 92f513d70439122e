from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efpc.align import LabeledExample
from efpc.errors import EmptyDataset
from efpc.model import (
    PAD_ID,
    SEP_ID,
    UNK_ID,
    Model,
    ModelConfig,
    build_vocab,
    init_params,
    load_checkpoint,
    save_checkpoint,
    vocab_from_word_list,
    vocab_from_words,
)
from efpc.text_core import normalize_word


def test_reserved_ids_are_fixed():
    assert (PAD_ID, UNK_ID, SEP_ID) == (0, 1, 2)


def test_ids_assigned_by_frequency_then_alphabetically():
    vocab = vocab_from_words(["bat", "ant", "bat", "cow", "ant", "bat"])
    # bat appears 3x, ant 2x, cow 1x
    assert vocab.word_to_id == {"bat": 3, "ant": 4, "cow": 5}


def test_frequency_ties_break_lexicographically():
    vocab = vocab_from_words(["zeta", "echo", "zeta", "echo"])
    assert vocab.word_to_id == {"echo": 3, "zeta": 4}


def test_words_are_normalized_before_counting():
    vocab = vocab_from_words(["The", "the", "THE,", "cat"])
    assert vocab.word_to_id["the"] == 3
    assert vocab.size == 5  # 3 reserved + the + cat


def test_tokens_that_normalize_to_nothing_are_skipped():
    vocab = vocab_from_words(["...", "cat"])
    assert list(vocab.word_to_id) == ["cat"]


def _vocab_by_occurrence(words):
    """The table built by normalizing every occurrence, as before raw forms
    were counted first."""
    counts = Counter()
    for word in words:
        key = normalize_word(word)
        if key:
            counts[key] += 1
    ordered = sorted(counts, key=lambda w: (-counts[w], w))
    return {w: 3 + i for i, w in enumerate(ordered)}


# few letters and edge marks, so raw forms repeat, several raw forms share a
# normal form, and an empty core gives an all-punctuation word
_EDGES = st.text(st.sampled_from(".,!?\"'()«»¿—"), max_size=2)
_RAW_WORDS = st.builds(lambda pre, core, post: pre + core + post,
                       _EDGES, st.text(st.sampled_from("aAbé$İ"), max_size=2), _EDGES)


@given(st.lists(_RAW_WORDS, max_size=40))
def test_vocab_from_words_matches_normalizing_every_occurrence(words):
    expected = _vocab_by_occurrence(words)
    assert list(vocab_from_words(words).word_to_id.items()) == list(expected.items())


def test_encode_word_unknown_and_empty():
    vocab = vocab_from_words(["cat"])
    assert vocab.encode_word("cat") == 3
    assert vocab.encode_word("Cat,") == 3
    assert vocab.encode_word("dog") == UNK_ID
    assert vocab.encode_word("!!!") == UNK_ID


def test_encode_words_order_preserving():
    vocab = vocab_from_words(["a", "b", "a"])
    assert vocab.encode_words(["b", "a", "zz"]) == [4, 3, UNK_ID]


def test_words_property_round_trips_through_word_list():
    vocab = vocab_from_words(["red", "blue", "red", "green"])
    rebuilt = vocab_from_word_list(vocab.words)
    assert rebuilt == vocab


def test_build_vocab_covers_instruction_words():
    ex = LabeledExample(
        words=("find", "it", "the", "cat"), labels=(0, 0, 0, 1), boundary_m=2
    )
    vocab = build_vocab([ex])
    assert vocab.encode_word("find") != UNK_ID
    assert vocab.encode_word("cat") != UNK_ID


def test_build_vocab_rejects_empty_dataset():
    with pytest.raises(EmptyDataset):
        build_vocab([])


# any text: case, edge punctuation, non-ASCII (lone surrogates cannot be saved as UTF-8)
_WORDS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


def _variants(word):
    return [word, word.upper(), word.title(), f"({word},", f"«{word}»!", f"{word}."]


@settings(max_examples=100, deadline=None)
@given(st.lists(_WORDS, max_size=12), st.lists(_WORDS, max_size=12))
def test_encode_words_matches_encode_word(tmp_path_factory, corpus, others):
    vocab = vocab_from_words(corpus)
    config = ModelConfig(vocab_size=vocab.size, embed_dim=2, num_layers=0, num_heads=1,
                         ffn_dim=1, max_seq_len=8)
    path = tmp_path_factory.mktemp("vocab") / "model.ckpt"
    save_checkpoint(Model(config=config, vocab=vocab, params=init_params(config)), path)
    loaded = load_checkpoint(path).vocab
    assert loaded == vocab
    words = [v for w in corpus + others + vocab.words for v in _variants(w)]
    for table in (vocab, loaded):
        assert table.encode_words(words) == [table.encode_word(w) for w in words]
