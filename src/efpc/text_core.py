"""Word segmentation and sentence-greedy chunking.

Every stage of the pipeline counts whitespace-delimited words, and a
text's words are the plain tuple :func:`split_words` returns. Using one
unit everywhere (budgets, labels, ratios) keeps the pipeline independent
of any particular subword tokenizer.
"""

from __future__ import annotations

import re
import unicodedata

_WORD_RE = re.compile(r"\S+")
_SENTENCE_END = (".", "!", "?")


def split_words(text: str) -> tuple[str, ...]:
    """Split text into maximal runs of non-whitespace characters.

    Punctuation stays attached to its word. Empty or all-whitespace text
    yields an empty tuple.
    """
    return tuple(text.split())


def sentence_ranges(words: tuple[str, ...] | list[str]) -> list[tuple[int, int]]:
    """[start, end) word-index ranges of sentences.

    A sentence ends at a word ending in '.', '!' or '?'; a trailing run
    without such a word forms a final unterminated sentence.
    """
    ranges: list[tuple[int, int]] = []
    start = 0
    for i, w in enumerate(words):
        if w.endswith(_SENTENCE_END):
            ranges.append((start, i + 1))
            start = i + 1
    if start < len(words):
        ranges.append((start, len(words)))
    return ranges


def chunk_document(text: str, max_units: int) -> list[str]:
    """Partition a document into chunks of at most ``max_units`` words.

    Whole sentences are packed greedily in order. A single sentence longer
    than ``max_units`` is force-split into consecutive ``max_units``-sized
    pieces, each emitted as its own chunk. A chunk is the source text from
    its first word's start to its last word's end, whitespace included.
    """
    if max_units < 1:
        raise ValueError("max_units must be >= 1")
    spans = [m.span() for m in _WORD_RE.finditer(text)]
    words = [text[start:end] for start, end in spans]

    ranges: list[tuple[int, int]] = []
    acc: tuple[int, int] | None = None
    for s, e in sentence_ranges(words):
        n = e - s
        if n > max_units:
            if acc is not None:
                ranges.append(acc)
                acc = None
            for piece in range(s, e, max_units):
                ranges.append((piece, min(piece + max_units, e)))
        elif acc is None:
            acc = (s, e)
        elif (acc[1] - acc[0]) + n <= max_units:
            acc = (acc[0], e)
        else:
            ranges.append(acc)
            acc = (s, e)
    if acc is not None:
        ranges.append(acc)
    return [text[spans[s][0] : spans[e - 1][1]] for s, e in ranges]


# The ASCII code points of Unicode category P*: ``!"#%&'()*,-./:;?@[\]_{}``.
# The ASCII symbols ``$+<=>^`|~`` are category S and stay attached.
_ASCII_PUNCT = "".join(c for c in map(chr, range(128)) if unicodedata.category(c).startswith("P"))


def normalize_word(word: str) -> str:
    """Lowercase and strip leading/trailing Unicode punctuation.

    Used only for matching and vocabulary lookup, never for output text.
    An all-punctuation word normalizes to the empty string. An ASCII word
    takes ``str.strip`` over the ASCII punctuation, which gives the same
    result as the per-character category loop other words take.
    """
    if word.isascii():
        return word.strip(_ASCII_PUNCT).lower()
    start, end = 0, len(word)
    while start < end and unicodedata.category(word[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(word[end - 1]).startswith("P"):
        end -= 1
    return word[start:end].lower()
