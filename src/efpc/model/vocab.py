"""Word-level vocabulary with reserved padding/unknown/separator ids.

One id per normalized word; no subword pieces. Ids 0-2 are reserved and
never reassigned. Regular words get ids from 3 upward in order of
descending frequency, ties broken lexicographically, so the same corpus
always produces the same table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..align import LabeledExample
from ..errors import EmptyDataset
from ..text_core import normalize_word

PAD_ID = 0
UNK_ID = 1
SEP_ID = 2
_NUM_RESERVED = 3


@dataclass(frozen=True)
class Vocab:
    """Injective map from normalized words to ids ≥ 3.

    Every key is nonempty and its own normal form (``normalize_word(w) ==
    w``), which ``encode_words`` relies on.
    """

    word_to_id: dict[str, int]

    @property
    def size(self) -> int:
        return _NUM_RESERVED + len(self.word_to_id)

    @property
    def words(self) -> list[str]:
        """Words ordered by id, for serialization."""
        return sorted(self.word_to_id, key=self.word_to_id.__getitem__)

    def encode_word(self, word: str) -> int:
        key = normalize_word(word)
        if not key:
            return UNK_ID
        return self.word_to_id.get(key, UNK_ID)

    def encode_words(self, words: Sequence[str]) -> list[int]:
        """``encode_word`` of each word, probing the table with the raw word
        first: a key is its own normal form, so a hit is the id
        ``encode_word`` finds, and only a miss (``None``; ids are ≥ 3, so
        never falsy) pays for normalizing."""
        get, encode = self.word_to_id.get, self.encode_word
        return [get(w) or encode(w) for w in words]


def vocab_from_word_list(words: Sequence[str]) -> Vocab:
    """Rebuild a vocabulary from its serialized id-ordered word list.

    Raises ValueError naming the index of the first word that is empty or
    not its own normal form, or that repeats an earlier word, with the
    earlier word's index: a repeat would leave an id past the table's end."""
    word_to_id: dict[str, int] = {}
    for i, w in enumerate(words):
        if not w or normalize_word(w) != w:
            raise ValueError(f"vocab word {i} ({w!r}) is not a normalized word")
        if w in word_to_id:
            first = word_to_id[w] - _NUM_RESERVED
            raise ValueError(f"vocab word {i} ({w!r}) repeats vocab word {first}")
        word_to_id[w] = _NUM_RESERVED + i
    return Vocab(word_to_id=word_to_id)


def vocab_from_words(words: Iterable[str]) -> Vocab:
    """Assign ids by (frequency desc, word asc) over normalized forms.

    Counts raw forms first and normalizes each distinct one once, adding
    its count to its normal form; a corpus repeats most of its words."""
    counts = Counter()
    for word, n in Counter(words).items():
        key = normalize_word(word)
        if key:
            counts[key] += n
    # words ascending, then a stable sort by count descending: the same
    # order as the key (-count, word), with no Python call per word
    ordered = sorted(sorted(counts), key=counts.__getitem__, reverse=True)
    return Vocab(word_to_id={w: _NUM_RESERVED + i for i, w in enumerate(ordered)})


def build_vocab(dataset: Sequence[LabeledExample]) -> Vocab:
    """Vocabulary over every word of every example, instructions included."""
    if not dataset:
        raise EmptyDataset("cannot build a vocabulary from no examples")
    return vocab_from_words(w for ex in dataset for w in ex.words)
