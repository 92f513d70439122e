"""Turn instruction and original words into id sequences the encoder accepts.

An instruction, when present, is followed by one SEP token; the boundary
index of the first original word is therefore M+1 (or 0 with no
instruction). Inputs longer than the model's sequence limit are cut into
non-overlapping windows of original words, each window led by the same
instruction and SEP ids, so label/probability positions always line up
with original words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import InstructionTooLong, LengthMismatch
from .vocab import SEP_ID, Vocab


@dataclass(frozen=True)
class TokenizedExample:
    """Encoder input ids with labels for the original-word positions."""

    token_ids: tuple[int, ...]
    labels: tuple[int, ...]
    boundary: int

    def __post_init__(self):
        if self.boundary + len(self.labels) != len(self.token_ids):
            raise LengthMismatch(
                f"boundary {self.boundary} + {len(self.labels)} labels "
                f"!= {len(self.token_ids)} tokens"
            )


def tokenize_words(
    vocab: Vocab,
    instruction_words: Sequence[str],
    original_words: Sequence[str],
    labels: Sequence[int],
) -> TokenizedExample:
    """Encode one window: [instruction ids, SEP] + original ids."""
    if len(original_words) != len(labels):
        raise LengthMismatch("one label per original word required")
    ids: list[int] = []
    if instruction_words:
        ids.extend(vocab.encode_words(instruction_words))
        ids.append(SEP_ID)
    boundary = len(ids)
    ids.extend(vocab.encode_words(original_words))
    return TokenizedExample(
        token_ids=tuple(ids), labels=tuple(labels), boundary=boundary
    )


def window_example(
    vocab: Vocab,
    instruction_words: Sequence[str],
    original_words: Sequence[str],
    labels: Sequence[int],
    max_seq_len: int,
) -> list[TokenizedExample]:
    """Split one input into windows that each fit max_seq_len.

    The input is encoded once; each window is the instruction prefix
    followed by the next slice of original ids, so concatenating the
    windows' label positions gives back the original words in order.
    Pass no instruction words for instruction-free windows.
    """
    whole = tokenize_words(vocab, instruction_words, original_words, labels)
    prefix = whole.token_ids[: whole.boundary]
    if len(prefix) >= max_seq_len:
        raise InstructionTooLong(
            f"{len(instruction_words)}-word instruction leaves no room in {max_seq_len}"
        )
    capacity = max_seq_len - len(prefix)
    originals = whole.token_ids[whole.boundary :]
    return [
        TokenizedExample(
            token_ids=prefix + originals[start : start + capacity],
            labels=whole.labels[start : start + capacity],
            boundary=whole.boundary,
        )
        for start in range(0, len(originals), capacity)
    ]
