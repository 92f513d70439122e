"""Turn (original, compressed) text pairs into per-word keep labels.

The compressed text is assumed to be an in-order subset of the original's
words, which holds by construction for the mock provider and mostly holds
for instruction-following LLMs. Alignment walks both word lists with a
single forward cursor and matches on the normalized form, so casing and
surrounding punctuation differences do not break a match. Compressed
words that never find a partner are simply dropped; ``match_rate``
reports how many did.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from ._util import read_jsonl, round_half_up, write_jsonl
from .distill import DistilledDataset
from .errors import LengthMismatch
from .text_core import normalize_word, split_words

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AlignmentResult:
    labels: tuple[int, ...]
    matched: int
    total_compressed: int

    @property
    def match_rate(self) -> float:
        if self.total_compressed == 0:
            return 1.0
        return self.matched / self.total_compressed


@dataclass(frozen=True)
class LabeledExample:
    """Words of the (optional) instruction plus original text, with labels.

    ``boundary_m`` counts instruction words; ``words[:boundary_m]`` is the
    instruction, the rest is the original text. Labels are 0 or 1 and cover
    every word: instruction words always carry 0 since they are never kept
    as output.
    """

    words: tuple[str, ...]
    labels: tuple[int, ...]
    boundary_m: int

    def __post_init__(self):
        if len(self.words) != len(self.labels):
            raise LengthMismatch(
                f"{len(self.words)} words but {len(self.labels)} labels"
            )
        if not 0 <= self.boundary_m <= len(self.words):
            raise LengthMismatch(f"boundary {self.boundary_m} outside example")
        if any(label not in (0, 1) for label in self.labels):
            raise LengthMismatch("labels must be 0 or 1")
        if any(self.labels[: self.boundary_m]):
            raise LengthMismatch("instruction words must carry label 0")


def label_pair(original_words: list[str], compressed_words: list[str]) -> AlignmentResult:
    """Greedy in-order alignment of compressed words onto original words.

    For each original word (left to right) the cursor checks the next
    unconsumed compressed word; on a normalized match the original word is
    labeled 1 and the cursor advances. Each compressed word is consumed at
    most once.
    """
    labels = [0] * len(original_words)
    cursor = 0
    matched = 0
    for i, word in enumerate(original_words):
        if cursor >= len(compressed_words):
            break
        if normalize_word(word) == normalize_word(compressed_words[cursor]):
            labels[i] = 1
            cursor += 1
            matched += 1
    return AlignmentResult(
        labels=tuple(labels),
        matched=matched,
        total_compressed=len(compressed_words),
    )


def build_example(instruction: str, original: str, compressed: str) -> tuple[LabeledExample, AlignmentResult]:
    """Label one distilled pair, prefixing instruction words with label 0."""
    instr_words = split_words(instruction).words
    orig_words = split_words(original).words
    comp_words = split_words(compressed).words
    result = label_pair(list(orig_words), list(comp_words))
    example = LabeledExample(
        words=instr_words + orig_words,
        labels=(0,) * len(instr_words) + result.labels,
        boundary_m=len(instr_words),
    )
    return example, result


def label_distilled_pairs(
    dataset: DistilledDataset,
    *,
    min_match_rate: float = 0.0,
    include_instruction: bool = True,
) -> list[LabeledExample]:
    """Label every pair; drop those aligning worse than ``min_match_rate``.

    With ``include_instruction`` false the instruction is ignored and every
    example comes out with ``boundary_m == 0``, which is how task-agnostic
    training data is produced from task-aware collection runs.
    """
    examples = []
    dropped = 0
    for pair in dataset.pairs:
        instruction = pair.instruction if include_instruction else ""
        example, result = build_example(instruction, pair.chunk_text, pair.compressed_text)
        if result.match_rate < min_match_rate:
            dropped += 1
            continue
        examples.append(example)
    if dropped:
        logger.info("dropped %d pairs below match rate %.2f", dropped, min_match_rate)
    return examples


def mix_datasets(
    aware: list[LabeledExample],
    agnostic: list[LabeledExample],
    alpha: float,
    total: int,
) -> list[LabeledExample]:
    """Interleave ``total`` examples, a fraction ``alpha`` from ``aware``.

    Takes round(alpha * total) examples from the aware pool (half-up) and
    the remainder from the agnostic pool, cycling each pool if it is
    shorter than its share. Order is aware block then agnostic block;
    shuffling is the trainer's job.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be within [0, 1]")
    if total < 0:
        raise ValueError("total must be non-negative")
    n_aware = round_half_up(alpha * total)
    n_agnostic = total - n_aware
    if n_aware > 0 and not aware:
        raise ValueError("aware pool is empty but alpha > 0")
    if n_agnostic > 0 and not agnostic:
        raise ValueError("agnostic pool is empty but alpha < 1")
    mixed = [aware[i % len(aware)] for i in range(n_aware)]
    mixed += [agnostic[i % len(agnostic)] for i in range(n_agnostic)]
    return mixed


def write_labeled_jsonl(examples: list[LabeledExample], path) -> None:
    """One JSON object per example, UTF-8 with LF line endings."""
    records = [
        {
            "instruction": " ".join(ex.words[: ex.boundary_m]),
            "original_words": list(ex.words[ex.boundary_m :]),
            "labels": list(ex.labels),
            "boundary_m": ex.boundary_m,
        }
        for ex in examples
    ]
    write_jsonl(path, records)


def read_labeled_jsonl(path) -> list[LabeledExample]:
    def build(rec):
        return LabeledExample(
            words=split_words(rec.get("instruction", "")).words + tuple(rec["original_words"]),
            labels=tuple(rec["labels"]),
            boundary_m=rec["boundary_m"],
        )

    return read_jsonl(
        path,
        build,
        required=("original_words", "labels", "boundary_m"),
        types={"instruction": "string", "original_words": "list of strings",
               "labels": "list of integers", "boundary_m": "integer"},
    )
