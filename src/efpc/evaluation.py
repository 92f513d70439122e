"""Scoring: overlap metrics, a downstream QA harness, and data sweeps.

All metrics tokenize the same way the rest of the package does — lowercase,
split on whitespace — and return values in [0, 1]. They are deliberately
plain reference implementations with hand-checkable arithmetic; fixtures in
the test suite pin their exact values.
"""

from __future__ import annotations

import logging
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

from ._util import round_half_up
from .align import LabeledExample
from .compressor import CompressionResult
from .distill import LlmProvider
from .errors import EmptyDataset, InsufficientData, TransportError
from .model import Model, TrainConfig, token_accuracy, train
from .text_core import normalize_word, split_words

logger = logging.getLogger(__name__)


def _tokens(text: str) -> list[str]:
    return text.lower().split()


# ---------------------------------------------------------------- metrics


def token_f1(predicted: str, gold: str) -> float:
    """Bag-of-words overlap F1 on lowercased whitespace tokens (ROUGE-1
    F1), except that two empty texts agree perfectly."""
    if not _tokens(predicted) and not _tokens(gold):
        return 1.0
    return rouge_n(predicted, gold, 1).f1


def token_f1_max(predicted: str, golds: Sequence[str]) -> float:
    """token_f1 against the most favorable gold answer."""
    if not golds:
        raise ValueError("at least one gold answer required")
    return max(token_f1(predicted, g) for g in golds)


@dataclass(frozen=True)
class OverlapScore:
    precision: float
    recall: float
    f1: float


def _prf(overlap: float, n_candidate: float, n_reference: float) -> OverlapScore:
    if n_candidate == 0 or n_reference == 0 or overlap == 0:
        return OverlapScore(0.0, 0.0, 0.0)
    p = overlap / n_candidate
    r = overlap / n_reference
    return OverlapScore(p, r, 2 * p * r / (p + r))


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: str, reference: str, n: int) -> OverlapScore:
    """n-gram multiset overlap precision/recall/F1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    cand = _ngrams(_tokens(candidate), n)
    ref = _ngrams(_tokens(reference), n)
    overlap = sum((cand & ref).values())
    return _prf(overlap, sum(cand.values()), sum(ref.values()))


def _lcs_length(a: list[str], b: list[str]) -> int:
    # single-row DP; O(len(a)·len(b)) time, O(len(b)) space
    row = [0] * (len(b) + 1)
    for x in a:
        prev_diag = 0
        for j, y in enumerate(b, start=1):
            prev_row = row[j]
            row[j] = prev_diag + 1 if x == y else max(row[j], row[j - 1])
            prev_diag = prev_row
    return row[len(b)]


def rouge_l(candidate: str, reference: str) -> OverlapScore:
    """Longest-common-subsequence precision/recall/F1 over word tokens.

    Two empty texts count as a perfect match, so f1 is 1 exactly when the
    token sequences are equal.
    """
    cand = _tokens(candidate)
    ref = _tokens(reference)
    if not cand and not ref:
        return OverlapScore(1.0, 1.0, 1.0)
    return _prf(_lcs_length(cand, ref), len(cand), len(ref))


def bleu(candidate: str, references: Sequence[str], max_n: int = 4) -> float:
    """Clipped n-gram precision BLEU with brevity penalty.

    Order cap is min(max_n, candidate length), so short candidates are
    scored on the orders they can populate. Zero counts at n ≥ 2 get
    add-one smoothing; a zero unigram overlap means a zero score. The
    brevity penalty uses the reference length closest to the candidate's
    (ties to the shorter).
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    if not references:
        raise ValueError("at least one reference required")
    cand = _tokens(candidate)
    if not cand:
        return 0.0
    refs = [_tokens(r) for r in references]

    log_sum = 0.0
    orders = min(max_n, len(cand))
    for n in range(1, orders + 1):
        cand_grams = _ngrams(cand, n)
        clipped = Counter()
        for ref in refs:
            ref_grams = _ngrams(ref, n)
            for gram, count in (cand_grams & ref_grams).items():
                clipped[gram] = max(clipped[gram], count)
        overlap = sum(clipped.values())
        total = sum(cand_grams.values())
        if overlap == 0:
            if n == 1:
                return 0.0
            overlap, total = 1, total + 1
        log_sum += math.log(overlap / total)

    c = len(cand)
    r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]
    brevity = 1.0 if c > r else math.exp(1.0 - r / c)
    return brevity * math.exp(log_sum / orders)


# ----------------------------------------------------- downstream harness


@dataclass(frozen=True)
class QARecord:
    question: str
    gold_answers: tuple[str, ...]

    def __post_init__(self):
        if not self.gold_answers:
            raise ValueError("gold_answers must be nonempty")


@dataclass
class MetricsReport:
    """Per-metric means plus the per-example raw scores they average."""

    metrics: dict[str, float]
    per_example: list[dict]
    failures: list[str] = field(default_factory=list)

    @property
    def n_scored(self) -> int:
        return len(self.per_example)

    @property
    def n_failed(self) -> int:
        return len(self.failures)


ANSWER_PROMPT = (
    "Answer the question using only the context.\n\n"
    "Context:\n{context}\n\nQuestion:\n{question}"
)


@dataclass(frozen=True)
class ContextAnswerTarget:
    """Offline stand-in for a downstream answering model.

    Replies with up to ``max_words`` context words following the first
    context occurrence of any question content word, or the first words of
    the context when nothing matches. Pure and deterministic.
    """

    max_words: int = 8
    provider_id: ClassVar[str] = "context-answer"

    def __post_init__(self):
        if self.max_words < 1:
            raise ValueError(f"max_words must be at least 1, got {self.max_words}")

    def complete(self, messages: list[dict[str, str]]) -> str:
        content = messages[-1]["content"]
        head, _, question = content.rpartition("\n\nQuestion:\n")
        _, _, context = head.rpartition("Context:\n")
        ctx_words = split_words(context)
        terms = {normalize_word(w) for w in question.split()} - {""}
        start = 0
        for i, w in enumerate(ctx_words):
            if normalize_word(w) in terms:
                start = i + 1
                break
        return " ".join(ctx_words[start : start + self.max_words])


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def evaluate_downstream(
    target: LlmProvider, items: Sequence[tuple[CompressionResult, QARecord]]
) -> MetricsReport:
    """Send each compressed context + question to the target and score the
    reply against the gold answers.

    Transport failures are recorded and excluded from every mean.
    """
    per_example: list[dict] = []
    failures: list[str] = []
    for idx, (result, record) in enumerate(items):
        prompt = ANSWER_PROMPT.format(
            context=result.kept_text, question=record.question
        )
        try:
            answer = target.complete([{"role": "user", "content": prompt}])
        except TransportError as exc:
            failures.append(f"item {idx}: {exc}")
            logger.warning("downstream call failed on item %d: %s", idx, exc)
            continue
        per_example.append(
            {
                "index": idx,
                "answer": answer,
                "token_f1": token_f1_max(answer, record.gold_answers),
                "rouge_l": max(
                    rouge_l(answer, g).f1 for g in record.gold_answers
                ),
                "bleu": bleu(answer, list(record.gold_answers)),
                "n_original": result.n_original,
                "n_kept": result.n_kept,
                "achieved_inverse_ratio": result.achieved_inverse_ratio,
            }
        )
    metrics = {
        "token_f1": _mean([e["token_f1"] for e in per_example]),
        "rouge_l": _mean([e["rouge_l"] for e in per_example]),
        "bleu": _mean([e["bleu"] for e in per_example]),
        "mean_original_units": _mean([e["n_original"] for e in per_example]),
        "mean_kept_units": _mean([e["n_kept"] for e in per_example]),
        "mean_achieved_inverse_ratio": _mean(
            [e["achieved_inverse_ratio"] for e in per_example]
        ),
    }
    return MetricsReport(
        metrics=metrics,
        per_example=per_example,
        failures=failures,
    )


# ------------------------------------------------------------------ sweep


@dataclass(frozen=True)
class SweepCell:
    fraction: float
    report: MetricsReport


@dataclass(frozen=True)
class SweepReport:
    cells: tuple[SweepCell, ...]


def data_efficiency_sweep(
    base_model: Model,
    extra_data: Sequence[LabeledExample],
    fractions: Sequence[float],
    eval_set: Sequence[LabeledExample],
    train_config: TrainConfig,
) -> SweepReport:
    """Incrementally train on growing slices of extra data and score each.

    ``extra_data`` is shuffled once with ``train_config.seed``; for each
    fraction f, a copy of the base model continues training on the first
    ``round_half_up(f * n)`` examples of that order and is scored by token
    accuracy on ``eval_set``. Smaller cells are prefixes of larger ones,
    and a cell does not depend on which other fractions are listed. The
    f=0 cell is the untouched base model.
    """
    if not eval_set:
        raise EmptyDataset("empty evaluation set")
    fr = list(fractions)
    if not fr or any(not 0.0 <= f <= 1.0 for f in fr):
        raise ValueError("fractions must lie in [0, 1]")
    if any(b <= a for a, b in zip(fr, fr[1:])):
        raise ValueError("fractions must be strictly increasing")
    if any(f > 0 for f in fr) and not extra_data:
        raise InsufficientData("no extra data to subsample from")

    variant = train_config.loss_variant
    order = list(extra_data)
    random.Random(train_config.seed).shuffle(order)
    cells: list[SweepCell] = []
    for fraction in fr:
        k = round_half_up(fraction * len(extra_data))
        if fraction > 0 and k == 0:
            raise InsufficientData(
                f"fraction {fraction} selects zero of {len(extra_data)} examples"
            )
        if k == 0:
            model = base_model
        else:
            model, _ = train(base_model, order[:k], train_config)
        mean_acc, per_example = token_accuracy(model, eval_set, variant)
        report = MetricsReport(
            metrics={"token_accuracy": mean_acc, "n_extra": float(k)},
            per_example=[
                {"index": i, "token_accuracy": a} for i, a in enumerate(per_example)
            ],
        )
        cells.append(SweepCell(fraction=fraction, report=report))
        logger.info("sweep cell f=%.3g: %d extra examples, accuracy %.4f",
                    fraction, k, mean_acc)
    return SweepReport(cells=tuple(cells))
