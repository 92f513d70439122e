"""Inference: keep the words most likely worth preserving.

Each original word gets a preserve probability from the encoder (with the
instruction, if any, prepended behind a separator). The top τ·N words by
probability are kept in their original order — never reordered, never
paraphrased — so the output is always a subsequence of the input. A word
budget B is supported by converting it to τ = min(1, B/N) first.

Scoring uses a second core where there is one: a call with two or more
windows (a long document, or a batch) has a helper process score the
second half of them, with the same bits the serial loop gives (see
``model.twocore``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import round_half_up
from .errors import EfpcError
from .model import Model, classify, encode, twocore, window_example
from .text_core import split_words


@dataclass(frozen=True)
class CompressionRequest:
    """One compression job: text, optional instruction, and exactly one of
    keep_ratio (fraction τ of words to keep) or unit_budget (max words)."""

    original: str
    instruction: str = ""
    keep_ratio: float | None = None
    unit_budget: int | None = None

    def __post_init__(self):
        if (self.keep_ratio is None) == (self.unit_budget is None):
            raise ValueError("set exactly one of keep_ratio and unit_budget")
        if self.keep_ratio is not None and not 0.0 < self.keep_ratio <= 1.0:
            raise ValueError("keep_ratio must lie in (0, 1]")
        if self.unit_budget is not None and self.unit_budget < 1:
            raise ValueError("unit_budget must be a positive word count")


@dataclass(frozen=True)
class CompressionResult:
    kept_words: tuple[str, ...]
    kept_indices: tuple[int, ...]
    probabilities: tuple[float, ...]
    achieved_inverse_ratio: float

    @property
    def n_original(self) -> int:
        return len(self.probabilities)

    @property
    def n_kept(self) -> int:
        return len(self.kept_words)

    @property
    def kept_text(self) -> str:
        return " ".join(self.kept_words)

    def to_record(self) -> dict:
        """The JSON object the CLI emits per compressed input."""
        return {
            "kept_text": self.kept_text,
            "kept_indices": list(self.kept_indices),
            "achieved_inverse_ratio": self.achieved_inverse_ratio,
            "n_original": self.n_original,
            "n_kept": self.n_kept,
        }


@dataclass(frozen=True)
class CompressionFailure:
    """Error slot in a batch result."""

    index: int
    message: str


def target_keep_count(n: int, tau: float) -> int:
    """How many words to keep: τ·n rounded half-up, clamped to [1, n]."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return min(max(round_half_up(tau * n), 1), n)


def _score_windows(model: Model, windows) -> np.ndarray:
    """Preserve probabilities of every window's original words,
    concatenated in window order, on two cores where there are two (see
    ``model.twocore``)."""
    return twocore.score_windows(model.params, model.config, windows, encode, classify)


def score_words(model: Model, instruction: str, original: tuple[str, ...]) -> np.ndarray:
    """Preserve probability for every original word.

    Inputs longer than the model's window are scored in consecutive
    windows, each led by the instruction, and the per-word
    probabilities concatenated — the result always has exactly one entry
    per original word.
    """
    if len(original) == 0:
        raise ValueError("original text has no words")
    return _score_windows(model, _windows(model, instruction, original))


def _windows(model: Model, instruction: str, original: tuple[str, ...]):
    return window_example(
        model.vocab,
        split_words(instruction),
        original,
        (0,) * len(original),
        model.config.max_seq_len,
    )


def _plan(request: CompressionRequest) -> tuple[tuple[str, ...], int]:
    """The request's words and how many of them to keep."""
    original = split_words(request.original)
    n = len(original)
    if n == 0:
        raise ValueError("original text has no words")
    if request.keep_ratio is not None:
        tau = request.keep_ratio
    else:
        tau = min(1.0, request.unit_budget / n)
    return original, target_keep_count(n, tau)


def _select(original: tuple[str, ...], n_keep: int, probs: np.ndarray) -> CompressionResult:
    """Keep the n_keep most probable words, in input order.

    Ties in probability go to the earlier word, which both fixes the
    output deterministically and makes keep-sets nest as τ grows.
    """
    ranked = np.argsort(-probs, kind="stable")
    kept = np.sort(ranked[:n_keep]).tolist()
    return CompressionResult(
        kept_words=tuple(map(original.__getitem__, kept)),
        kept_indices=tuple(kept),
        probabilities=tuple(probs.tolist()),
        achieved_inverse_ratio=len(original) / n_keep,
    )


def compress(model: Model, request: CompressionRequest) -> CompressionResult:
    """Score, pick the top target_keep_count words, restore input order.

    Scoring leaves ``model``'s parameters read-only (see ``model.twocore``):
    copy them to change them, for example with
    ``ModelParams(dict(model.params.tensors))``."""
    original, n_keep = _plan(request)
    return _select(original, n_keep, score_words(model, request.instruction, original))


def compress_batch(
    model: Model, requests: list[CompressionRequest]
) -> list[CompressionResult | CompressionFailure]:
    """compress() over a list; failures land in their slot, the rest run.

    Every request is split and windowed first, then all the batch's
    windows are scored in one go, so short requests share the two cores.
    """
    out: list[CompressionResult | CompressionFailure | None] = [None] * len(requests)
    planned = []
    windows = []
    for i, request in enumerate(requests):
        try:
            original, n_keep = _plan(request)
            windows += _windows(model, request.instruction, original)
        except (EfpcError, ValueError) as exc:
            out[i] = CompressionFailure(index=i, message=str(exc))
        else:
            planned.append((i, original, n_keep))
    probs = _score_windows(model, windows) if windows else None
    start = 0
    for i, original, n_keep in planned:
        end = start + len(original)
        out[i] = _select(original, n_keep, probs[start:end])
        start = end
    return out
