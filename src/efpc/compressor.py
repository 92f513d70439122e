"""Inference: keep the words most likely worth preserving.

Each original word gets a preserve probability from the encoder (with the
instruction, if any, prepended behind a separator). The top τ·N words by
probability are kept in their original order — never reordered, never
paraphrased — so the output is always a subsequence of the input. A word
budget B is supported by converting it to τ = min(1, B/N) first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import round_half_up
from .errors import EfpcError
from .model import Model, classify, encode, window_example
from .model.losses import PRESERVE_COL
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


def score_words(model: Model, instruction: str, original: tuple[str, ...]) -> np.ndarray:
    """Preserve probability for every original word.

    Inputs longer than the model's window are scored in consecutive
    windows, each led by the instruction, and the per-word
    probabilities concatenated — the result always has exactly one entry
    per original word.
    """
    if len(original) == 0:
        raise ValueError("original text has no words")
    windows = window_example(
        model.vocab,
        split_words(instruction),
        original,
        (0,) * len(original),
        model.config.max_seq_len,
    )
    probs: list[np.ndarray] = []
    for window in windows:
        h = encode(model.params, model.config, window.token_ids)
        probs.append(classify(model.params, h)[window.boundary :, PRESERVE_COL])
    return np.concatenate(probs)


def compress(model: Model, request: CompressionRequest) -> CompressionResult:
    """Score, pick the top target_keep_count words, restore input order.

    Ties in probability go to the earlier word, which both fixes the
    output deterministically and makes keep-sets nest as τ grows.
    """
    original = split_words(request.original)
    n = len(original)
    if n == 0:
        raise ValueError("original text has no words")
    if request.keep_ratio is not None:
        tau = request.keep_ratio
    else:
        tau = min(1.0, request.unit_budget / n)
    n_keep = target_keep_count(n, tau)
    probs = score_words(model, request.instruction, original)
    ranked = np.argsort(-probs, kind="stable")
    kept = np.sort(ranked[:n_keep]).tolist()
    return CompressionResult(
        kept_words=tuple(map(original.__getitem__, kept)),
        kept_indices=tuple(kept),
        probabilities=tuple(probs.tolist()),
        achieved_inverse_ratio=n / n_keep,
    )


def compress_batch(
    model: Model, requests: list[CompressionRequest]
) -> list[CompressionResult | CompressionFailure]:
    """compress() over a list; failures land in their slot, the rest run."""
    out: list[CompressionResult | CompressionFailure] = []
    for i, request in enumerate(requests):
        try:
            out.append(compress(model, request))
        except (EfpcError, ValueError) as exc:
            out.append(CompressionFailure(index=i, message=str(exc)))
    return out
