"""Inference: keep the words most likely worth preserving.

Each original word gets a preserve probability from the encoder (with the
instruction, if any, prepended behind a separator). The top τ·N words by
probability are kept in their original order — never reordered, never
paraphrased — so the output is always a subsequence of the input. A word
budget B is supported by converting it to τ = min(1, B/N) first.

Scoring uses a second core where there is one. A call with two or more
windows (a long document, or a batch) splits them into two contiguous
shares of about equal token counts; a helper process scores the second
share while this process scores the first, and the probabilities are
joined in window order, the same bits the serial loop gives. One helper
serves the process: it is forked on the first such call, receives each
new model once as raw tensor buffers, and is stopped when the process
exits. With one window, or fewer than two usable CPUs, nothing is forked.
If the helper dies or fails, this process scores that share itself and
scores serially from then on.
"""

from __future__ import annotations

import atexit
import gc
import multiprocessing
import os
import signal
import threading
import weakref
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ._util import round_half_up
from .errors import EfpcError
from .model import Model, ModelParams, classify, encode, network, window_example
from .model.losses import PRESERVE_COL
from .text_core import split_words

# a window as scored: its token ids and the position of its first original word
_Window = tuple[tuple[int, ...], int]


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


def _score(params: ModelParams, config, windows: list[_Window], encode, classify) -> np.ndarray:
    """Preserve probabilities of the windows' original words, one window
    after another, through the given ``encode`` and ``classify``."""
    return np.concatenate(
        [classify(params, encode(params, config, ids))[boundary:, PRESERVE_COL]
         for ids, boundary in windows]
    )


def _serve(conn, parent_end) -> None:
    """The helper's loop. A ``("model", config, layout)`` message is
    followed by one raw buffer per tensor and replaces the model; a
    ``("score", windows)`` message is answered with the windows' float64
    probabilities as one raw buffer; ``None`` or a closed pipe ends it.
    Any failure ends it too: the parent then scores the share itself and
    meets the same error there, if it is one."""
    parent_end.close()  # so the parent's exit closes the pipe and ends this loop
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    gc.freeze()  # collections leave the pages shared with the parent alone
    params = config = None
    try:
        while (msg := conn.recv()) is not None:
            if msg[0] == "model":
                _, config, layout = msg
                params = ModelParams({
                    name: np.frombuffer(conn.recv_bytes(), dtype).reshape(shape)
                    for name, dtype, shape in layout
                })
            else:
                # the package's own ops: a tracer installed in the parent before
                # the fork would only collect spans here that nobody reads
                conn.send_bytes(_score(params, config, msg[1], network.encode, network.classify))
    except Exception:
        return


class _Helper:
    """A forked process that scores the second share of each call.

    Forked, not spawned: the child starts at once with numpy loaded and
    shares this process's pages, and it runs only numpy and its pipe.
    """

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self.conn, child_end = ctx.Pipe()
        self.process = ctx.Process(target=_serve, args=(child_end, self.conn), daemon=True)
        self.process.start()
        child_end.close()
        self.pid = os.getpid()
        # a weak reference to the params the helper holds, and their config:
        # the helper's copy must not keep the caller's tables alive here
        self.shipped: tuple[weakref.ref, object] | None = None
        self.alive = True
        atexit.register(self.stop)

    def submit(self, params: ModelParams, config, windows: list[_Window]) -> bool:
        """Send the model unless the helper has it, then the windows; False
        if the helper is gone."""
        try:
            if self.shipped is None or self.shipped[0]() is not params or self.shipped[1] != config:
                tensors = params.tensors
                layout = [(name, t.dtype.str, t.shape) for name, t in tensors.items()]
                self.conn.send(("model", config, layout))
                for t in tensors.values():
                    self.conn.send_bytes(np.ascontiguousarray(t))
                self.shipped = (weakref.ref(params), config)
            self.conn.send(("score", windows))
            return True
        except OSError:
            self.stop()
            return False

    def collect(self, n: int) -> np.ndarray | None:
        """The n probabilities of the submitted windows, or None if the
        helper failed."""
        try:
            probs = np.frombuffer(self.conn.recv_bytes(), np.float64)
        except (EOFError, OSError):
            probs = None
        if probs is None or probs.size != n:
            self.stop()
            return None
        return probs

    def stop(self) -> None:
        """Ask the helper to exit and reap it, ending it after 1 s; the
        helper is not used again. Only the process that forked it acts."""
        if not self.alive or os.getpid() != self.pid:
            return
        self.alive = False
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.process.join(1.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()
        self.conn.close()


_helper: _Helper | None = None
# held by the one call at a time that forks or uses the helper
_helper_lock = threading.Lock()


def _usable_helper() -> _Helper | None:
    """This process's helper, forked on first use; None with fewer than two
    usable CPUs or once the helper has failed. Call with _helper_lock held."""
    global _helper
    # sched_getaffinity is Linux-only; without it scoring stays on one core
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return None
    if _helper is None or _helper.pid != os.getpid():
        if _helper is not None:
            _helper.conn.close()  # a forked copy of another process's pipe end
        _helper = _Helper()
    return _helper if _helper.alive else None


def _halfway(windows: list[_Window]) -> int:
    """How many leading windows hold about half of all the tokens, at
    least one and leaving at least one."""
    prefix = list(accumulate(len(ids) for ids, _ in windows))
    return min(range(1, len(windows)), key=lambda k: abs(2 * prefix[k - 1] - prefix[-1]))


def _score_windows(model: Model, windows) -> np.ndarray:
    """Preserve probabilities of every window's original words,
    concatenated in window order; see the module docstring for the split."""
    pairs = [(w.token_ids, w.boundary) for w in windows]
    params, config = model.params, model.config
    # while another thread uses the helper, this call runs serially
    if len(pairs) < 2 or not _helper_lock.acquire(blocking=False):
        return _score(params, config, pairs, encode, classify)
    try:
        helper = _usable_helper()
        if helper is None:
            return _score(params, config, pairs, encode, classify)
        cut = _halfway(pairs)
        sent = helper.submit(params, config, pairs[cut:])
        try:
            first = _score(params, config, pairs[:cut], encode, classify)
        finally:
            # read the reply even if this share raised, so none is left queued
            second = helper.collect(sum(len(ids) - b for ids, b in pairs[cut:])) if sent else None
    finally:
        _helper_lock.release()
    if second is None:
        second = _score(params, config, pairs[cut:], encode, classify)
    return np.concatenate([first, second])


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
    """Score, pick the top target_keep_count words, restore input order."""
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
