"""A second core: the helper process that scores windows and computes
training gradients.

Scoring and training split their work the same way. A call with two or
more windows, or a training batch of two or more examples, is split into
two contiguous shares of about equal token counts; a helper process works
on the second share while this process works on the first, and the
results are joined in order:

- scoring joins the probabilities in window order, the same bits the
  serial loop gives;
- training adds the helper's gradient pieces into the batch table one
  example at a time, after this process's own share, so every float add
  happens in the order of the serial loop.

This process's share goes through the functions the caller passes in;
the helper calls ``network``'s own.

One helper serves the process. It is forked on the first such call and
receives each model as raw tensor buffers: once per parameter table for
scoring, and again after every Adam step in training, which updates the
table in place. It is stopped when the process exits, and exits by itself
when this process dies. With one window or example, or fewer than two
usable CPUs, nothing is forked. If the helper dies or fails, this process
computes that share itself and stays serial from then on.
"""

from __future__ import annotations

import atexit
import gc
import math
import multiprocessing
import os
import signal
import threading
import time
import weakref
from itertools import accumulate

import numpy as np

from . import network
from .losses import PRESERVE_COL
from .params import ModelParams

# a window as scored: its token ids and the position of its first original word
Window = tuple[tuple[int, ...], int]
# the name, dtype and shape of each array in a packed buffer, in order
Layout = list[tuple[str, str, tuple[int, ...]]]

# about the most bytes of gradient pieces the helper holds for one reply;
# a batch whose second half would need more is worked on in rounds
_REPLY_BYTES = 16 << 20


def _score(params: ModelParams, config, windows: list[Window], encode, classify) -> np.ndarray:
    """Preserve probabilities of the windows' original words, one window
    after another, through the given ``encode`` and ``classify``."""
    return np.concatenate(
        [classify(params, encode(params, config, ids))[boundary:, PRESERVE_COL]
         for ids, boundary in windows]
    )


def _pack(parts: dict[str, np.ndarray]) -> np.ndarray:
    """The arrays' bytes, one after another."""
    return np.concatenate([np.ascontiguousarray(a).reshape(-1).view(np.uint8)
                           for a in parts.values()])


def _unpack(buf, layout: Layout) -> dict[str, np.ndarray]:
    """The arrays ``_pack`` wrote into ``buf``, as views of it."""
    parts, at = {}, 0
    for name, dtype, shape in layout:
        parts[name] = np.frombuffer(buf, dtype, math.prod(shape), at).reshape(shape)
        at += parts[name].nbytes
    return parts


def _nbytes(layout: Layout) -> int:
    """The size of the buffer ``_pack`` writes for ``layout``."""
    return sum(np.dtype(dtype).itemsize * math.prod(shape) for _, dtype, shape in layout)


def _send_gradients(conn, params: ModelParams, config, examples, loss_variant: str) -> None:
    """Compute every example's gradient pieces, then send their layouts
    and, as bare bytes on the pipe, one ``_pack`` buffer per example.
    Computing first keeps a full pipe from stalling the work while the
    caller is busy with its own share; bare bytes let the caller read each
    example into one buffer it reuses."""
    layouts, replies = [], []
    # as in training: a non-finite loss is the caller's to report
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for ex in examples:
            loss, probs, _, dx, pieces = network.gradient_pieces(params, config, ex, loss_variant)
            parts = {"loss": np.array([loss]), "probs": probs, "dx": dx, **pieces}
            layouts.append([(name, a.dtype.str, a.shape) for name, a in parts.items()])
            replies.append(_pack(parts))
    conn.send(layouts)
    for buf in replies:
        view = memoryview(buf)
        while view:
            view = view[os.write(conn.fileno(), view) :]


def _serve(conn, parent_end) -> None:
    """The helper's loop. A ``("model", config, layout)`` message is
    followed by one raw buffer per tensor and replaces the model; a
    ``("score", windows)`` message is answered with the windows' float64
    probabilities as one raw buffer, and a ``("grads", examples,
    loss_variant)`` one by ``_send_gradients``; ``None`` or a closed pipe
    ends it. Any failure ends it too: the parent then computes the share
    itself and meets the same error there, if it is one."""
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
            elif msg[0] == "score":
                # the package's own ops: a tracer installed in the parent before
                # the fork would only collect spans here that nobody reads
                conn.send_bytes(_score(params, config, msg[1], network.encode, network.classify))
            else:
                _send_gradients(conn, params, config, *msg[1:])
    except Exception:
        return


class _Helper:
    """A forked process that works on the second share of each call.

    Forked with ``os.fork``: the child starts at once with numpy loaded,
    shares this process's pages and runs only numpy and its pipe. It is
    no ``multiprocessing`` child, so the exit handlers of a process forked
    from this one later do not know it and leave it running.
    """

    def __init__(self):
        self.conn, child_end = multiprocessing.Pipe()
        self.owner = os.getpid()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                _serve(child_end, self.conn)
            finally:
                os._exit(0)  # no exit handlers: they are the parent's
        child_end.close()
        # a weak reference to the params the helper holds, their config and
        # their version: the helper's copy must not keep the caller's tables alive
        self.shipped: tuple[weakref.ref, object, object] | None = None
        self.alive = True
        atexit.register(self.stop)

    def submit(self, params: ModelParams, config, request: tuple, version=None) -> bool:
        """Send the model unless the helper has this version of it, then
        the request; False if the helper is gone."""
        try:
            if (self.shipped is None or self.shipped[0]() is not params
                    or self.shipped[1:] != (config, version)):
                tensors = params.tensors
                layout = [(name, t.dtype.str, t.shape) for name, t in tensors.items()]
                self.conn.send(("model", config, layout))
                for t in tensors.values():
                    self.conn.send_bytes(np.ascontiguousarray(t))
                self.shipped = (weakref.ref(params), config, version)
            self.conn.send(request)
            return True
        except OSError:
            self.stop()
            return False

    def _read(self, read):
        """``read()``, or None, with the helper stopped, if it failed."""
        if not self.alive:
            return None
        try:
            return read()
        except (EOFError, OSError):
            self.stop()
            return None

    def collect(self, n: int) -> np.ndarray | None:
        """The n probabilities of the submitted windows, or None if the
        helper failed."""
        buf = self._read(self.conn.recv_bytes)
        if buf is None or len(buf) != 8 * n:
            self.stop()
            return None
        return np.frombuffer(buf, np.float64)

    def receive(self):
        """The next pickled reply message, or None if the helper failed."""
        return self._read(self.conn.recv)

    def read_into(self, view: np.ndarray) -> bool:
        """Fill ``view`` with the next bare bytes of the reply; False if
        the helper failed."""

        def read():
            got = 0
            while got < view.nbytes:
                n = os.readv(self.conn.fileno(), [view[got:]])
                if n == 0:
                    raise EOFError
                got += n
            return True

        return self._read(read) is not None

    def stop(self) -> None:
        """Ask the helper to exit and reap it, killing it after 1 s; the
        helper is not used again. Only the process that forked it acts."""
        if not self.alive or os.getpid() != self.owner:
            return
        self.alive = False
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.conn.close()
        deadline = time.monotonic() + 1.0
        try:
            while os.waitpid(self.pid, os.WNOHANG)[0] == 0:
                if time.monotonic() > deadline:
                    os.kill(self.pid, signal.SIGKILL)
                    os.waitpid(self.pid, 0)
                    break
                time.sleep(0.001)
        except ChildProcessError:
            pass  # reaped already, by a SIGCHLD handler of the program's


_helper: _Helper | None = None
# held by the one call at a time that forks or uses the helper
_helper_lock = threading.Lock()


def _usable_helper() -> _Helper | None:
    """This process's helper, forked on first use; None with fewer than two
    usable CPUs or once the helper has failed. Call with _helper_lock held."""
    global _helper
    # sched_getaffinity is Linux-only; without it everything stays on one core
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return None
    if _helper is None or _helper.owner != os.getpid():
        if _helper is not None:
            _helper.conn.close()  # a forked copy of another process's pipe end
        _helper = _Helper()
    return _helper if _helper.alive else None


def _halfway(lengths: list[int]) -> int:
    """How many leading items hold about half of all the tokens, at least
    one and leaving at least one."""
    prefix = list(accumulate(lengths))
    return min(range(1, len(lengths)), key=lambda k: abs(2 * prefix[k - 1] - prefix[-1]))


def score_windows(params: ModelParams, config, windows: list[Window], encode,
                  classify) -> np.ndarray:
    """Preserve probabilities of every window's original words,
    concatenated in window order; this process's share goes through
    ``encode`` and ``classify``."""
    # while another thread uses the helper, this call runs serially
    if len(windows) < 2 or not _helper_lock.acquire(blocking=False):
        return _score(params, config, windows, encode, classify)
    try:
        helper = _usable_helper()
        if helper is None:
            return _score(params, config, windows, encode, classify)
        cut = _halfway([len(ids) for ids, _ in windows])
        sent = helper.submit(params, config, ("score", windows[cut:]))
        try:
            first = _score(params, config, windows[:cut], encode, classify)
        finally:
            # read the reply even if this share raised, so none is left queued
            n = sum(len(ids) - b for ids, b in windows[cut:])
            second = helper.collect(n) if sent else None
    finally:
        _helper_lock.release()
    if second is None:
        second = _score(params, config, windows[cut:], encode, classify)
    return np.concatenate([first, second])


def batch_gradients(
    params: ModelParams, config, batch, loss_variant: str, grads: dict[str, np.ndarray],
    backward, version,
) -> list[tuple[float, np.ndarray]]:
    """Each example's loss and probabilities, in batch order, with its
    gradient added into ``grads`` in that order: the bits of calling
    ``backward(params, config, example, loss_variant, grads)`` on each
    example in turn, which is what this process does for its share.
    ``version`` names the state of ``params``; the helper is sent the
    tensors again whenever it changes."""

    def serial(examples):
        out = []
        for ex in examples:
            loss, _, probs = backward(params, config, ex, loss_variant, grads)
            out.append((loss, probs))
        return out

    def helpers_share(helper, examples):
        """Read the helper's reply for the examples and add each one's
        pieces in turn; from where the helper fails on, compute them here."""
        layouts = helper.receive()
        sizes = [_nbytes(layout) for layout in layouts or ()]
        space = np.empty(max(sizes, default=0), np.uint8)  # one example's reply
        out = []
        for i, ex in enumerate(examples):
            if layouts is None or not helper.read_into(space[: sizes[i]]):
                return out + serial(examples[i:])
            parts = _unpack(space[: sizes[i]], layouts[i])
            loss, probs, dx = parts.pop("loss"), parts.pop("probs"), parts.pop("dx")
            network.add_pieces(grads, np.asarray(ex.token_ids, np.int64), dx, parts)
            out.append((float(loss[0]), probs.copy()))  # space is read into again
        return out

    if len(batch) < 2 or not _helper_lock.acquire(blocking=False):
        return serial(batch)
    try:
        helper = _usable_helper()
        if helper is None:
            return serial(batch)
        # an example's pieces take about the bytes of every tensor but token_emb
        per_example = sum(t.nbytes for name, t in params.tensors.items() if name != "token_emb")
        size = 2 * max(1, _REPLY_BYTES // per_example)
        out = []
        for lo in range(0, len(batch), size):
            examples = batch[lo : lo + size]
            if len(examples) < 2:
                out += serial(examples)
                continue
            cut = _halfway([len(ex.token_ids) for ex in examples])
            if not helper.submit(params, config, ("grads", examples[cut:], loss_variant), version):
                out += serial(examples)
                continue
            try:
                out += serial(examples[:cut])
                out += helpers_share(helper, examples[cut:])
            except BaseException:
                # a reply left unread, or read in part, would be taken for
                # the next call's: the helper is not used again
                helper.stop()
                raise
        return out
    finally:
        _helper_lock.release()
