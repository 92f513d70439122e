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

One helper serves the process. It is forked on the first such call and is
stopped when the process exits; it exits by itself when this process
dies. Scoring sends it each model as raw tensor buffers, once per
parameter table. Training shares memory with it instead: a
``TrainingRun`` keeps the run's parameters in a mapping that both
processes map, so the helper reads the parameters Adam updated in place,
writes each example's gradient pieces into a reply area of the same
mapping, and answers each batch with one short message. The process keeps
one such mapping, replaced by a larger one only when a run needs more
room; its descriptor goes to the helper once per mapping.

With one window or example, or fewer than two usable CPUs, nothing is
forked; without ``os.memfd_create`` training stays serial. If the helper
dies or fails, this process computes that share itself and stays serial
from then on.
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
from multiprocessing import reduction

import numpy as np

from . import network
from .losses import PRESERVE_COL
from .params import FlatTable, ModelParams

# a window as scored: its token ids and the position of its first original word
Window = tuple[tuple[int, ...], int]

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


def _pieces(table: FlatTable) -> np.ndarray:
    """The flat table after its two embeddings: what an example's gradient
    pieces cover, one after another in table order."""
    return table.flat[table["token_emb"].size + table["pos_emb"].size :]


def _slot_bytes(length: int, table: FlatTable) -> int:
    """The bytes of the reply slot of a window of ``length`` tokens, for
    tensors laid out as ``table``, rounded up to 64."""
    width = table["pos_emb"].shape[1]
    nbytes = 8 * (1 + 2 * length) + table.flat.itemsize * (length * width + _pieces(table).size)
    return -(-nbytes // 64) * 64


def _slots(shared, at: int, lengths: list[int], table: FlatTable) -> list:
    """``(loss, probs, dx, pieces)`` views of the reply slots of windows of
    the given lengths, packed one after another from byte ``at`` of
    ``shared``: the loss and the probabilities in float64, the embedding
    gradient ``dx`` and the pieces in the dtype of ``table``, which gives
    the layout."""
    width, n_pieces = table["pos_emb"].shape[1], _pieces(table).size
    slots = []
    for n in lengths:
        head = np.frombuffer(shared, np.float64, 1 + 2 * n, at)
        body = np.frombuffer(shared, table.flat.dtype, n * width + n_pieces, at + head.nbytes)
        slots.append((head[:1], head[1:].reshape(n, 2), body[: n * width].reshape(n, width),
                      body[n * width :]))
        at += _slot_bytes(n, table)
    return slots


def _write_gradients(shared, run, examples, loss_variant: str) -> None:
    """Write every example's loss, probabilities and gradient pieces into
    its reply slot of ``shared``."""
    params, config, reply_at = run
    names = list(params.tensors)[2:]  # every tensor after the two embeddings
    slots = _slots(shared, reply_at, [len(ex.token_ids) for ex in examples], params.tensors)
    # as in training: a non-finite loss is the caller's to report
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for ex, (loss, probs, dx, flat) in zip(examples, slots):
            value, p, _, d, pieces = network.gradient_pieces(params, config, ex, loss_variant)
            loss[0], probs[...], dx[...] = value, p, d
            np.concatenate([pieces[k].reshape(-1) for k in names], out=flat)


def _serve(conn, parent_end) -> None:
    """The helper's loop. A ``("model", config, layout)`` message is
    followed by one raw buffer per tensor and replaces the model that
    ``("score", windows)`` messages are scored with; they are answered
    with the windows' float64 probabilities as one raw buffer. A
    ``("map", size)`` message is followed by the descriptor of the
    training mapping, and a ``("run", config, dtype, shapes, reply_at)``
    one places a run's parameters at its start; each ``("grads", examples,
    loss_variant)`` is answered, once ``_write_gradients`` is done, with an
    empty message. ``None`` or a closed pipe ends the loop. Any failure
    ends it too: the parent then computes the share itself and meets the
    same error there, if it is one."""
    parent_end.close()  # so the parent's exit closes the pipe and ends this loop
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    gc.freeze()  # collections leave the pages shared with the parent alone
    params = config = shared = run = None
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
            elif msg[0] == "map":
                import mmap

                fd = reduction.recv_handle(conn)
                try:
                    shared = mmap.mmap(fd, msg[1])
                finally:
                    os.close(fd)
            elif msg[0] == "run":
                _, run_config, dtype, shapes, reply_at = msg
                size = sum(math.prod(shape) for shape in shapes.values())
                tensors = FlatTable(np.frombuffer(shared, dtype, size), shapes)
                run = (ModelParams(tensors), run_config, reply_at)
            else:
                _write_gradients(shared, run, *msg[1:])
                conn.send_bytes(b"")
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
        # a weak reference to the params the helper scores with and their
        # config: the helper's copy must not keep the caller's tables alive
        self.shipped: tuple[weakref.ref, object] | None = None
        # the training mapping this process shares with the helper
        self.shared = None
        self.alive = True
        atexit.register(self.stop)

    def send(self, msg) -> bool:
        """Send one message; False, with the helper stopped, if it is gone."""
        try:
            self.conn.send(msg)
            return True
        except OSError:
            self.stop()
            return False

    def submit(self, params: ModelParams, config, request: tuple) -> bool:
        """Send the model unless the helper scores with it already, then the
        request; False if the helper is gone."""
        try:
            if (self.shipped is None or self.shipped[0]() is not params
                    or self.shipped[1] != config):
                tensors = params.tensors
                layout = [(name, t.dtype.str, t.shape) for name, t in tensors.items()]
                self.conn.send(("model", config, layout))
                for t in tensors.values():
                    self.conn.send_bytes(np.ascontiguousarray(t))
                self.shipped = (weakref.ref(params), config)
        except OSError:
            self.stop()
            return False
        return self.send(request)

    def mapping(self, nbytes: int):
        """The mapping this process shares with the helper, of at least
        ``nbytes``: made, or replaced by one of twice the size or more, with
        its descriptor sent, when it is too small. None, with the helper
        stopped, if that failed."""
        if self.shared is not None and len(self.shared) >= nbytes:
            return self.shared
        import mmap  # here, so that importing efpc does not load it

        size = max(nbytes, 2 * len(self.shared)) if self.shared is not None else nbytes
        try:
            fd = os.memfd_create("efpc-train", os.MFD_CLOEXEC)
            try:
                os.ftruncate(fd, size)  # untouched pages take no memory
                shared = mmap.mmap(fd, size)
                self.conn.send(("map", size))
                reduction.send_handle(self.conn, fd, self.pid)
            finally:
                os.close(fd)
        except OSError:
            self.stop()
            return None
        self.shared = shared
        return shared

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

    def stop(self) -> None:
        """Ask the helper to exit and reap it, killing it after 1 s; the
        helper is not used again. Only the process that forked it acts."""
        if not self.alive or os.getpid() != self.owner:
            return
        self.alive = False
        self.shared = None  # unmapped once no run's arrays view it
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
            # a forked copy of another process's helper: its pipe end is
            # closed and its mapping left, so this process never writes into it
            _helper.conn.close()
            _helper.shared = None
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


class TrainingRun:
    """One training run's tables, and the helper that works on the second
    share of each of its batches.

    ``params`` is a FlatTable of the given shapes, whose embeddings come
    first; ``grads`` is a zero FlatTable of the same layout. With a usable
    helper, the parameters sit at the start of the shared mapping, and the
    run holds the helper from ``__enter__`` to ``__exit__``; otherwise
    they are private and every batch runs serially. The caller fills the
    parameters in before the first batch.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], dtype, config, longest: int,
                 batch_size: int):
        self.config = config
        self.helper = self.shared = None
        size = sum(math.prod(shape) for shape in shapes.values())
        self.grads = FlatTable(np.zeros(size, dtype), shapes)
        # an example's pieces take about the bytes of every tensor but token_emb
        per_example = (size - self.grads["token_emb"].size) * self.grads.flat.itemsize
        self.round = 2 * max(1, _REPLY_BYTES // per_example)
        # the most windows the helper takes in one round, each of the longest
        share = min(self.round, batch_size) - 1
        if share > 0 and hasattr(os, "memfd_create") and _helper_lock.acquire(blocking=False):
            self._take_helper(shapes, share * _slot_bytes(longest, self.grads))
        if self.helper is None:
            flat = np.empty(size, dtype)
        else:
            flat = np.frombuffer(self.shared, dtype, size)
        self.params = ModelParams(FlatTable(flat, shapes))

    def _take_helper(self, shapes, reply_bytes: int) -> None:
        """Hold the helper and the mapping for this run, or release the lock."""
        helper = _usable_helper()
        self.reply_at = -(-self.grads.flat.nbytes // 64) * 64
        shared = helper.mapping(self.reply_at + reply_bytes) if helper is not None else None
        if shared is not None and helper.send(("run", self.config, self.grads.flat.dtype.str,
                                                shapes, self.reply_at)):
            self.helper, self.shared = helper, shared
        else:
            _helper_lock.release()

    def __enter__(self) -> TrainingRun:
        return self

    def __exit__(self, *exc) -> None:
        if self.helper is not None:
            self.helper = None
            _helper_lock.release()

    def gradients(self, batch, loss_variant: str, backward) -> list[tuple[float, np.ndarray]]:
        """Each example's loss and probabilities, in batch order, with its
        gradient added into ``grads`` in that order: the bits of calling
        ``backward(params, config, example, loss_variant, grads)`` on each
        example in turn, which is what this process does for its share."""

        def serial(examples):
            out = []
            for ex in examples:
                loss, _, probs = backward(self.params, self.config, ex, loss_variant, self.grads)
                out.append((loss, probs))
            return out

        helper = self.helper
        if len(batch) < 2 or helper is None or not helper.alive:
            return serial(batch)
        out = []
        for lo in range(0, len(batch), self.round):
            examples = batch[lo : lo + self.round]
            if len(examples) < 2:
                out += serial(examples)
                continue
            cut = _halfway([len(ex.token_ids) for ex in examples])
            if not helper.send(("grads", examples[cut:], loss_variant)):
                out += serial(examples)
                continue
            try:
                out += serial(examples[:cut])
                done = helper._read(helper.conn.recv_bytes)
            except BaseException:
                # a reply left unread would be taken for the next batch's:
                # the helper is not used again
                helper.stop()
                raise
            out += serial(examples[cut:]) if done is None else self._add_reply(examples[cut:])
        return out

    def _add_reply(self, examples) -> list[tuple[float, np.ndarray]]:
        """Add the helper's pieces of each example into ``grads`` in turn."""
        tail = _pieces(self.grads)
        lengths = [len(ex.token_ids) for ex in examples]
        out = []
        for ex, (loss, probs, dx, pieces) in zip(
            examples, _slots(self.shared, self.reply_at, lengths, self.grads)
        ):
            tail += pieces
            network.add_embedding_gradient(self.grads, np.asarray(ex.token_ids, np.int64), dx)
            out.append((float(loss[0]), probs.copy()))  # the slots are written again
        return out
