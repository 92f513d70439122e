"""A second core: the helper process that scores windows and computes
training gradients.

Scoring and training split their work the same way. A call with two or
more windows, or a training batch of two or more examples, is split into
two contiguous shares of about equal token counts; a helper process works
on the second share while this process works on the first, and the
results are joined in order:

- scoring joins the probabilities in window order, the same bits the
  serial loop gives;
- training sums each share's gradients into a table of its own, in
  example order, and adds the second table into the first once.

Training splits a batch this way on one core too, with this process
summing both shares, so one core and two give the same bits. This
process's share goes through the functions the caller passes in; the
helper calls ``network``'s own.

One helper serves the process. It is forked on the first such call and
is stopped when the process exits; it exits by itself when this process
dies. Just before the fork the process maps one memory file, which the
helper inherits and which is never replaced: the model the helper works
with sits at its start, as one flat table, and the helper writes its
replies into the area after it and answers each request with one short
message. Scoring copies a model in only when the mapping does not hold
it already; a ``TrainingRun`` keeps the run's parameters there, so the
helper reads the parameters Adam updated in place. A call whose model
and reply do not fit runs on one core.

With one window or example, fewer than two usable CPUs, or no
``os.memfd_create``, nothing is forked. If the mapping cannot be made, or
the helper cannot be forked, dies or fails, this process does that share
itself and stays serial from then on.
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
from .params import FlatTable, ModelParams, zeros_like

# a window as scored: its token ids and the position of its first original word
Window = tuple[tuple[int, ...], int]

# the size of the mapping each process shares with its helper, made once and
# never grown: a memory file's untouched pages take no memory and no commit
# charge, and 64 GiB is an eighth of the smallest 64-bit Linux address space.
# Where address space is scarce, in a 32-bit process or under a soft RLIMIT_AS
# (ulimit -v), which counts the whole mapping, it is 64 MiB: sixteen times
# what the default model (3.75 MB) and its replies need
_RESERVE, _SCARCE_RESERVE = 64 << 30, 64 << 20


def _score(params: ModelParams, config, windows: list[Window], encode, classify) -> np.ndarray:
    """Preserve probabilities of the windows' original words, one window
    after another, through the given ``encode`` and ``classify``."""
    return np.concatenate(
        [classify(params, encode(params, config, ids))[boundary:, PRESERVE_COL]
         for ids, boundary in windows]
    )


def _padded(nbytes: int) -> int:
    """``nbytes`` rounded up to a multiple of 64."""
    return -(-nbytes // 64) * 64


def _gradient_reply(shared, at: int, table: FlatTable, examples) -> tuple:
    """``(grads, losses, probs)``: views of the reply to a ``"grads"``
    request from byte ``at`` of ``shared``. A gradient table of the layout
    of ``table`` comes first, then each example's loss, then each one's
    probabilities, in float64."""
    grads = FlatTable(np.frombuffer(shared, table.flat.dtype, table.flat.size, at),
                      {name: t.shape for name, t in table.items()})
    lengths = [len(ex.token_ids) for ex in examples]
    values = np.frombuffer(shared, np.float64, len(examples) + 2 * sum(lengths),
                           at + _padded(grads.flat.nbytes))
    probs = np.split(values[len(examples) :], 2 * np.cumsum(lengths)[:-1])
    return grads, values[: len(examples)], [p.reshape(-1, 2) for p in probs]


def _serve(conn, parent_end, shared) -> None:
    """The helper's loop, over ``shared``, the mapping it inherited. A
    ``("model", config, dtype, shapes, reply_at)`` message sets the model
    that later requests work with: the flat table at the mapping's start,
    with replies at byte ``reply_at``. A ``("score", windows)`` request
    gets the windows' float64 probabilities there. A ``("grads", examples,
    loss_variant)`` one gets the sum of the examples' gradients, in order,
    and each one's loss and probabilities (see ``_gradient_reply``). Each
    request is answered with an empty message once its reply is written.
    ``None`` or a closed pipe ends the loop. Any failure ends it too: the
    parent then computes the share itself and meets the same error there,
    if it is one."""
    parent_end.close()  # so the parent's exit closes the pipe and ends this loop
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    gc.freeze()  # collections leave the pages shared with the parent alone
    params = config = reply_at = None
    try:
        while (msg := conn.recv()) is not None:
            if msg[0] == "model":
                _, config, dtype, shapes, reply_at = msg
                size = sum(math.prod(shape) for shape in shapes.values())
                params = ModelParams(FlatTable(np.frombuffer(shared, dtype, size), shapes))
            elif msg[0] == "score":
                # the package's own ops: a tracer installed in the parent before
                # the fork would only collect spans here that nobody reads
                probs = _score(params, config, msg[1], network.encode, network.classify)
                np.frombuffer(shared, np.float64, probs.size, reply_at)[...] = probs
                conn.send_bytes(b"")
            else:
                _, examples, loss_variant = msg
                grads, losses, probs = _gradient_reply(shared, reply_at, params.tensors, examples)
                grads.flat.fill(0)
                # as in training: a non-finite loss is the caller's to report
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    for i, ex in enumerate(examples):
                        loss, _, p = network.backward_detailed(params, config, ex, loss_variant,
                                                               grads)
                        losses[i], probs[i][...] = loss, p
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
        import mmap  # here, so that importing efpc does not load it
        import resource

        self.owner = os.getpid()
        # a weak reference to the params scoring copied into the mapping, and
        # their config: None once anything else may have been written there
        self.shipped: tuple[weakref.ref, object] | None = None
        # where in the mapping the helper writes its replies
        self.reply_at = 0
        self.alive = False
        unlimited = resource.RLIM_INFINITY
        scarce = resource.getrlimit(resource.RLIMIT_AS)[0] != unlimited
        reserve = _SCARCE_RESERVE if scarce or np.iinfo(np.intp).max < _RESERVE else _RESERVE
        if (file_limit := resource.getrlimit(resource.RLIMIT_FSIZE)[0]) != unlimited:
            reserve = min(reserve, file_limit)  # no file grows past it (ulimit -f)
        ends = ()
        try:
            fd = os.memfd_create("efpc-train", os.MFD_CLOEXEC)
            try:
                os.ftruncate(fd, reserve)
                # the mapping this process shares with the helper
                self.shared = mmap.mmap(fd, reserve)
            finally:
                os.close(fd)
            ends = multiprocessing.Pipe()
            self.pid = os.fork()
        except (OSError, OverflowError, ValueError):
            # no mapping, pipe or process to be had: the helper starts stopped,
            # and the process stays on one core as after a helper failure
            self.shared = None
            for end in ends:
                end.close()
            return
        self.conn, child_end = ends
        if self.pid == 0:
            try:
                _serve(child_end, self.conn, self.shared)
            finally:
                os._exit(0)  # no exit handlers: they are the parent's
        child_end.close()
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

    def load(self, shapes: dict[str, tuple[int, ...]], dtype: np.dtype, config,
             reply_bytes: int) -> FlatTable | None:
        """A table of the given shapes at the start of the mapping, which
        the helper now takes as its model, with ``reply_bytes`` free from
        ``reply_at`` on. None if they do not fit in the mapping, and, with
        the helper stopped, if the helper is gone."""
        size = sum(math.prod(shape) for shape in shapes.values())
        reply_at = _padded(size * dtype.itemsize)
        if reply_at + reply_bytes > len(self.shared):
            return None
        self.shipped = None  # the caller writes the table over what was there
        if not self.send(("model", config, dtype.str, shapes, reply_at)):
            return None
        self.reply_at = reply_at
        return FlatTable(np.frombuffer(self.shared, dtype, size), shapes)

    def ship(self, params: ModelParams, config, reply_bytes: int) -> bool:
        """Make ``params`` the helper's model, with ``reply_bytes`` free for
        its reply, copying the tensors into the mapping unless they are
        there already. False if the helper is gone, if the tensors and the
        reply do not fit in the mapping, or if the tensors mix dtypes and so
        make no one flat table."""
        tensors = params.tensors
        if (self.shipped is not None and self.shipped[0]() is params and self.shipped[1] == config
                and len(self.shared) >= self.reply_at + reply_bytes):
            return True
        dtype = next(iter(tensors.values())).dtype
        if any(t.dtype != dtype for t in tensors.values()):
            return False
        table = self.load({k: t.shape for k, t in tensors.items()}, dtype, config, reply_bytes)
        if table is None:
            return False
        for name, t in table.items():
            t[...] = tensors[name]
        self.shipped = (weakref.ref(params), config)
        return True

    def done(self) -> bool:
        """Wait for the answer to the last request: True once its reply is
        in the mapping, False, with the helper stopped, if the helper
        failed."""
        try:
            self.conn.recv_bytes()
            return True
        except (EOFError, OSError):
            self.stop()
            return False

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
    usable CPUs, without ``os.memfd_create``, or once the helper has
    failed. Call with _helper_lock held."""
    global _helper
    # sched_getaffinity and memfd_create are Linux-only; without them
    # everything stays on one core
    if (not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
            or not hasattr(os, "memfd_create")):
        return None
    if _helper is None or _helper.owner != os.getpid():
        if _helper is not None and _helper.alive:
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
        n = sum(len(ids) - b for ids, b in windows[cut:])
        sent = helper.ship(params, config, 8 * n) and helper.send(("score", windows[cut:]))
        try:
            first = _score(params, config, windows[:cut], encode, classify)
        finally:
            # read the reply even if this share raised, so none is left queued
            done = sent and helper.done()
        if done:
            return np.concatenate([first, np.frombuffer(helper.shared, np.float64, n,
                                                        helper.reply_at)])
    finally:
        _helper_lock.release()
    return np.concatenate([first, _score(params, config, windows[cut:], encode, classify)])


class TrainingRun:
    """One training run's tables, and the helper that works on the second
    share of each of its batches.

    ``params`` is a FlatTable of the given shapes, whose embeddings come
    first; ``grads`` is a zero FlatTable of the same layout. With a usable
    helper, the parameters sit at the start of the shared mapping, and the
    run holds the helper from ``__enter__`` to ``__exit__``; otherwise
    they are private and this process computes both shares of every
    batch. The caller fills the parameters in before the first batch.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], dtype, config, longest: int,
                 batch_size: int):
        self.config = config
        self.helper = None
        size = sum(math.prod(shape) for shape in shapes.values())
        self.grads = FlatTable(np.zeros(size, dtype), shapes)
        table = None
        if batch_size > 1 and _helper_lock.acquire(blocking=False):
            # a batch's reply: its second share's table, then the losses and
            # probabilities of at most batch_size - 1 windows of the longest
            reply = _padded(self.grads.flat.nbytes) + 8 * (batch_size - 1) * (1 + 2 * longest)
            try:
                helper = _usable_helper()
                table = helper.load(shapes, dtype, config, reply) if helper else None
            finally:
                if table is None:
                    _helper_lock.release()
        if table is None:
            self.params = ModelParams(FlatTable(np.empty(size, dtype), shapes))
            self.spare = zeros_like(self.grads)
        else:
            self.helper, self.params = helper, ModelParams(table)
            # where the second share's gradients are summed: the reply's table
            self.spare = FlatTable(np.frombuffer(helper.shared, dtype, size, helper.reply_at),
                                   shapes)

    def __enter__(self) -> TrainingRun:
        return self

    def __exit__(self, *exc) -> None:
        if self.helper is not None:
            self.helper = None
            _helper_lock.release()

    def gradients(self, batch, loss_variant: str, backward) -> list[tuple[float, np.ndarray]]:
        """Each example's loss and probabilities, in batch order, with the
        batch's gradient added into ``grads`` share by share, as the module
        says. The helper sums the second share where there is one; this
        process sums the rest through ``backward(params, config, example,
        loss_variant, table)``."""

        def serial(examples, table):
            out = []
            for ex in examples:
                loss, _, probs = backward(self.params, self.config, ex, loss_variant, table)
                out.append((loss, probs))
            return out

        if len(batch) < 2:
            return serial(batch, self.grads)
        cut = _halfway([len(ex.token_ids) for ex in batch])
        helper, second = self.helper, batch[cut:]
        sent = helper is not None and helper.send(("grads", second, loss_variant))
        try:
            out = serial(batch[:cut], self.grads)
            done = sent and helper.done()
        except BaseException:
            if sent:
                # a reply left unread would be taken for the next batch's:
                # the helper is not used again
                helper.stop()
            raise
        if done:
            _, losses, probs = _gradient_reply(helper.shared, helper.reply_at, self.grads, second)
            # copied: the next batch's reply is written over them
            out += [(float(loss), p.copy()) for loss, p in zip(losses, probs)]
        else:
            self.spare.flat.fill(0)
            out += serial(second, self.spare)
        self.grads.flat += self.spare.flat
        return out
