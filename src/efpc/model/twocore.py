"""A second core: the helper process that works on the second share of
scoring and training calls.

One routine, ``_split``, serves both kinds of call. It cuts two or more
windows into two contiguous shares of about equal token counts; a helper
process works on the second share while this process works on the first,
both through ``_share``, and the results are joined in order:

- scoring joins the probabilities in window order, the same bits the
  serial loop gives;
- training sums each share's gradients into a table of its own, in
  example order, and adds the second table into the first once.

Without the helper, this process works on both shares, so one core and
two give the same bits. The two kinds of call differ only in what the
helper's reply holds. If this process's share raises, the helper's reply
is read, so none is left queued, and the helper is kept. This process's
share goes through the functions the caller passes in; the helper calls
``network``'s own.

One helper serves the process. It is forked on the first such call and
is stopped when the process exits; it exits by itself when this process
dies. Just before the fork the process maps one memory file, which the
helper inherits and which is never replaced: the model the helper works
with sits at its start, as one flat table (see ``_table``), and the helper
writes each reply right after it (see ``_reply``). Each request names its
model, so the helper keeps nothing between requests. Scoring copies a
model in only when the mapping does not hold it already, and makes the
model read-only, so that the copy stays the model's; a ``TrainingRun``
keeps the run's parameters there, so the helper reads the parameters Adam
updated in place. A call whose reply does not fit after the model runs on
one core and keeps the helper.

With one window or example, fewer than two usable CPUs, BLAS on more than
one thread (see ``efpc``), or no ``os.memfd_create``, nothing is forked.
If the mapping cannot be made, or the helper cannot be forked, dies or
fails, this process does that share itself and stays serial from then on,
as it does after an interrupt while it waits for the helper.
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

from .. import _blas_pinned
from . import network
from .losses import PRESERVE_COL
from .params import FlatTable, ModelParams, zeros_like
from .tokenizer import TokenizedExample

# the size of the mapping each process shares with its helper, made once and
# never grown: a memory file's untouched pages take no memory and no commit
# charge, and 64 GiB is an eighth of the smallest 64-bit Linux address space.
# Where address space is scarce, in a 32-bit process or under a soft RLIMIT_AS
# (ulimit -v), which counts the whole mapping, it is 64 MiB: sixteen times
# what the default model (3.75 MB) and its replies need
_RESERVE, _SCARCE_RESERVE = 64 << 30, 64 << 20


def _share(params: ModelParams, config, windows: list[TokenizedExample],
           loss_variant: str | None, table: FlatTable | None,
           ops: tuple) -> tuple[list[float], np.ndarray]:
    """Each window's loss and the preserve probabilities of the windows'
    original words, window after window, through ``ops``, the ``encode``,
    ``classify`` and ``backward`` to call. With ``loss_variant`` None it
    scores, with no losses; otherwise it sums the gradients into ``table``."""
    encode, classify, backward = ops
    losses, preserve = [], []
    for w in windows:
        if loss_variant is None:
            probs = classify(params, encode(params, config, w.token_ids))
        else:
            loss, _, probs = backward(params, config, w, loss_variant, table)
            losses.append(loss)
        preserve.append(probs[w.boundary :, PRESERVE_COL])
    return losses, np.concatenate(preserve)


def _padded(nbytes: int) -> int:
    """``nbytes`` rounded up to a multiple of 64."""
    return -(-nbytes // 64) * 64


def _table(shared, dtype, shapes: dict[str, tuple[int, ...]]) -> FlatTable:
    """The table of the given dtype and shapes that starts ``shared``: the
    model both processes work with."""
    return FlatTable(np.frombuffer(shared, dtype, sum(math.prod(s) for s in shapes.values())),
                     shapes)


def _reply(shared, model: FlatTable, windows: list[TokenizedExample],
           training: bool) -> tuple | None:
    """``(grads, losses, preserve)``: views of the reply about ``windows``
    for ``model``, laid out as the table that starts ``shared``; None if it
    does not fit. The reply starts at the model's end, padded to 64 bytes.
    A training reply starts with a gradient table of the model's layout,
    padded the same way, then each window's loss; a scoring reply has
    neither. Both then hold the preserve probabilities of the windows'
    original words, in window order, float64 like the losses."""
    grads, at = None, _padded(model.flat.nbytes)
    n = len(windows) if training else 0
    size = n + sum(len(w.labels) for w in windows)
    if at * (1 + training) + 8 * size > len(shared):  # the gradient table takes ``at`` bytes
        return None
    if training:
        grads = FlatTable(np.frombuffer(shared, model.flat.dtype, model.flat.size, at),
                          model.shapes)
        at *= 2
    values = np.frombuffer(shared, np.float64, size, at)
    return grads, values[:n], values[n:]


def _serve(conn, parent_end, shared) -> None:
    """The helper's loop, over ``shared``, the mapping it inherited. Each
    request, ``((config, dtype, shapes), windows, loss_variant)``, names its
    model, the flat table at the mapping's start; it is scoring if
    ``loss_variant`` is None, else training. Its reply (see ``_reply``) is
    followed by an empty message. ``None`` or a closed pipe ends the
    loop, and so does any failure: the parent then computes the share
    itself and meets the same error there, if it is one."""
    parent_end.close()  # so the parent's exit closes the pipe and ends this loop
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    gc.freeze()  # collections leave the pages shared with the parent alone
    try:
        while (msg := conn.recv()) is not None:
            (config, dtype, shapes), windows, loss_variant = msg
            model = _table(shared, dtype, shapes)
            grads, losses, preserve = _reply(shared, model, windows, loss_variant is not None)
            if grads is not None:
                grads.flat.fill(0)
            # the package's own ops: a tracer installed in the parent before
            # the fork would only collect spans here that nobody reads; as in
            # training, a non-finite loss is the caller's to report
            quiet = None if loss_variant is None else "ignore"
            with np.errstate(over=quiet, invalid=quiet, divide=quiet):
                losses[...], preserve[...] = _share(
                    ModelParams(model), config, windows, loss_variant, grads,
                    (network.encode, network.classify, network.backward_detailed))
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
        # a weak reference to the params whose flat table starts the mapping,
        # and their dtype and shapes: None until a table is written there
        self.shipped: tuple[weakref.ref, tuple] | None = None
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

    def ship(self, params: ModelParams, config) -> tuple:
        """The layout that names ``params`` and ``config`` to the helper,
        with the flat table of ``params`` copied to the start of the
        mapping unless it is there already."""
        if self.shipped is None or self.shipped[0]() is not params:
            tensors = params.tensors
            _table(self.shared, tensors.flat.dtype, tensors.shapes).flat[...] = tensors.flat
            self.shipped = (weakref.ref(params), (tensors.flat.dtype.str, tensors.shapes))
        return (config, *self.shipped[1])

    def done(self) -> bool:
        """Wait for the answer to the last request: True once its reply is in
        the mapping, False if the helper failed. Failure and interruption
        stop the helper: a reply left unread would be read as the next one."""
        try:
            self.conn.recv_bytes()
            return True
        except (EOFError, OSError):
            self.stop()
            return False
        except BaseException:
            self.stop()
            raise

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
    usable CPUs, BLAS on more than one thread (see ``efpc``), no
    ``os.memfd_create``, or once the helper has failed. Call with
    _helper_lock held."""
    global _helper
    # sched_getaffinity and memfd_create are Linux-only; without them
    # everything stays on one core
    if (not _blas_pinned or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2 or not hasattr(os, "memfd_create")):
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


def _split(helper: _Helper | None, params: ModelParams, config,
           windows: list[TokenizedExample], loss_variant: str | None, grads: FlatTable | None,
           spare: FlatTable | None, ops: tuple) -> tuple[list[float], np.ndarray]:
    """``_share`` of ``windows``, cut at ``_halfway`` into two shares: the
    helper, if there is one and this call's reply fits the mapping, works
    on the second while this process works on the first; otherwise this
    process works on both. Training sums this process's share into
    ``grads`` and the second into ``spare``, the reply's gradient table,
    and adds ``spare`` into ``grads``; scoring passes None for both."""
    if len(windows) < 2:
        return _share(params, config, windows, loss_variant, grads, ops)
    cut = _halfway([len(w.token_ids) for w in windows])
    second = windows[cut:]
    reply = None
    if helper is not None and helper.alive:
        reply = _reply(helper.shared, params.tensors, second, loss_variant is not None)
    try:
        if sent := reply is not None:
            helper.conn.send((helper.ship(params, config), second, loss_variant))
    except OSError:  # the helper is gone
        sent = False
        helper.stop()
    try:
        losses, first = _share(params, config, windows[:cut], loss_variant, grads, ops)
    except BaseException:
        if sent:  # a reply left unread would be taken for the next call's
            helper.done()
        raise
    if sent and helper.done():
        _, more, rest = reply
        more = more.tolist()
    else:
        if spare is not None:
            spare.flat.fill(0)
        more, rest = _share(params, config, second, loss_variant, spare, ops)
    if spare is not None:
        grads.flat += spare.flat
    # a copy: the next call's reply is written over the helper's
    return losses + more, np.concatenate([first, rest])


def score_windows(params: ModelParams, config, windows: list[TokenizedExample], encode,
                  classify) -> np.ndarray:
    """Preserve probabilities of every window's original words,
    concatenated in window order; this process's share goes through
    ``encode`` and ``classify``. ``params`` are made read-only, so that a
    write cannot leave the helper's copy of them behind."""
    if (tensors := params.tensors).flat.flags.writeable:
        for t in (tensors.flat, *tensors.values()):
            t.flags.writeable = False
    # while another thread uses the helper, this call runs serially
    locked = len(windows) > 1 and _helper_lock.acquire(blocking=False)
    try:
        helper = _usable_helper() if locked else None
        return _split(helper, params, config, windows, None, None, None,
                      (encode, classify, None))[1]
    finally:
        if locked:
            _helper_lock.release()


class TrainingRun:
    """One training run's tables, and the helper that works on the second
    share of each of its batches.

    ``params`` holds a FlatTable of the given shapes, whose embeddings come
    first; ``grads`` is a zero FlatTable of the same layout. With a usable
    helper and batches of two or more windows, the parameters sit at the
    start of the shared mapping, and the run holds the helper from
    ``__enter__`` to ``__exit__``; otherwise they are private and this
    process computes both shares of every batch. The caller fills the
    parameters in before the first batch.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], dtype, config, batch_size: int):
        self.config = config
        self.helper = reply = None
        size = sum(math.prod(shape) for shape in shapes.values())
        self.grads = FlatTable(np.zeros(size, dtype), shapes)
        if batch_size > 1 and _helper_lock.acquire(blocking=False):
            try:
                helper = _usable_helper()
                # room for the parameters, then for the gradient table that starts each reply
                reply = helper and _reply(helper.shared, self.grads, [], True)
            finally:
                if reply is None:
                    _helper_lock.release()
        if reply is None:
            self.params = ModelParams(FlatTable(np.empty(size, dtype), shapes))
            self.spare = zeros_like(self.grads)
        else:
            # where the second share's gradients are summed: the reply's table
            self.helper, self.spare = helper, reply[0]
            self.params = ModelParams(_table(helper.shared, self.grads.flat.dtype, shapes))
            # the run writes its parameters over what was there
            helper.shipped = (weakref.ref(self.params), (self.grads.flat.dtype.str, shapes))

    def __enter__(self) -> TrainingRun:
        return self

    def __exit__(self, *exc) -> None:
        if self.helper is not None:
            self.helper = None
            _helper_lock.release()

    def gradients(self, batch: list[TokenizedExample], loss_variant: str,
                  backward) -> tuple[list[float], np.ndarray]:
        """Each window's loss and the preserve probabilities of the batch's
        original words, in batch order, with the batch's gradient added into
        ``grads`` share by share (see ``_split``); this process's share goes
        through ``backward(params, config, window, loss_variant, table)``."""
        return _split(self.helper, self.params, self.config, batch, loss_variant, self.grads,
                      self.spare, (None, None, backward))
