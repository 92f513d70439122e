"""A state machine over the two-core helper: any sequence of scoring,
training, shares that raise, a killed helper, interrupted waits and writes
into scored models gives the one-core bits, leaves the helper lock free,
and leaves at most one helper alive and none unreaped."""

import os
import signal
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, precondition, rule,
                                 run_state_machine_as_test)

from efpc.model import (ModelParams, classify, encode, prepare_examples, train, training,
                        twocore)

from helpers import fast_train_config, parity_examples, small_model, use_cpus

# windows of 5 to 16 tokens; the 20-word example makes two
DATA = parity_examples(3, 1, 3) + parity_examples(2, 2, 14) + parity_examples(1, 3, 20)
CONFIG = fast_train_config(epochs=1, batch_size=4)


def _model(dtype, num_layers: int):
    model = small_model(DATA, embed_dim=8, num_layers=num_layers, num_heads=2, ffn_dim=16)
    # spread-out weights, so predictions differ from word to word
    tensors = {k: (t if "_gamma" in k else t * 20).astype(dtype)
               for k, t in model.params.tensors.items()}
    return replace(model, params=ModelParams(tensors))


MODELS = [_model(np.float32, 2), _model(np.float64, 3)]
WINDOWS = [prepare_examples(model, DATA, "mask") for model in MODELS]


def _score(i: int, encode=encode) -> bytes:
    return twocore.score_windows(MODELS[i].params, MODELS[i].config, WINDOWS[i], encode,
                                 classify).tobytes()


def _train(i: int) -> tuple:
    trained, report = train(MODELS[i], DATA, CONFIG)
    return report, trained.params.tensors.flat.tobytes()


def _fail(*args):
    raise RuntimeError("this process's share failed")


class TwoCores(RuleBasedStateMachine):
    """Each rule checks its result against the one-core bits in ``want``."""

    want: dict = {}

    def __init__(self):
        super().__init__()
        twocore._helper = None  # each run of the machine forks its own helper
        self.helpers: list = []
        self.killed = None  # the pid of a helper killed and not yet found dead

    def _kept(self) -> bool:
        """Whether the next call must find the helper alive afterwards: no
        helper yet, or a live one that was not killed."""
        helper = twocore._helper
        return helper is None or (helper.alive and helper.pid != self.killed)

    @rule(i=st.integers(0, 1))
    def score(self, i):
        assert _score(i) == self.want["score", i]

    @rule(i=st.integers(0, 1))
    def train(self, i):
        assert _train(i) == self.want["train", i]

    @rule(i=st.integers(0, 1), kind=st.sampled_from(["score", "train"]))
    def raise_in_own_share(self, i, kind):
        kept = self._kept()
        with mock.patch.object(training, "backward_detailed", _fail), \
                pytest.raises(RuntimeError, match="share failed"):
            _score(i, _fail) if kind == "score" else _train(i)
        if kept:  # the reply was read, and the helper stays for the next call
            assert twocore._helper.alive and not twocore._helper.conn.poll()

    @precondition(lambda self: twocore._helper is not None and twocore._helper.alive)
    @rule()
    def kill_the_helper(self):
        os.kill(twocore._helper.pid, signal.SIGKILL)
        self.killed = twocore._helper.pid

    @precondition(lambda self: twocore._helper is not None and twocore._helper.alive)
    @rule(i=st.integers(0, 1), kind=st.sampled_from(["score", "train"]))
    def interrupt_a_wait(self, i, kind):
        helper = twocore._helper
        alive = helper.pid != self.killed
        with mock.patch.object(helper.conn, "recv_bytes", side_effect=KeyboardInterrupt):
            try:
                got = _score(i) if kind == "score" else _train(i)
            except KeyboardInterrupt:
                # the unread reply would be taken for the next call's
                assert not helper.alive
            else:  # the killed helper's pipe was found closed before the wait
                assert not alive and got == self.want[kind, i]

    @rule(i=st.integers(0, 1))
    def write_into_a_scored_model(self, i):
        tensors = MODELS[i].params.tensors
        with pytest.raises(ValueError, match="read-only"):
            tensors["cls_b"] = np.ones_like(tensors["cls_b"])

    @precondition(lambda self: twocore._helper is not None and not twocore._helper.alive)
    @rule()
    def fork_a_new_helper_next(self):
        twocore._helper = None

    @invariant()
    def lock_free_and_every_stopped_helper_reaped(self):
        assert not twocore._helper_lock.locked()
        if twocore._helper is not None and twocore._helper not in self.helpers:
            self.helpers.append(twocore._helper)
        assert sum(helper.alive for helper in self.helpers) <= 1
        for helper in self.helpers:
            if not helper.alive:
                with pytest.raises(ChildProcessError):
                    os.waitpid(helper.pid, os.WNOHANG)
                if helper.pid == self.killed:
                    self.killed = None

    def teardown(self):
        if twocore._helper is not None:
            twocore._helper.stop()


def test_any_sequence_of_calls_and_failures_keeps_the_one_core_bits(monkeypatch):
    use_cpus(monkeypatch, 1)
    TwoCores.want = {(kind, i): (_score(i) if kind == "score" else _train(i))
                     for kind in ("score", "train") for i in (0, 1)}
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(twocore, "_helper", None)
    run_state_machine_as_test(TwoCores, settings=settings(max_examples=20,
                                                          stateful_step_count=10,
                                                          deadline=None))
