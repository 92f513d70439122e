"""Training and held-out scoring on two cores give the bits of one core,
on any mix of windows, and the helper's failures leave them so."""

import errno
import mmap
import os
import random
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efpc import compressor
from efpc.align import LabeledExample
from efpc.compressor import CompressionRequest, compress, score_words
from efpc.errors import NumericalDivergence
from efpc.model import (SEP_ID, ModelParams, TokenizedExample, backward_detailed, classify, encode,
                        prepare_examples, token_accuracy, train, training, twocore)
from efpc.model.losses import PRESERVE_COL

from helpers import fast_train_config, parity_examples, small_model, use_cpus


def _uneven_data() -> list[LabeledExample]:
    """Windows of 5 to 16 tokens, so shares of equal token counts hold
    unequal numbers of examples; the 20-word examples make two windows."""
    return (parity_examples(5, 1, 3) + parity_examples(4, 2, 14) + parity_examples(3, 3, 7)
            + parity_examples(2, 4, 20))


def _model(data, dtype=np.float32, num_layers=2):
    model = small_model(data, embed_dim=16, num_layers=num_layers, num_heads=2, ffn_dim=32)
    # spread-out weights, so predictions differ from word to word
    tensors = {k: (t if "_gamma" in k else t * 20).astype(dtype)
               for k, t in model.params.tensors.items()}
    return replace(model, params=ModelParams(tensors))


def _counted(monkeypatch, name: str, module=training) -> list:
    """Count the calls of ``module.<name>``, which this process makes."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _assert_same_bits(got, want):
    assert list(got.params.tensors) == list(want.params.tensors)
    for name, tensor in want.params.tensors.items():
        assert got.params[name].dtype == tensor.dtype, name
        assert got.params[name].tobytes() == tensor.tobytes(), name


def _batches(model, data, config) -> list[list]:
    """The windows of every batch of a run, in the order train() takes them."""
    examples = prepare_examples(model, data, config.loss_variant)
    rng = random.Random(config.seed)
    batches = []
    for _ in range(config.epochs):
        order = list(range(len(examples)))
        rng.shuffle(order)
        batches += [[examples[i] for i in order[lo : lo + config.batch_size]]
                    for lo in range(0, len(order), config.batch_size)]
    return batches


def _own_share(batch) -> int:
    """How many of a batch's windows this process computes."""
    return twocore._halfway([len(ex.token_ids) for ex in batch]) if len(batch) > 1 else 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch_size", [2, 3, 4])
def test_training_with_the_helper_keeps_the_serial_bits(monkeypatch, batch_size, dtype):
    data = _uneven_data()
    model = _model(data, dtype)
    config = fast_train_config(epochs=3, batch_size=batch_size)
    use_cpus(monkeypatch, 1)
    want, want_report = train(model, data, config)
    use_cpus(monkeypatch, 2)
    calls = _counted(monkeypatch, "backward_detailed")
    got, report = train(model, data, config)
    assert report == want_report
    _assert_same_bits(got, want)
    # the helper computed the second share of every batch
    assert len(calls) == sum(map(_own_share, _batches(model, data, config)))


def test_a_batch_size_above_the_data_trains_as_one_batch_of_every_window(monkeypatch):
    data = _uneven_data()
    model = _model(data)
    config = fast_train_config(epochs=2, batch_size=10**12)
    windows = len(prepare_examples(model, data, config.loss_variant))
    use_cpus(monkeypatch, 1)
    want, want_report = train(model, data, replace(config, batch_size=windows))
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(twocore, "_helper", None)  # this test's own helper
    calls = _counted(monkeypatch, "backward_detailed")
    try:
        got, report = train(model, data, config)
        assert report == want_report
        _assert_same_bits(got, want)
        # the helper's reply was sized for the data, not for the batch size
        assert len(calls) == sum(map(_own_share, _batches(model, data, config)))
        assert twocore._helper.alive
    finally:
        twocore._helper.stop()


def test_token_accuracy_on_two_cores_gives_the_serial_figures(monkeypatch):
    # the last example is all instruction: it has no window and scores 0.0
    data = _uneven_data() + [LabeledExample(words=("alpha",), labels=(0,), boundary_m=1)]
    model = _model(data)
    use_cpus(monkeypatch, 1)
    want = token_accuracy(model, data)
    use_cpus(monkeypatch, 2)
    calls = _counted(monkeypatch, "encode")
    got = token_accuracy(model, data)
    assert got == want
    assert want[1][-1] == 0.0 and 0.0 < want[0] < 1.0
    assert token_accuracy(model, data[-1:]) == (0.0, [0.0])
    # this process scored its share through training.encode, the helper the rest
    assert 0 < len(calls) < len(prepare_examples(model, data, "mask"))


def test_a_non_finite_loss_in_the_helpers_share_stops_training_as_serially(monkeypatch, capfd):
    config = fast_train_config(epochs=1, batch_size=4)
    data = parity_examples(4, 5)
    # every window has 12 tokens, so the helper takes the last two of the batch
    order = list(range(4))
    random.Random(config.seed).shuffle(order)
    last = data[order[-1]]
    data[order[-1]] = replace(last, words=("poison", *last.words[1:]))
    model = _model(data)
    emb = model.params["token_emb"].copy()
    emb[model.vocab.encode_word("poison")] = np.nan
    model = replace(model, params=ModelParams({**model.params.tensors, "token_emb": emb}))
    messages = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        calls = _counted(monkeypatch, "backward_detailed")
        with pytest.raises(NumericalDivergence) as err:
            train(model, data, config)
        messages.append(str(err.value))
    assert len(calls) == 2  # the poisoned example was the helper's
    assert messages == ["epoch 0 batch 0: loss is nan"] * 2
    assert twocore._helper.alive
    # the helper's arithmetic on NaN warned nowhere either
    assert capfd.readouterr().err == ""


def test_a_helper_killed_between_batches_leaves_the_bits_and_no_zombie(monkeypatch):
    data = _uneven_data()
    model = _model(data)
    config = fast_train_config(epochs=2, batch_size=3)
    use_cpus(monkeypatch, 1)
    want, want_report = train(model, data, config)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(twocore, "_helper", None)  # this test's own helper
    killed = []
    step = training.adam_step

    def step_then_kill(*args):
        step(*args)
        if not killed:
            killed.append(twocore._helper.pid)
            os.kill(killed[0], signal.SIGKILL)

    monkeypatch.setattr(training, "adam_step", step_then_kill)
    calls = _counted(monkeypatch, "backward_detailed")
    got, report = train(model, data, config)
    assert report == want_report
    _assert_same_bits(got, want)
    # no second helper was forked, and the run went on serially
    assert twocore._helper.pid == killed[0] and not twocore._helper.alive
    first, *rest = _batches(model, data, config)
    assert len(calls) == _own_share(first) + sum(map(len, rest))
    with pytest.raises(ChildProcessError):  # reaped: not left a zombie
        os.waitpid(killed[0], os.WNOHANG)


def test_a_share_that_raises_keeps_the_helper_and_leaves_no_reply_queued(monkeypatch):
    # as in scoring, the helper's reply to the failed batch is read, so the
    # helper can take the next run's second shares
    data = _uneven_data()
    model = _model(data)
    config = fast_train_config(epochs=1, batch_size=4)
    use_cpus(monkeypatch, 1)
    want, want_report = train(model, data, config)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(twocore, "_helper", None)  # this test's own helper
    original = training.backward_detailed

    def failing(*args):
        raise RuntimeError("this process's share failed")

    try:
        monkeypatch.setattr(training, "backward_detailed", failing)
        with pytest.raises(RuntimeError, match="share failed"):
            train(model, data, config)
        helper = twocore._helper
        assert helper.alive and not helper.conn.poll()
        assert not twocore._helper_lock.locked()
        monkeypatch.setattr(training, "backward_detailed", original)
        calls = _counted(monkeypatch, "backward_detailed")
        got, report = train(model, data, config)
        assert report == want_report
        _assert_same_bits(got, want)
        assert len(calls) == sum(map(_own_share, _batches(model, data, config)))
        assert twocore._helper is helper and helper.alive
    finally:
        twocore._helper.stop()


def test_one_usable_cpu_trains_and_scores_without_a_process(monkeypatch):
    def no_fork():
        raise AssertionError("a process was started")

    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(twocore, "_helper", None)
    monkeypatch.setattr(os, "fork", no_fork)
    data = _uneven_data()
    model = _model(data)
    trained, _ = train(model, data, fast_train_config(epochs=1, batch_size=4))
    token_accuracy(trained, data)
    assert twocore._helper is None


@pytest.mark.parametrize("one_window", ["batch_size=1", "one example"])
def test_one_window_batches_fork_nothing_and_leave_the_helpers_model(monkeypatch, one_window):
    data = _uneven_data()
    model = _model(data)
    config = fast_train_config(epochs=2, batch_size=4)
    if one_window == "batch_size=1":
        config = replace(config, batch_size=1)
    else:
        data = data[:1]
    assert max(map(len, _batches(model, data, config))) == 1
    use_cpus(monkeypatch, 1)
    want, want_report = train(model, data, config)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(twocore, "_helper", None)  # this test's own helper
    with monkeypatch.context() as patched:
        patched.setattr(os, "fork", lambda: pytest.fail("a process was started"))
        got, report = train(model, data, config)
    assert report == want_report and twocore._helper is None
    _assert_same_bits(got, want)
    scored = _model(_uneven_data())
    try:
        token_accuracy(scored, _uneven_data())  # the helper now holds this model
        helper = twocore._helper
        got, report = train(model, data, config)
        assert report == want_report
        _assert_same_bits(got, want)
        assert twocore._helper is helper and helper.alive
        assert helper.shipped[0]() is scored.params
    finally:
        twocore._helper.stop()


def _one_cpu_calls(model, data, config):
    """``compress`` of a many-window document, ``token_accuracy`` and
    ``train``: each of them a call that the helper shares on two CPUs."""
    text = " ".join(w for ex in data for w in ex.words[1:])
    compressed = compress(model, CompressionRequest(text, "alpha", keep_ratio=0.5))
    return compressed, token_accuracy(model, data), train(model, data, config)


def _assert_same_calls(got, want):
    assert got[:2] == want[:2]
    assert got[2][1] == want[2][1]
    _assert_same_bits(got[2][0], want[2][0])


def _refusal(code: int) -> OSError:
    return OSError(code, os.strerror(code))


@pytest.mark.parametrize("module, name, error", [
    (os, "fork", _refusal(errno.EAGAIN)), (os, "ftruncate", _refusal(errno.ENOMEM)),
    (mmap, "mmap", _refusal(errno.ENOMEM)),
    # a length past a 32-bit process's sizes
    (mmap, "mmap", OverflowError("Python int too large to convert to C ssize_t")),
], ids=["fork", "ftruncate", "mmap", "mmap-overflow"])
def test_a_failed_fork_leaves_every_call_on_one_core_and_the_lock_free(monkeypatch, module, name,
                                                                      error):
    attempts = []

    def refused(*args):
        attempts.append(1)
        raise error

    data = _uneven_data()
    model = _model(data)
    config = fast_train_config(epochs=2, batch_size=3)
    use_cpus(monkeypatch, 1)
    want = _one_cpu_calls(model, data, config)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(twocore, "_helper", None)
    fds = _memfd_descriptors()
    monkeypatch.setattr(module, name, refused)
    _assert_same_calls(_one_cpu_calls(model, data, config), want)
    # one attempt: like a helper that failed, it leaves the process on one
    # core, and the memory file made for it is closed
    assert len(attempts) == 1 and not twocore._helper.alive
    assert _memfd_descriptors() <= fds
    assert twocore._helper_lock.acquire(blocking=False)
    twocore._helper_lock.release()


def _memfd_descriptors() -> set[str]:
    """This process's open descriptors of memory files; a mapping object
    holds one while it lives."""
    fds = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{fd}").startswith("/memfd:"):
                fds.add(fd)
        except FileNotFoundError:  # the descriptor listdir itself used
            pass
    return fds


def _training_mappings() -> set[str]:
    """The address ranges of this process's training mappings."""
    with open("/proc/self/maps") as fh:
        return {line.split()[0] for line in fh if "memfd:efpc-train" in line}


def _growing_datasets() -> list[list[LabeledExample]]:
    """Five datasets with ever longer windows, so each run needs more room."""
    return [parity_examples(6, seed, n_words) for seed, n_words in enumerate((4, 6, 9, 12, 14))]


def test_runs_in_one_process_share_one_mapping_and_no_descriptor(monkeypatch):
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(twocore, "_helper", None)  # this test's own helper
    # the helper other tests share may hold a mapping of its own
    before, fds = _training_mappings(), _memfd_descriptors()
    made = _counted(monkeypatch, "memfd_create", os)
    try:
        mapped = []
        for data in _growing_datasets():
            train(_model(data), data, fast_train_config(epochs=1, batch_size=4))
            assert len(_memfd_descriptors() - fds) <= 1
            mapped.append(_training_mappings() - before)
        token_accuracy(_model(data), data)
        mapped.append(_training_mappings() - before)
        # one mapping, made before the fork, at the same addresses throughout
        assert len(made) == 1 and len(mapped[0]) == 1
        assert all(m == mapped[0] for m in mapped)
        assert twocore._helper.alive
    finally:
        twocore._helper.stop()


def test_a_stopped_helper_leaves_no_descriptor_mapping_or_process(monkeypatch):
    data = _uneven_data()
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(twocore, "_helper", None)  # this test's own helper
    # the helper other tests share may hold a mapping of its own
    before, fds = _training_mappings(), _memfd_descriptors()
    train(_model(data), data, fast_train_config(epochs=1, batch_size=4))
    helper = twocore._helper
    assert _training_mappings() - before
    helper.stop()
    assert _memfd_descriptors() <= fds
    assert _training_mappings() <= before
    with pytest.raises(ChildProcessError):  # reaped: not left a zombie
        os.waitpid(helper.pid, os.WNOHANG)


def test_a_forked_child_that_trains_leaves_the_parents_runs_at_the_serial_bits(monkeypatch):
    data = _uneven_data()
    model = _model(data)
    config = fast_train_config(epochs=2, batch_size=4)
    use_cpus(monkeypatch, 1)
    want, want_report = train(model, data, config)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(twocore, "_helper", None)  # this test's own helper
    train(model, data, config)  # the parent's helper and mapping now exist
    other = parity_examples(8, 9, 14)
    pid = os.fork()
    if pid == 0:  # the child trains another model while the parent trains
        code = 1
        try:
            for _ in range(3):
                train(_model(other), other, config)
            twocore._helper.stop()
            code = 0
        finally:
            os._exit(code)
    try:
        during = train(model, data, config)
    finally:
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    after = train(model, data, config)
    try:
        for got, report in (during, after):
            assert report == want_report
            _assert_same_bits(got, want)
        assert twocore._helper.alive and twocore._helper.owner == os.getpid()
    finally:
        twocore._helper.stop()


def test_without_memfd_create_scoring_and_training_fork_and_map_nothing(monkeypatch):
    def refused(*args):
        raise AssertionError("a process was started or memory mapped")

    data = _uneven_data()
    model = _model(data)
    config = fast_train_config(epochs=2, batch_size=3)
    use_cpus(monkeypatch, 1)
    want = _one_cpu_calls(model, data, config)
    use_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "memfd_create")
    monkeypatch.setattr(twocore, "_helper", None)
    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(mmap, "mmap", refused)
    _assert_same_calls(_one_cpu_calls(model, data, config), want)
    assert twocore._helper is None


def test_a_training_run_between_two_scorings_leaves_the_scored_model(monkeypatch):
    # the run writes its parameters over the scored model in the mapping
    data, other = _uneven_data(), parity_examples(8, 9, 14)
    model = _model(data)
    use_cpus(monkeypatch, 1)
    want = token_accuracy(model, data)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(twocore, "_helper", None)  # this test's own helper
    try:
        assert token_accuracy(model, data) == want
        assert twocore._helper.shipped[0]() is model.params
        train(_model(other), other, fast_train_config(epochs=1, batch_size=4))
        calls = _counted(monkeypatch, "encode")
        assert token_accuracy(model, data) == want
        # the helper scored the second share, with this model copied in again
        assert twocore._helper.alive and twocore._helper.shipped[0]() is model.params
        assert 0 < len(calls) < len(prepare_examples(model, data, "mask"))
    finally:
        twocore._helper.stop()


def test_each_request_names_its_model_across_dtypes_layer_counts_and_a_training_run(monkeypatch):
    data, other = _uneven_data(), parity_examples(8, 9, 14)
    models = (_model(data), _model(data, np.float64, num_layers=3))
    words = [w for ex in data for w in ex.words[1:]]
    use_cpus(monkeypatch, 1)
    want = []
    for model in models:
        calls = _counted(monkeypatch, "encode", compressor)
        want.append((score_words(model, "alpha", words).tobytes(), len(calls)))
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(twocore, "_helper", None)  # this test's own helper
    try:
        for i in range(5):  # one model, the other, and again after a training run
            if i == 2:
                train(_model(other), other, fast_train_config(epochs=1, batch_size=4))
            calls = _counted(monkeypatch, "encode", compressor)
            bits, one_cpu_calls = want[i % 2]
            assert score_words(models[i % 2], "alpha", words).tobytes() == bits
            # the helper scored the second share
            assert 0 < len(calls) < one_cpu_calls
        assert twocore._helper.alive
    finally:
        twocore._helper.stop()


@pytest.mark.parametrize("holder", ["another call", "a training run"])
def test_a_call_while_the_helper_is_held_scores_every_window_here(monkeypatch, holder):
    data = _uneven_data()
    model = _model(data)
    words = [w for ex in data for w in ex.words[1:]]
    use_cpus(monkeypatch, 1)
    calls = _counted(monkeypatch, "encode", compressor)
    want = score_words(model, "alpha", words).tobytes()
    one_cpu_calls = len(calls)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(twocore, "_helper", None)  # this test's own helper
    try:
        assert score_words(model, "alpha", words).tobytes() == want  # the helper now exists
        sent, send = [], twocore._helper.conn.send

        def recorded(msg):
            sent.append(msg)
            send(msg)

        monkeypatch.setattr(twocore._helper.conn, "send", recorded)
        tensors = model.params.tensors
        held = (twocore._helper_lock if holder == "another call" else
                twocore.TrainingRun(tensors.shapes, tensors.flat.dtype, model.config, 4))
        calls = _counted(monkeypatch, "encode", compressor)
        with held:
            assert twocore._helper_lock.locked()
            assert score_words(model, "alpha", words).tobytes() == want
        assert len(calls) == one_cpu_calls and not sent
        # once free again, the helper takes the next call's second share
        calls = _counted(monkeypatch, "encode", compressor)
        assert score_words(model, "alpha", words).tobytes() == want
        assert 0 < len(calls) < one_cpu_calls and len(sent) == 1
    finally:
        twocore._helper.stop()


@st.composite
def _window(draw, vocab_size: int, max_len: int) -> TokenizedExample:
    """A window of 1 to ``max_len`` tokens, with boundary 0 or an
    instruction prefix that ends in the separator."""
    length = draw(st.integers(1, max_len))
    boundary = draw(st.sampled_from([0, *range(2, length)]))
    ids = draw(st.lists(st.integers(SEP_ID + 1, vocab_size - 1), min_size=length,
                        max_size=length))
    if boundary:
        ids[boundary - 1] = SEP_ID
    labels = draw(st.lists(st.integers(0, 1), min_size=length - boundary,
                           max_size=length - boundary))
    return TokenizedExample(tuple(ids), tuple(labels), boundary)


def _counting(fn, calls: list):
    def counted(*args):
        calls.append(1)
        return fn(*args)

    return counted


def test_scoring_and_a_batch_on_two_cores_give_the_one_cpu_bits_for_any_mix_of_windows(
        monkeypatch):
    data = _uneven_data()
    models = [_model(data, dtype, num_layers=1) for dtype in (np.float32, np.float64)]

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(models), st.sampled_from(["mask", "drop"]), st.data())
    def check(model, loss_variant, drawn):
        config, tensors = model.config, model.params.tensors
        windows = drawn.draw(st.lists(_window(config.vocab_size, config.max_seq_len),
                                      min_size=1, max_size=10))
        got = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            calls = []
            preserve = twocore.score_windows(model.params, config, windows,
                                             _counting(encode, calls), classify)
            with twocore.TrainingRun(tensors.shapes, tensors.flat.dtype, config,
                                     len(windows)) as run:
                run.params.tensors.flat[...] = tensors.flat
                losses, probs = run.gradients(windows, loss_variant,
                                              _counting(backward_detailed, calls))
                got.append((preserve.tobytes(), np.array(losses).tobytes(), probs.tobytes(),
                            run.grads.flat.tobytes()))
            # on two CPUs, the helper took the second share of both calls
            own = (twocore._halfway([len(w.token_ids) for w in windows])
                   if cpus > 1 and len(windows) > 1 else len(windows))
            assert len(calls) == 2 * own
        assert got[0] == got[1]
        serial = [classify(model.params, encode(model.params, config, w.token_ids))
                  [w.boundary :, PRESERVE_COL] for w in windows]
        assert got[0][0] == np.concatenate(serial).tobytes()

    monkeypatch.setattr(twocore, "_helper", None)  # this test's own helper
    try:
        check()
    finally:
        twocore._helper.stop()


def test_an_interrupt_while_waiting_for_the_helper_stops_it_and_later_calls_keep_the_bits(
        monkeypatch):
    # the interrupted call's reply is never read, so the helper cannot be
    # asked again: a later call would take that reply for its own
    data = _uneven_data()
    model = _model(data)
    words = [w for ex in data for w in ex.words[1:]]
    originals = (words, words[:60], words[:30])
    use_cpus(monkeypatch, 1)
    want = [score_words(model, "alpha", original).tobytes() for original in originals]
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(twocore, "_helper", None)  # this test's own helper
    try:
        assert score_words(model, "alpha", originals[0]).tobytes() == want[0]
        helper = twocore._helper
        wait = helper.conn.recv_bytes
        interrupted = []

        def interrupt_once():
            if not interrupted:
                interrupted.append(1)
                raise KeyboardInterrupt
            return wait()

        monkeypatch.setattr(helper.conn, "recv_bytes", interrupt_once)
        with pytest.raises(KeyboardInterrupt):
            score_words(model, "alpha", originals[0])
        for original, bits in zip(originals[1:], want[1:]):
            assert score_words(model, "alpha", original).tobytes() == bits
        assert not helper.alive and twocore._helper is helper
        with pytest.raises(ChildProcessError):  # reaped: not left a zombie
            os.waitpid(helper.pid, os.WNOHANG)
    finally:
        twocore._helper.stop()


def test_a_call_that_does_not_fit_the_mapping_runs_on_one_core_and_keeps_the_helper(monkeypatch):
    data = _uneven_data()
    model = _model(data)
    config = fast_train_config(epochs=2, batch_size=3)
    words = [w for ex in data for w in ex.words[1:]]
    long, short = words * 8, words[:30]  # over 100 windows, then 3
    one_cpu = []
    use_cpus(monkeypatch, 1)
    for original in (long, short):
        calls = _counted(monkeypatch, "encode", compressor)
        one_cpu.append((score_words(model, "alpha", original), len(calls)))
    want, want_report = train(model, data, config)
    use_cpus(monkeypatch, 2)
    # room for the model and the short call's reply: not for the long call's
    # reply, nor for a training run's parameters and gradients
    model_bytes = sum(t.nbytes for t in model.params.tensors.values())
    room = twocore._padded(model_bytes) + 8 * len(short)
    monkeypatch.setattr(twocore, "_RESERVE", room)
    monkeypatch.setattr(twocore, "_SCARCE_RESERVE", room)
    monkeypatch.setattr(twocore, "_helper", None)  # this test's own helper
    try:
        calls = _counted(monkeypatch, "encode", compressor)
        assert score_words(model, "alpha", long).tobytes() == one_cpu[0][0].tobytes()
        assert len(calls) == one_cpu[0][1] and twocore._helper.alive
        calls = _counted(monkeypatch, "backward_detailed")
        got, report = train(model, data, config)
        assert report == want_report
        _assert_same_bits(got, want)
        assert len(calls) == sum(map(len, _batches(model, data, config)))
        assert twocore._helper.alive
        # the next call that fits goes to the helper
        calls = _counted(monkeypatch, "encode", compressor)
        assert score_words(model, "alpha", short).tobytes() == one_cpu[1][0].tobytes()
        assert 0 < len(calls) < one_cpu[1][1]
        assert twocore._helper.alive and twocore._helper.shipped[0]() is model.params
    finally:
        twocore._helper.stop()


_ONE_CPU = """
import os, sys
import efpc
from efpc.model import train
from helpers import fast_train_config, parity_examples, small_model

assert "mmap" not in sys.modules, "import efpc loaded mmap"
os.sched_getaffinity = lambda pid: {0}
data = parity_examples(8, 1)
train(small_model(data), data, fast_train_config(epochs=1, batch_size=4))
assert "mmap" not in sys.modules, "one-CPU training loaded mmap"
with open("/proc/self/maps") as fh:
    assert "memfd:" not in fh.read(), "one-CPU training mapped memory"
"""


_UNDER_A_LIMIT = """
import mmap, os, resource
from efpc.model import train, twocore
from helpers import fast_train_config, parity_examples, small_model


def address_space() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) << 10 for line in fh if line.startswith("VmSize:"))


# this process only, as under ulimit -v 8388608 or ulimit -f 1048576
resource.setrlimit(resource.{kind}, ({size}, resource.getrlimit(resource.{kind})[1]))
os.sched_getaffinity = lambda pid: {{0, 1}}
data = parity_examples(8, 1)
room = {size} - address_space() - (256 << 20)
train(small_model(data), data, fast_train_config(epochs=1, batch_size=4))
assert twocore._helper.alive, "the helper is gone under a soft {kind} of {size}"
if resource.{kind} == resource.RLIMIT_AS:
    # the program keeps its room: all but 256 MiB of the address space left
    # before training can still be mapped, here on a memory file that takes
    # no memory
    fd = os.memfd_create("room")
    os.ftruncate(fd, room)
    mmap.mmap(fd, room)
"""


_NUMPY_FIRST = """
import os
{blas}
import numpy
from efpc.compressor import CompressionRequest, compress
from efpc.model import train
from helpers import fast_train_config, parity_examples, small_model

data = parity_examples(8, 1, 20)
model = small_model(data)
request = CompressionRequest(" ".join(w for ex in data for w in ex.words[1:]), "alpha",
                             keep_ratio=0.5)


def calls():
    trained, report = train(model, data, fast_train_config(epochs=1, batch_size=4))
    return compress(model, request), report, [t.tobytes() for t in trained.params.tensors.values()]


os.sched_getaffinity = lambda pid: {{0}}
want = calls()
forks = []
fork = os.fork


def counted():
    forks.append(1)
    return fork()


os.fork = counted
os.sched_getaffinity = lambda pid: {{0, 1}}
assert calls() == want, "two CPUs changed the bits"
assert len(forks) == {forks}, f"{{len(forks)}} forks, not {forks}"
"""


@pytest.mark.parametrize("blas, forks", [
    ('os.environ.pop("OPENBLAS_NUM_THREADS", None); os.environ.pop("MKL_NUM_THREADS", None)', 0),
    ('os.environ["OPENBLAS_NUM_THREADS"] = os.environ["MKL_NUM_THREADS"] = "1"', 1),
], ids=["unpinned", "pinned"])
def test_a_program_that_imports_numpy_first_uses_the_helper_only_with_blas_pinned(blas, forks):
    _run_python(_NUMPY_FIRST.format(blas=blas, forks=forks))


def _run_python(code: str) -> None:
    """Run ``code`` in a new interpreter that imports efpc and the test helpers."""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(here.parent / "src"), str(here)))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_importing_efpc_loads_no_mmap_and_one_cpu_training_maps_nothing():
    _run_python(_ONE_CPU)


@pytest.mark.parametrize("kind, size", [("RLIMIT_AS", 8 << 30), ("RLIMIT_FSIZE", 1 << 30)])
def test_a_process_under_an_address_space_or_file_size_limit_keeps_its_helper(kind, size):
    _run_python(_UNDER_A_LIMIT.format(kind=kind, size=size))
