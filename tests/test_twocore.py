"""Training and held-out scoring on two cores give the bits of one core,
and the helper's failures leave them so."""

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

from efpc.align import LabeledExample
from efpc.errors import NumericalDivergence
from efpc.model import ModelParams, prepare_examples, token_accuracy, train, training, twocore

from helpers import fast_train_config, parity_examples, small_model, use_cpus


def _uneven_data() -> list[LabeledExample]:
    """Windows of 5 to 16 tokens, so shares of equal token counts hold
    unequal numbers of examples; the 20-word examples make two windows."""
    return (parity_examples(5, 1, 3) + parity_examples(4, 2, 14) + parity_examples(3, 3, 7)
            + parity_examples(2, 4, 20))


def _model(data, dtype=np.float32):
    model = small_model(data, embed_dim=16, num_layers=2, num_heads=2, ffn_dim=32)
    # spread-out weights, so predictions differ from word to word
    tensors = {k: (t if "_gamma" in k else t * 20).astype(dtype)
               for k, t in model.params.tensors.items()}
    return replace(model, params=ModelParams(tensors))


def _counted(monkeypatch, name: str) -> list:
    """Count the calls of ``training.<name>``, which this process makes."""
    calls = []
    original = getattr(training, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(training, name, counted)
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


def test_batches_worked_on_in_rounds_keep_the_serial_bits(monkeypatch):
    data = _uneven_data()
    model = _model(data)
    config = fast_train_config(epochs=2, batch_size=7)
    use_cpus(monkeypatch, 1)
    want, want_report = train(model, data, config)
    use_cpus(monkeypatch, 2)
    # rounds of two examples: batches of 7 split 2 + 2 + 2 + 1
    monkeypatch.setattr(twocore, "_REPLY_BYTES", 1)
    calls = _counted(monkeypatch, "backward_detailed")
    got, report = train(model, data, config)
    assert report == want_report
    _assert_same_bits(got, want)
    assert len(calls) == sum(_own_share(batch[lo : lo + 2])
                             for batch in _batches(model, data, config)
                             for lo in range(0, len(batch), 2))


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


def test_a_share_that_raises_stops_and_reaps_the_helper(monkeypatch):
    # the helper's reply to the interrupted batch is never read, so the
    # helper cannot be asked again
    data = _uneven_data()
    model = _model(data)
    config = fast_train_config(epochs=1, batch_size=4)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(twocore, "_helper", None)  # this test's own helper
    original = training.backward_detailed

    def failing(*args):
        if twocore._helper is not None:
            raise RuntimeError("this process's share failed")
        return original(*args)

    monkeypatch.setattr(training, "backward_detailed", failing)
    with pytest.raises(RuntimeError, match="share failed"):
        train(model, data, config)
    helper = twocore._helper
    assert not helper.alive
    with pytest.raises(ChildProcessError):  # reaped: not left a zombie
        os.waitpid(helper.pid, os.WNOHANG)


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
    try:
        for data in _growing_datasets():
            train(_model(data), data, fast_train_config(epochs=1, batch_size=4))
            assert len(_memfd_descriptors() - fds) <= 1
        # a larger mapping replaced the smaller ones, which are unmapped
        assert len(_training_mappings() - before) == 1
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


def test_without_memfd_create_training_forks_and_maps_nothing(monkeypatch):
    def refused(*args):
        raise AssertionError("a process was started or memory mapped")

    data = _uneven_data()
    model = _model(data)
    config = fast_train_config(epochs=2, batch_size=3)
    use_cpus(monkeypatch, 1)
    want, want_report = train(model, data, config)
    use_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "memfd_create")
    monkeypatch.setattr(twocore, "_helper", None)
    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(mmap, "mmap", refused)
    got, report = train(model, data, config)
    assert report == want_report
    _assert_same_bits(got, want)
    assert twocore._helper is None


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


def test_importing_efpc_loads_no_mmap_and_one_cpu_training_maps_nothing():
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(here.parent / "src"), str(here)))}
    done = subprocess.run([sys.executable, "-c", _ONE_CPU], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
