import json
import os
import random
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efpc import compressor
from efpc.compressor import (
    CompressionFailure,
    CompressionRequest,
    CompressionResult,
    compress,
    compress_batch,
    score_words,
    target_keep_count,
)
from efpc.errors import InstructionTooLong
from efpc.model import Model, ModelConfig, ModelParams, init_params, twocore, vocab_from_words
from efpc.text_core import split_words

from helpers import PARITY_POOL, rigged_model, use_cpus


def test_request_needs_exactly_one_target():
    CompressionRequest(original="a b", keep_ratio=0.5)
    CompressionRequest(original="a b", unit_budget=3)
    with pytest.raises(ValueError):
        CompressionRequest(original="a b")
    with pytest.raises(ValueError):
        CompressionRequest(original="a b", keep_ratio=0.5, unit_budget=3)
    with pytest.raises(ValueError):
        CompressionRequest(original="a b", keep_ratio=0.0)
    with pytest.raises(ValueError):
        CompressionRequest(original="a b", keep_ratio=1.5)
    with pytest.raises(ValueError):
        CompressionRequest(original="a b", unit_budget=0)


@pytest.mark.parametrize(
    "n,tau,expected",
    [
        (4, 0.5, 2),
        (10, 0.05, 1),   # rounds to 0, clamped up to 1
        (5, 0.5, 3),     # 2.5 rounds half-up to 3
        (10, 1.0, 10),
        (1, 1.0, 1),
        (3, 0.99, 3),    # 2.97 -> 3, still <= n
        (7, 0.35, 2),    # 2.45 -> 2
    ],
)
def test_target_keep_count(n, tau, expected):
    assert target_keep_count(n, tau) == expected


def test_target_keep_count_rejects_empty():
    with pytest.raises(ValueError):
        target_keep_count(0, 0.5)


@pytest.fixture(scope="module")
def model():
    return rigged_model(
        {"ash": 3.0, "birch": 2.0, "cedar": 1.0, "dune": -1.0, "elm": -2.0}
    )


def test_scores_follow_word_identity(model):
    probs = score_words(model, "", split_words("cedar dune ash"))
    assert probs.shape == (3,)
    # sigmoid is monotone in the rigged per-word scores
    assert probs[2] > probs[0] > probs[1]
    assert probs[0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)))


def test_compress_keeps_top_words_in_input_order(model):
    result = compress(
        model,
        CompressionRequest(original="dune birch elm ash", keep_ratio=0.5),
    )
    # birch and ash score highest but ash comes later in the input
    assert result.kept_words == ("birch", "ash")
    assert result.kept_indices == (1, 3)
    assert result.n_original == 4
    assert result.n_kept == 2
    assert result.achieved_inverse_ratio == pytest.approx(2.0)
    assert result.kept_text == "birch ash"


def test_keep_ratio_one_is_identity(model):
    text = "elm dune cedar birch ash"
    result = compress(model, CompressionRequest(original=text, keep_ratio=1.0))
    assert result.kept_words == tuple(text.split())
    assert result.kept_indices == (0, 1, 2, 3, 4)
    assert result.achieved_inverse_ratio == pytest.approx(1.0)


def test_equal_scores_break_ties_toward_earlier_words(model):
    result = compress(
        model, CompressionRequest(original="cedar cedar cedar cedar", keep_ratio=0.5)
    )
    assert result.kept_indices == (0, 1)


def test_keep_sets_nest_as_ratio_grows(model):
    text = "ash elm birch dune cedar ash dune birch elm cedar elm birch"
    previous: set[int] = set()
    for tau in np.linspace(0.1, 1.0, 10):
        result = compress(model, CompressionRequest(original=text, keep_ratio=float(tau)))
        current = set(result.kept_indices)
        assert previous <= current
        previous = current


# a few fixed levels make ties common; any float in [0, 1] fills the rest
_PROBS = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                  min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(probs=_PROBS, taus=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)))
def test_keep_sets_nest_for_any_probabilities_and_ratios(model, probs, taus):
    low, high = sorted(taus)
    text = " ".join(f"w{i}" for i in range(len(probs)))
    with mock.patch.object(compressor, "score_words", return_value=np.array(probs)):
        small = compress(model, CompressionRequest(original=text, keep_ratio=low))
        large = compress(model, CompressionRequest(original=text, keep_ratio=high))
    assert small.n_kept == target_keep_count(len(probs), low)
    assert large.n_kept == target_keep_count(len(probs), high)
    assert set(small.kept_indices) <= set(large.kept_indices)
    # every kept word scores above every dropped one, or ties it and comes first
    dropped = set(range(len(probs))) - set(small.kept_indices)
    for i in small.kept_indices:
        for j in dropped:
            assert probs[i] > probs[j] or (probs[i] == probs[j] and i < j)


def test_unit_budget_converts_to_ratio(model):
    text = "ash elm birch dune cedar dune"
    by_budget = compress(model, CompressionRequest(original=text, unit_budget=3))
    by_ratio = compress(model, CompressionRequest(original=text, keep_ratio=0.5))
    assert by_budget == by_ratio
    assert by_budget.n_kept == 3


def test_unit_budget_larger_than_input_keeps_everything(model):
    result = compress(model, CompressionRequest(original="elm dune", unit_budget=99))
    assert result.kept_words == ("elm", "dune")


def test_instruction_does_not_change_rigged_scores(model):
    # the rigged model ignores context, so this only checks the plumbing:
    # instructions must not shift which positions get scored
    plain = compress(model, CompressionRequest(original="ash elm cedar", keep_ratio=0.34))
    asked = compress(
        model,
        CompressionRequest(original="ash elm cedar", keep_ratio=0.34, instruction="birch?"),
    )
    assert plain.kept_indices == asked.kept_indices == (0,)
    assert len(asked.probabilities) == 3


def test_long_inputs_score_every_word(model):
    words = ("ash elm birch dune cedar " * 8).split()  # 40 words, window is 16
    probs = score_words(model, "birch", split_words(" ".join(words)))
    assert len(probs) == 40
    # word identity fixes the probability, so windowing must not alter it
    expected = score_words(model, "birch", split_words("ash elm birch dune cedar"))
    assert np.allclose(probs, np.tile(expected, 8), atol=1e-12)


def test_long_input_compression_counts(model):
    text = " ".join(("ash elm birch dune cedar " * 8).split())
    result = compress(model, CompressionRequest(original=text, keep_ratio=0.25))
    assert result.n_original == 40
    assert result.n_kept == 10
    assert result.achieved_inverse_ratio == pytest.approx(4.0)


def test_empty_original_rejected(model):
    with pytest.raises(ValueError):
        compress(model, CompressionRequest(original="   ", keep_ratio=0.5))


def test_oversized_instruction_raises(model):
    with pytest.raises(InstructionTooLong):
        compress(
            model,
            CompressionRequest(
                original="ash", keep_ratio=1.0, instruction="elm " * 16
            ),
        )


def test_batch_puts_failures_in_their_slots(model):
    results = compress_batch(
        model,
        [
            CompressionRequest(original="ash elm", keep_ratio=0.5),
            CompressionRequest(original="", keep_ratio=0.5),
            CompressionRequest(original="cedar dune", unit_budget=1),
        ],
    )
    assert isinstance(results[0], CompressionResult)
    assert isinstance(results[1], CompressionFailure)
    assert results[1].index == 1
    assert isinstance(results[2], CompressionResult)


def test_result_record_shape(model):
    result = compress(model, CompressionRequest(original="ash elm", keep_ratio=0.5))
    record = result.to_record()
    assert record == {
        "kept_text": "ash",
        "kept_indices": [0],
        "achieved_inverse_ratio": 2.0,
        "n_original": 2,
        "n_kept": 1,
    }


# ------------------------------------------------------ two-core scoring


def _random_model(dtype):
    """A model with spread-out, context-dependent scores: 16-token windows."""
    vocab = vocab_from_words(PARITY_POOL)
    config = ModelConfig(vocab_size=vocab.size, embed_dim=16, num_layers=2, num_heads=2,
                         ffn_dim=32, max_seq_len=16, seed=3)
    params = init_params(config, dtype)
    tensors = {k: t if "_gamma" in k else t * t.dtype.type(40) for k, t in params.tensors.items()}
    return Model(config=config, vocab=vocab, params=ModelParams(tensors))


def _text(n: int, seed: int) -> str:
    rng = random.Random(seed)
    return " ".join(rng.choice(PARITY_POOL) for _ in range(n))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_helper_scores_a_document_bit_identically_to_the_serial_path(monkeypatch, dtype):
    model = _random_model(dtype)
    instruction, original = "amber basalt", split_words(_text(50, 1))
    assert len(compressor._windows(model, instruction, original)) >= 3
    request = CompressionRequest(" ".join(original), instruction, keep_ratio=0.3)
    use_cpus(monkeypatch, 1)
    serial = score_words(model, instruction, original)
    serial_result = compress(model, request)
    use_cpus(monkeypatch, 2)
    helped = score_words(model, instruction, original)
    # the helper holds this model, so it scored the second share
    held = twocore._helper.shipped is not None and twocore._helper.shipped[0]() is model.params
    assert twocore._helper.alive and held
    assert helped.dtype == np.float64
    assert np.array_equal(helped, serial)
    assert compress(model, request) == serial_result


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_with_failures_and_short_and_long_requests_matches_the_serial_path(monkeypatch,
                                                                                dtype):
    model = _random_model(dtype)
    requests = [
        CompressionRequest(_text(40, 2), "amber", keep_ratio=0.5),
        CompressionRequest("   ", keep_ratio=0.5),
        CompressionRequest(_text(9, 3), "cedar delta", unit_budget=4),
        CompressionRequest(_text(5, 4), " ".join(PARITY_POOL), keep_ratio=0.5),
        CompressionRequest(_text(12, 5), keep_ratio=0.25),
        CompressionRequest(_text(33, 6), "ember", unit_budget=10),
    ]
    use_cpus(monkeypatch, 1)
    serial = compress_batch(model, requests)
    one_by_one = []
    for i, request in enumerate(requests):
        try:
            one_by_one.append(compress(model, request))
        except (InstructionTooLong, ValueError) as exc:
            one_by_one.append(CompressionFailure(index=i, message=str(exc)))
    use_cpus(monkeypatch, 2)
    helped = compress_batch(model, requests)
    assert twocore._helper.alive and twocore._helper.shipped[0]() is model.params
    assert helped == serial == one_by_one
    assert [type(r) for r in helped] == [CompressionResult, CompressionFailure, CompressionResult,
                                         CompressionFailure, CompressionResult, CompressionResult]
    assert helped[1].message == "original text has no words"


@pytest.mark.parametrize("cpus", [1, None])
def test_one_usable_cpu_starts_no_process(monkeypatch, cpus):
    def no_fork():
        raise AssertionError("a helper was started")

    if cpus is None:  # a platform without sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(twocore, "_helper", None)
    monkeypatch.setattr(twocore, "_Helper", no_fork)
    model = _random_model(np.float32)
    text = _text(60, 7)
    result = compress(model, CompressionRequest(text, "amber", keep_ratio=0.5))
    batch = compress_batch(model, [CompressionRequest(text, keep_ratio=0.5)] * 3)
    assert result.n_original == 60 and len(batch) == 3
    assert twocore._helper is None


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_scored_model_is_read_only_so_both_shares_score_the_same_weights(monkeypatch, cpus):
    # the helper holds its own copy of a scored model, found again by the
    # model's identity: a write in place would reach one share and not the other
    model = _random_model(np.float32)
    original = split_words(_text(50, 9))
    use_cpus(monkeypatch, cpus)
    before = score_words(model, "amber", original)
    tensors = model.params.tensors
    with pytest.raises(ValueError, match="read-only"):
        tensors["cls_b"] = np.array([1, -1], np.float32)
    with pytest.raises(ValueError, match="read-only"):
        tensors.flat[-1] += 1
    with pytest.raises(ValueError, match="read-only"):
        model.params["cls_w"][0, 0] = 0
    assert np.array_equal(score_words(model, "amber", original), before)
    # a copy can be changed, and is scored with its own weights on every share
    changed = Model(config=model.config, vocab=model.vocab, params=ModelParams(dict(tensors)))
    changed.params.tensors["cls_b"] = np.array([1, -1], np.float32)
    got = score_words(changed, "amber", original)
    use_cpus(monkeypatch, 1)
    assert np.array_equal(got, score_words(changed, "amber", original))
    assert not np.array_equal(got, before)


def test_a_share_that_raises_leaves_no_reply_queued(monkeypatch):
    model = _random_model(np.float64)
    original = split_words(_text(70, 8))
    use_cpus(monkeypatch, 1)
    expected = score_words(model, "", original)
    use_cpus(monkeypatch, 2)

    def failing(*args):
        raise RuntimeError("parent share failed")

    with mock.patch.object(compressor, "encode", failing), pytest.raises(RuntimeError):
        score_words(model, "", original[:50])
    # a reply left over from the failed call would be read as this call's
    assert np.array_equal(score_words(model, "", original), expected)
    assert twocore._helper.alive


def test_threads_compressing_at_once_get_the_serial_results(monkeypatch):
    model = _random_model(np.float32)
    requests = [CompressionRequest(_text(30 + 7 * i, 20 + i), "amber", keep_ratio=0.5)
                for i in range(6)]
    use_cpus(monkeypatch, 1)
    expected = [compress(model, r) for r in requests]
    use_cpus(monkeypatch, 2)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(compress, model, requests[i % 6]) for i in range(120)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    assert results == [expected[i % 6] for i in range(120)]
    assert twocore._helper.alive


_LIFECYCLE = """
import json, os, signal, sys
from efpc.compressor import CompressionRequest, compress
from efpc.model import twocore
from helpers import rigged_model

os.sched_getaffinity = lambda pid: {0, 1}
model = rigged_model({"ash": 3.0, "birch": 2.0, "cedar": 1.0, "dune": -1.0, "elm": -2.0})
request = CompressionRequest("ash elm birch dune cedar " * 12, "birch", keep_ratio=0.4)
first = compress(model, request)
pid = twocore._helper.pid
if sys.argv[1] == "kill":
    os.kill(pid, signal.SIGKILL)
    second = compress(model, request)
    try:
        os.kill(pid, 0)
        gone = False
    except ProcessLookupError:
        gone = True
    print(json.dumps({"same": second == first, "alive": twocore._helper.alive,
                      "gone": gone}))
    compress(model, request)
    try:
        os.waitpid(-1, os.WNOHANG)  # (0, 0) while a child runs
        children = 1
    except ChildProcessError:
        children = 0
    print(json.dumps({"children": children}))
if sys.argv[1] == "fork":
    child = os.fork()
    if child == 0:
        sys.exit(0)  # a normal exit runs the exit handlers the child inherited
    os.waitpid(child, 0)
    second = compress(model, request)
    print(json.dumps({"same": second == first, "alive": twocore._helper.alive,
                      "same_helper": twocore._helper.pid == pid}))
print(json.dumps({"pid": pid}), flush=True)
if sys.argv[1] == "die":
    os._exit(0)  # no exit handlers: the helper must notice on its own
"""


def _run_lifecycle(mode: str) -> list[dict]:
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(here.parent / "src"), str(here)))}
    done = subprocess.run([sys.executable, "-c", _LIFECYCLE, mode], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    return [json.loads(line) for line in done.stdout.splitlines()]


def _gone(pid: int, wait_s: float = 0.0) -> bool:
    """Whether ``pid`` has exited (a zombie counts) within ``wait_s``."""
    deadline = time.monotonic() + wait_s
    while True:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except FileNotFoundError:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


@pytest.mark.parametrize("mode", ["exit", "die"])
def test_helper_does_not_outlive_the_process(mode):
    # capture_output reads stdout to EOF, so a helper holding it would hang the run
    (last,) = _run_lifecycle(mode)
    assert _gone(last["pid"], wait_s=5.0)


def test_a_forked_child_that_exits_leaves_the_helper_serving():
    checked, last = _run_lifecycle("fork")
    assert checked == {"same": True, "alive": True, "same_helper": True}
    assert _gone(last["pid"], wait_s=5.0)


def test_killed_helper_leaves_results_unchanged_and_no_zombie():
    checked, children, last = _run_lifecycle("kill")
    assert checked == {"same": True, "alive": False, "gone": True}
    # scoring stays serial: no new helper is forked
    assert children == {"children": 0}
    assert _gone(last["pid"])
