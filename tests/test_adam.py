import numpy as np
import pytest

from efpc.errors import ShapeMismatch
from efpc.model import (
    ModelConfig,
    ModelParams,
    TrainConfig,
    adam_step,
    init_adam,
    init_params,
)
from efpc.model import adam
from efpc.model.params import FlatTable, flat_of

from helpers import zeros_like_params

CFG = ModelConfig(vocab_size=8, embed_dim=8, num_layers=1, num_heads=2,
                  ffn_dim=16, max_seq_len=8, seed=0)


def _setup(lr=1e-3):
    params = init_params(CFG, dtype=np.float64)
    return params, init_adam(params), TrainConfig(learning_rate=lr)


def _snapshot(table):
    return {k: t.copy() for k, t in table.items()}


def test_zero_gradient_leaves_parameters_unchanged():
    params, state, tc = _setup()
    before = _snapshot(params.tensors)
    assert adam_step(params, zeros_like_params(params), state, tc) is None
    for name in params.tensors:
        assert np.array_equal(params[name], before[name])
    assert state.step == 1


def test_first_step_size_approaches_learning_rate():
    # bias correction makes |Δ| ≈ lr · g/(|g| + ε) on the first step
    params, state, tc = _setup(lr=1e-3)
    grads = zeros_like_params(params)
    grads["cls_b"] = np.array([0.5, -0.25])
    before = _snapshot(params.tensors)
    adam_step(params, grads, state, tc)
    delta = params["cls_b"] - before["cls_b"]
    assert delta[0] == pytest.approx(-1e-3, rel=1e-6)
    assert delta[1] == pytest.approx(+1e-3, rel=1e-6)


def test_untouched_tensors_stay_put():
    params, state, tc = _setup()
    grads = zeros_like_params(params)
    grads["cls_b"] = np.array([1.0, 1.0])
    before = _snapshot(params.tensors)
    adam_step(params, grads, state, tc)
    assert np.array_equal(params["token_emb"], before["token_emb"])
    assert not np.array_equal(params["cls_b"], before["cls_b"])


def test_moments_accumulate_across_steps():
    params, state, tc = _setup()
    grads = zeros_like_params(params)
    grads["cls_b"] = np.array([1.0, 0.0])
    adam_step(params, grads, state, tc)
    assert state.step == 1
    assert state.m["cls_b"][0] == pytest.approx(0.1)  # (1-β1)·g
    assert state.v["cls_b"][0] == pytest.approx(0.001)  # (1-β2)·g²
    adam_step(params, grads, state, tc)
    assert state.step == 2
    assert state.m["cls_b"][0] == pytest.approx(0.19)


def test_steps_are_deterministic():
    results = []
    for _ in range(2):
        params, state, tc = _setup()
        grads = {k: np.full_like(v, 0.01) for k, v in params.tensors.items()}
        for _ in range(3):
            adam_step(params, grads, state, tc)
        results.append(params)
    for name in results[0].tensors:
        assert np.array_equal(results[0][name], results[1][name])


def test_shape_validation():
    params, state, tc = _setup()
    # one real step first, so the moments a refused step must keep are not zero
    adam_step(params, {k: np.ones_like(t) for k, t in params.tensors.items()}, state, tc)
    before = [_snapshot(table) for table in (params.tensors, state.m, state.v)]
    missing = {k: np.ones_like(t) for k, t in params.tensors.items()}
    del missing["cls_b"]
    # the bad tensor comes last in the table, after every good one
    wrong = {k: np.ones_like(t) for k, t in params.tensors.items()}
    wrong["cls_b"] = np.ones(3)
    for grads in (missing, wrong):
        with pytest.raises(ShapeMismatch):
            adam_step(params, grads, state, tc)
        assert state.step == 1
        for want, got in zip(before, (params.tensors, state.m, state.v)):
            for name in want:
                assert np.array_equal(got[name], want[name]), name


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(loss_variant="focal")
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate must be a finite positive number"):
            TrainConfig(learning_rate=lr)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_flat_step_in_blocks_gives_the_bits_of_a_step_per_tensor(monkeypatch, dtype):
    # blocks of 7 elements straddle every tensor boundary
    monkeypatch.setattr(adam, "_BLOCK", 7)
    rng = np.random.default_rng(5)
    dense = init_params(CFG, dtype=dtype)
    shapes = {k: t.shape for k, t in dense.tensors.items()}
    flat = ModelParams(FlatTable(np.concatenate([t.reshape(-1) for t in dense.tensors.values()]),
                                 shapes))
    dense_state, flat_state = init_adam(dense), init_adam(flat)
    assert flat_of(flat_state.m) is not None and flat_of(dense_state.m) is None
    tc = TrainConfig(learning_rate=1e-2)
    for _ in range(3):
        grads = {k: rng.standard_normal(t.shape).astype(dtype) for k, t in dense.tensors.items()}
        flat_grads = FlatTable(np.concatenate([g.reshape(-1) for g in grads.values()]), shapes)
        adam_step(dense, grads, dense_state, tc)
        adam_step(flat, flat_grads, flat_state, tc)
    for got, want in ((flat.tensors, dense.tensors), (flat_state.m, dense_state.m),
                      (flat_state.v, dense_state.v)):
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
