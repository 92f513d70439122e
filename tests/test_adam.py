import numpy as np
import pytest

from efpc.errors import ShapeMismatch
from efpc.model import (
    ModelConfig,
    TrainConfig,
    adam_step,
    init_adam,
    init_params,
)
from efpc.model.params import FlatTable, zeros_like

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
    assert adam_step(params, zeros_like(params.tensors), state, tc) is None
    for name in params.tensors:
        assert np.array_equal(params[name], before[name])
    assert state.step == 1


def test_first_step_size_approaches_learning_rate():
    # bias correction makes |Δ| ≈ lr · g/(|g| + ε) on the first step
    params, state, tc = _setup(lr=1e-3)
    grads = zeros_like(params.tensors)
    grads["cls_b"] = np.array([0.5, -0.25])
    before = _snapshot(params.tensors)
    adam_step(params, grads, state, tc)
    delta = params["cls_b"] - before["cls_b"]
    assert delta[0] == pytest.approx(-1e-3, rel=1e-6)
    assert delta[1] == pytest.approx(+1e-3, rel=1e-6)


def test_untouched_tensors_stay_put():
    params, state, tc = _setup()
    grads = zeros_like(params.tensors)
    grads["cls_b"] = np.array([1.0, 1.0])
    before = _snapshot(params.tensors)
    adam_step(params, grads, state, tc)
    assert np.array_equal(params["token_emb"], before["token_emb"])
    assert not np.array_equal(params["cls_b"], before["cls_b"])


def test_moments_accumulate_across_steps():
    params, state, tc = _setup()
    grads = zeros_like(params.tensors)
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
        grads = zeros_like(params.tensors)
        grads.flat.fill(0.01)
        for _ in range(3):
            adam_step(params, grads, state, tc)
        results.append(params)
    for name in results[0].tensors:
        assert np.array_equal(results[0][name], results[1][name])


def test_shape_validation():
    params, state, tc = _setup()
    # one real step first, so the moments a refused step must keep are not zero
    ones = zeros_like(params.tensors)
    ones.flat.fill(1.0)
    adam_step(params, ones, state, tc)
    before = [_snapshot(table) for table in (params.tensors, state.m, state.v)]
    shapes = params.tensors.shapes
    missing = FlatTable(np.ones(ones.flat.size), {k: s for k, s in shapes.items() if k != "cls_b"})
    # the bad tensor comes last in the table, after every good one
    wrong = FlatTable(np.ones(ones.flat.size + 1), {**shapes, "cls_b": (3,)})
    # the right names and shapes, as separate arrays rather than one flat table
    plain = {k: np.ones_like(t) for k, t in params.tensors.items()}
    for grads in (missing, wrong, plain):
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
