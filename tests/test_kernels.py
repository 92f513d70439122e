"""The encoder's numpy kernels against the plain expressions they replace.

The in-place softmax, its backward and the Adam step run the same
operations in the same order as the expressions written out below, so
they must agree to the bit; the GELU changed its arithmetic and is held
to finite differences instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efpc.align import LabeledExample
from efpc.model import (
    Model,
    ModelConfig,
    TrainConfig,
    adam_step,
    backward,
    build_vocab,
    init_adam,
    init_params,
    prepare_examples,
    train,
)
from efpc.model import training
from efpc.model.network import _gelu, _gelu_grad, _softmax_rows, _softmax_rows_backward

RNG = np.random.default_rng(0)


def _old_softmax_rows(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _old_adam_step(params, grads, state, config):
    t = state.step + 1
    b1, b2 = config.beta1, config.beta2
    new_params, new_m, new_v = {}, {}, {}
    for name, theta in params.tensors.items():
        g = grads[name]
        m = b1 * state.m[name] + (1.0 - b1) * g
        v = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        new_params[name] = theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
        new_m[name] = m
        new_v[name] = v
    return new_params, new_m, new_v


def test_gelu_grad_matches_central_differences():
    x = np.linspace(-6.0, 6.0, 241)
    eps = 1e-6
    numeric = (_gelu(x + eps)[0] - _gelu(x - eps)[0]) / (2 * eps)
    _, t = _gelu(x)
    assert np.allclose(_gelu_grad(x, t), numeric, rtol=1e-7, atol=1e-9)


def test_gelu_matches_the_pow_formula():
    x = RNG.standard_normal((37, 16)).astype(np.float32) * 3
    c, a = np.sqrt(2.0 / np.pi), 0.044715
    expected = 0.5 * x * (1.0 + np.tanh(c * (x + a * x**3)))
    g, t = _gelu(x)
    assert g.dtype == t.dtype == np.float32
    assert np.allclose(g, expected, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_in_place_is_bit_identical_and_new_leaves_input(dtype):
    scores = (RNG.standard_normal((4, 9, 9)) * 5).astype(dtype)
    before = scores.copy()
    expected = _old_softmax_rows(scores)
    fresh = _softmax_rows(scores)
    assert np.array_equal(scores, before)
    assert np.array_equal(fresh, expected)
    in_place = _softmax_rows(scores, out=scores)
    assert in_place is scores
    assert np.array_equal(in_place, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_backward_is_bit_identical(dtype):
    attn = _old_softmax_rows(RNG.standard_normal((4, 9, 9)).astype(dtype))
    dattn = RNG.standard_normal((4, 9, 9)).astype(dtype)
    expected = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    assert np.array_equal(_softmax_rows_backward(dattn.copy(), attn), expected)


CFG = ModelConfig(vocab_size=20, embed_dim=8, num_layers=1, num_heads=2,
                  ffn_dim=16, max_seq_len=8, seed=3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_is_bit_identical(dtype):
    params = init_params(CFG, dtype=dtype)
    config = TrainConfig(learning_rate=1e-3)
    state = init_adam(params)
    for _ in range(3):
        grads = {k: RNG.standard_normal(t.shape).astype(dtype) for k, t in params.tensors.items()}
        expected = _old_adam_step(params, grads, state, config)
        params, state = adam_step(params, grads, state, config)
        for name in params.tensors:
            assert params[name].dtype == dtype
            for got, want in zip((params[name], state.m[name], state.v[name]), expected):
                assert np.array_equal(got, want[name])


def test_adam_step_leaves_parameters_and_moments_unmodified():
    params = init_params(CFG, dtype=np.float32)
    config = TrainConfig(learning_rate=1e-2)
    grads = {k: np.ones_like(t) for k, t in params.tensors.items()}
    state = init_adam(params)
    params, state = adam_step(params, grads, state, config)
    snapshot = [
        {k: t.copy() for k, t in table.items()}
        for table in (params.tensors, grads, state.m, state.v)
    ]
    adam_step(params, grads, state, config)
    for before, after in zip(snapshot, (params.tensors, grads, state.m, state.v)):
        for name in before:
            assert np.array_equal(before[name], after[name])


WORDS = ("ant", "bee", "cow", "dog", "eel", "fox")


@st.composite
def _datasets(draw):
    variant = draw(st.sampled_from(["agnostic", "drop", "mask"]))
    examples = []
    for _ in range(draw(st.integers(1, 4))):
        n_instr = draw(st.integers(0, 3))
        n_words = draw(st.integers(1, 14))
        words = tuple(draw(st.lists(st.sampled_from(WORDS), min_size=n_instr + n_words,
                                    max_size=n_instr + n_words)))
        labels = (0,) * n_instr + tuple(draw(st.lists(st.integers(0, 1), min_size=n_words,
                                                      max_size=n_words)))
        examples.append(LabeledExample(words=words, labels=labels, boundary_m=n_instr))
    return variant, examples


@settings(max_examples=30, deadline=None)
@given(_datasets())
def test_batch_gradient_table_is_the_sum_of_example_gradients(case):
    variant, dataset = case
    vocab = build_vocab(dataset)
    config = ModelConfig(vocab_size=vocab.size, embed_dim=8, num_layers=2, num_heads=2,
                         ffn_dim=16, max_seq_len=8, seed=1)
    model = Model(config=config, vocab=vocab, params=init_params(config, dtype=np.float64))
    windows = prepare_examples(model, dataset, variant)
    expected = {k: np.zeros_like(t) for k, t in model.params.tensors.items()}
    for ex in windows:
        _, grads = backward(model.params, config, ex, variant)
        for k in expected:
            expected[k] += grads[k]

    seen = []
    original = training.adam_step

    def spy(params, grads, state, cfg):
        seen.append({k: g * len(windows) for k, g in grads.items()})
        return original(params, grads, state, cfg)

    training.adam_step = spy
    try:
        train(model, dataset, TrainConfig(learning_rate=1e-3, batch_size=len(windows),
                                          epochs=1, loss_variant=variant))
    finally:
        training.adam_step = original
    assert len(seen) == 1
    for k, want in expected.items():
        np.testing.assert_allclose(seen[0][k], want, rtol=1e-6, atol=1e-12, err_msg=k)
