"""The encoder's numpy kernels against the plain expressions they replace.

The in-place softmax, the layer norm and the Adam step run the same
operations in the same order as the expressions written out below, so
they must agree to the bit. The GELU changed its arithmetic and is held
to finite differences instead; key-major attention reorders its sums and
is held to a row-major float64 reference within a tolerance, on scores
both below and above the bound where it starts to shift by the row
maximum.
"""

import tracemalloc

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
    backward_detailed,
    build_vocab,
    init_adam,
    init_params,
    prepare_examples,
    train,
)
from efpc.model import adam, training
from efpc.model.adam import BETA1, BETA2, EPSILON
from efpc.model.network import (
    _attention,
    _attention_backward,
    _gelu,
    _gelu_grad,
    _layer_norm,
    _softmax_rows,
)
from efpc.model.params import zeros_like

RNG = np.random.default_rng(0)


def _old_softmax_rows(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _old_adam_step(params, grads, state, config):
    t = state.step + 1
    b1, b2 = BETA1, BETA2
    new_params, new_m, new_v = {}, {}, {}
    for name, theta in params.tensors.items():
        g = grads[name]
        m = b1 * state.m[name] + (1.0 - b1) * g
        v = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        new_params[name] = theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
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
def test_softmax_in_place_is_bit_identical(dtype):
    scores = (RNG.standard_normal((4, 9, 9)) * 5).astype(dtype)
    expected = _old_softmax_rows(scores)
    in_place = _softmax_rows(scores)
    assert in_place is scores
    assert np.array_equal(in_place, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [48, 64])
@pytest.mark.parametrize("shift", [0.0, 100.0])
def test_layer_norm_is_bit_identical_to_mean_and_var(dtype, width, shift):
    x = (RNG.standard_normal((37, width)) * 3 + shift).astype(dtype)
    gamma = RNG.standard_normal(width).astype(dtype)
    beta = RNG.standard_normal(width).astype(dtype)
    mu = x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    xhat = (x - mu) * inv_std
    y, (got_xhat, got_inv_std) = _layer_norm(x, gamma, beta)
    assert y.dtype == dtype
    assert np.array_equal(got_inv_std, inv_std)
    assert np.array_equal(got_xhat, xhat)
    assert np.array_equal(y, xhat * gamma + beta)


@st.composite
def _attention_inputs(draw, peaks, dtype=np.float64):
    """Per-head q (scaled), k, v and a context gradient, with q stretched
    so the largest score magnitude lies in the range ``peaks``."""
    length = draw(st.integers(1, 64))
    heads = draw(st.sampled_from([1, 2, 4]))
    head_dim = draw(st.sampled_from([1, 4, 8]))
    peak = draw(st.floats(*peaks))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, k, v, dctx = (rng.standard_normal((heads, length, head_dim)) for _ in range(4))
    q *= peak / np.abs(q @ k.transpose(0, 2, 1)).max()
    return tuple(t.astype(dtype) for t in (q, k, v, dctx))


# Peak score ranges: the first mostly below the shift guard's bound of 20
# (which ``max‖q‖ · max‖k‖`` bounds from above, so peaks near 19 may shift),
# the second always above it.
PEAKS = pytest.mark.parametrize("peaks", [(1e-3, 19.0), (50.0, 1e4)], ids=["small", "large"])


def _weights(cache):
    """The normalised key-major weights behind ``_attention``'s cache."""
    e_t, s = cache
    return e_t / s


def _row_major_attention(q, k, v):
    scores = q @ k.transpose(0, 2, 1)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    return attn @ v, attn


def _assert_close(got, want, size=1.0):
    """Within rtol 1e-5, or within 1e-12 of ``size``, the sum of the
    absolute values of the terms behind each element, which bounds the
    rounding error of a sum whose terms cancel."""
    assert got.shape == want.shape
    assert (np.abs(got - want) <= 1e-5 * np.abs(want) + 1e-12 * size).all()


@PEAKS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_attention_matches_a_row_major_reference(peaks, data):
    q, k, v, _ = data.draw(_attention_inputs(peaks))
    ctx_h, cache = _attention(q, k, v)
    attn_t = _weights(cache)
    want_ctx, want_attn = _row_major_attention(q, k, v)
    assert attn_t.shape == want_attn.shape
    _assert_close(attn_t.transpose(0, 2, 1), want_attn)
    _assert_close(ctx_h, want_ctx, want_attn @ np.abs(v))


@PEAKS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_attention_weights_of_each_query_sum_to_one(peaks, data):
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    q, k, v, _ = data.draw(_attention_inputs(peaks, dtype))
    ctx_h, cache = _attention(q, k, v)
    attn_t = _weights(cache)
    assert attn_t.dtype == ctx_h.dtype == q.dtype
    assert np.isfinite(attn_t).all() and np.isfinite(ctx_h).all()
    assert (attn_t >= 0).all()
    tol = 1e-5 if q.dtype == np.float32 else 1e-12
    np.testing.assert_allclose(attn_t.sum(axis=1), 1.0, rtol=0, atol=tol)


@PEAKS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_attention_backward_matches_a_row_major_reference(peaks, data):
    q, k, v, dctx = data.draw(_attention_inputs(peaks))
    scale = 0.5
    ctx_h, cache = _attention(q, k, v)
    _, attn = _row_major_attention(q, k, v)
    dattn = dctx @ v.transpose(0, 2, 1)
    # the softmax backward's row term, taken in O(L·d) from the context
    _assert_close((dctx * ctx_h).sum(axis=-1), (dattn * attn).sum(axis=-1),
                  (np.abs(dctx) * (attn @ np.abs(v))).sum(axis=-1))
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    want = (dscores @ k * scale, dscores.transpose(0, 2, 1) @ q, attn.transpose(0, 2, 1) @ dctx)
    # the row term enters twice: the reference sums dattn * attn, the kernel
    # dctx * ctx_h, the same dot product in another order; where they cancel
    # to 0 (a one-hot query) their rounding is bounded by |dctx| · (attn @ |v|)
    ds_size = attn * (np.abs(dattn) + (np.abs(dattn) * attn).sum(axis=-1, keepdims=True)
                      + (np.abs(dctx) * (attn @ np.abs(v))).sum(axis=-1, keepdims=True))
    sizes = (ds_size @ np.abs(k) * scale, ds_size.transpose(0, 2, 1) @ np.abs(q),
             attn.transpose(0, 2, 1) @ np.abs(dctx))
    got = _attention_backward(dctx, q, k, v, cache, ctx_h, scale)
    for g, w, size in zip(got, want, sizes):
        _assert_close(g, w, size)

CFG = ModelConfig(vocab_size=20, embed_dim=8, num_layers=1, num_heads=2,
                  ffn_dim=16, max_seq_len=8, seed=3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("block", [7, adam._BLOCK])
def test_adam_step_is_bit_identical(monkeypatch, block, dtype):
    # blocks of 7 elements straddle every tensor boundary
    monkeypatch.setattr(adam, "_BLOCK", block)
    params = init_params(CFG, dtype=dtype)
    config = TrainConfig(learning_rate=1e-3)
    state = init_adam(params)
    for _ in range(3):
        grads = zeros_like(params.tensors)
        for g in grads.values():
            g[...] = RNG.standard_normal(g.shape)
        # the reference builds fresh tables, so it runs first, on the
        # tables the in-place step then overwrites
        expected = _old_adam_step(params, grads, state, config)
        adam_step(params, grads, state, config)
        for name in params.tensors:
            assert params[name].dtype == dtype
            for got, want in zip((params[name], state.m[name], state.v[name]), expected):
                assert got.tobytes() == want[name].tobytes(), name


def test_adam_step_leaves_the_gradient_table_unmodified():
    params = init_params(CFG, dtype=np.float32)
    config = TrainConfig(learning_rate=1e-2)
    grads = zeros_like(params.tensors)
    grads.flat.fill(1.0)
    state = init_adam(params)
    adam_step(params, grads, state, config)
    adam_step(params, grads, state, config)
    for name, g in grads.items():
        assert np.array_equal(g, np.ones_like(g)), name


def test_adam_step_holds_no_memory_after_it_returns():
    # the default model's shapes with a 3000-word vocabulary, in float32
    config = ModelConfig(vocab_size=3000)
    params = init_params(config)
    grads = zeros_like(params.tensors)
    for g in grads.values():
        g[...] = RNG.standard_normal(g.shape)
    state = init_adam(params)
    train_config = TrainConfig(learning_rate=1e-3)
    # one step outside the trace, so numpy's one-time set-up is not counted
    adam_step(params, grads, state, train_config)
    block = adam._BLOCK * params.tensors.flat.itemsize
    assert params.tensors.flat.nbytes > 2 * block
    tracemalloc.start()
    try:
        returned = adam_step(params, grads, state, train_config)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # two temporaries the size of one block at a time, and nothing kept
    assert current < 4096, current
    assert peak <= 2 * block + 4096, (peak, block)
    assert returned is None


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
        _, grads = backward_detailed(model.params, config, ex, variant)[:2]
        for k in expected:
            expected[k] += grads[k]

    seen = []
    original = training.adam_step

    def spy(params, grads, state, cfg):
        # a copy: the step overwrites the rows in place
        seen.append((params["token_emb"].copy(),
                     {k: g * len(windows) for k, g in grads.items()}))
        return original(params, grads, state, cfg)

    training.adam_step = spy
    try:
        train(model, dataset, TrainConfig(learning_rate=1e-3, batch_size=len(windows),
                                          epochs=1, loss_variant=variant))
    finally:
        training.adam_step = original
    assert len(seen) == 1
    emb_rows, got = seen[0]
    # Adam gets the token_emb rows the examples use; find each one's id by
    # its value in the untrained table, whose random rows are all distinct
    emb = model.params["token_emb"]
    ids = [int(np.flatnonzero((emb == row).all(axis=1))[0]) for row in emb_rows]
    assert len(set(ids)) == len(ids)
    expected_emb = expected.pop("token_emb")
    np.testing.assert_allclose(got.pop("token_emb"), expected_emb[ids], rtol=1e-6,
                               atol=1e-12, err_msg="token_emb")
    assert not np.delete(expected_emb, ids, axis=0).any()
    for k, want in expected.items():
        np.testing.assert_allclose(got[k], want, rtol=1e-6, atol=1e-12, err_msg=k)
