import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efpc.errors import SequenceTooLong
from efpc.model import (
    LOSS_VARIANTS,
    ModelConfig,
    ModelParams,
    TokenizedExample,
    TrainConfig,
    backward_detailed,
    classify,
    encode,
    init_params,
    tokenize_words,
    vocab_from_words,
)
from efpc.model import network

from helpers import forward_loss, record_score_bounds

CFG = ModelConfig(
    vocab_size=20, embed_dim=16, num_layers=2, num_heads=4, ffn_dim=32,
    max_seq_len=12, seed=3,
)


@pytest.fixture(scope="module")
def params():
    return init_params(CFG)


def test_encode_shape_and_finiteness(params):
    h = encode(params, CFG, [3, 4, 5, 6])
    assert h.shape == (4, CFG.embed_dim)
    assert np.isfinite(h).all()


def test_encode_is_deterministic(params):
    ids = [5, 3, 7, 7, 2]
    a = encode(params, CFG, ids)
    b = encode(params, CFG, ids)
    assert np.array_equal(a, b)


def test_encode_single_token(params):
    assert encode(params, CFG, [4]).shape == (1, CFG.embed_dim)


def test_encode_uses_position_information(params):
    fwd = encode(params, CFG, [3, 4, 5])
    rev = encode(params, CFG, [5, 4, 3])
    # same multiset of tokens, different order: positions must matter
    assert not np.allclose(fwd[0], rev[2])


def test_encode_rejects_overlong_input(params):
    with pytest.raises(SequenceTooLong):
        encode(params, CFG, [3] * (CFG.max_seq_len + 1))
    # exactly at the limit is fine
    encode(params, CFG, [3] * CFG.max_seq_len)


def test_encode_rejects_empty_input(params):
    with pytest.raises(ValueError):
        encode(params, CFG, [])


def test_classify_rows_sum_to_one(params):
    h = encode(params, CFG, [3, 9, 11, 4, 4])
    probs = classify(params, h)
    assert probs.shape == (5, 2)
    assert probs.dtype == np.float64
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
    assert (probs > 0).all()


def test_zeroed_classifier_gives_uniform_probabilities(params):
    neutral = dict(params.tensors)
    neutral["cls_w"] = np.zeros_like(params["cls_w"])
    neutral["cls_b"] = np.zeros_like(params["cls_b"])
    probs = classify(ModelParams(neutral), encode(params, CFG, [3, 4]))
    assert np.allclose(probs, 0.5, atol=1e-12)


def test_classifier_bias_sets_odds():
    # zero weights and bias (ln 3, 0) force probabilities (0.75, 0.25)
    biased = dict(init_params(CFG).tensors)
    biased["cls_w"] = np.zeros_like(biased["cls_w"])
    biased["cls_b"] = np.array([np.log(3.0), 0.0], dtype=np.float32)
    params = ModelParams(biased)
    probs = classify(params, encode(params, CFG, [5, 6, 7]))
    assert np.allclose(probs[:, 0], 0.75, atol=1e-6)
    assert np.allclose(probs[:, 1], 0.25, atol=1e-6)


def test_seed_changes_parameters():
    other = init_params(ModelConfig(
        vocab_size=20, embed_dim=16, num_layers=2, num_heads=4, ffn_dim=32,
        max_seq_len=12, seed=4,
    ))
    mine = init_params(CFG)
    assert not np.array_equal(mine["token_emb"], other["token_emb"])


@pytest.mark.parametrize("variant", LOSS_VARIANTS)
def test_training_pass_uses_the_inference_head_and_loss(params, variant):
    vocab = vocab_from_words(list("abcdefgh"))
    instruction = [] if variant == "agnostic" else ["a"]
    ex = tokenize_words(vocab, instruction, ["b", "c", "d"], [1, 0, 1])
    loss, grads, probs = backward_detailed(params, CFG, ex, variant)
    assert np.array_equal(probs, classify(params, encode(params, CFG, ex.token_ids)))
    assert probs.dtype == np.float64
    assert loss == forward_loss(params, CFG, ex, variant)
    assert set(grads) == set(params.tensors)
    for name, g in grads.items():
        assert g.shape == params[name].shape
        assert g.dtype == params[name].dtype


def _encode_peak(num_layers: int) -> int:
    config = ModelConfig(vocab_size=50, embed_dim=32, num_layers=num_layers, num_heads=4,
                         ffn_dim=64, max_seq_len=128, seed=1)
    params = init_params(config)
    ids = np.arange(128) % 50
    tracemalloc.start()
    try:
        encode(params, config, ids)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_encode_keeps_no_layer_of_backward_cache():
    # inference frees each block's activations once the next block has its input
    assert _encode_peak(4) < 1.5 * _encode_peak(1)


def test_ops_are_looked_up_by_name_once_per_layer(params, monkeypatch):
    names = ("_layer_norm", "_self_attention", "_self_attention_backward", "_ffn",
             "_ffn_backward", "_layer_norm_backward")
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(network, name, counting(name, getattr(network, name)))
    encode(params, CFG, [3, 4, 5])
    assert calls == {"_layer_norm": 2 * CFG.num_layers, "_self_attention": CFG.num_layers,
                     "_ffn": CFG.num_layers, "_self_attention_backward": 0,
                     "_ffn_backward": 0, "_layer_norm_backward": 0}
    vocab = vocab_from_words(list("abcdefgh"))
    backward_detailed(params, CFG, tokenize_words(vocab, ["a"], ["b", "c"], [1, 0]))
    assert calls["_self_attention_backward"] == calls["_ffn_backward"] == CFG.num_layers
    assert calls["_layer_norm_backward"] == 2 * CFG.num_layers


def test_gradients_flow_to_used_embeddings_only(params):
    vocab = vocab_from_words(list("abcdefgh"))
    ex = tokenize_words(vocab, [], ["a", "b"], [1, 0])
    _, grads = backward_detailed(params, CFG, ex, "agnostic")[:2]
    used = set(ex.token_ids)
    g = grads["token_emb"]
    for row in range(CFG.vocab_size):
        if row in used:
            assert np.abs(g[row]).sum() > 0
        else:
            assert np.abs(g[row]).sum() == 0
    # positions beyond the sequence get no position-embedding gradient
    assert np.abs(grads["pos_emb"][2:]).sum() == 0


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=20, embed_dim=10, num_heads=4)  # not divisible
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=2)  # below reserved ids
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=20, max_seq_len=4)


@pytest.mark.parametrize("name, value", [
    ("embed_dim", 0), ("embed_dim", -4), ("num_heads", 0), ("num_heads", -2),
    ("ffn_dim", 0), ("num_layers", -1),
])
def test_model_config_rejects_sizes_below_one_naming_the_field(name, value):
    # num_heads 0 divided by zero, and negative sizes passed as shapes
    with pytest.raises(ValueError, match=f"^{name} must "):
        ModelConfig(vocab_size=20, **{name: value})


def test_model_config_allows_zero_layers():
    assert ModelConfig(vocab_size=20, num_layers=0).num_layers == 0


def _fields_and_wrong_values():
    cases = []
    for config_class in (ModelConfig, TrainConfig):
        for f in fields(config_class):
            wrong = ["64", True, None, [1]] + ([1.5] if f.type == "int" else [])
            if f.type == "str":
                wrong = [3, True, None, ["mask"]]
            cases += [(config_class, f.name, value) for value in wrong]
    return cases


@pytest.mark.parametrize("config_class, name, value", _fields_and_wrong_values())
def test_config_rejects_values_of_the_wrong_type_naming_the_field(config_class, name, value):
    base = {"vocab_size": 20} if config_class is ModelConfig else {}
    with pytest.raises(ValueError, match=f"^{name} must be (an integer|a number|a string), got "):
        config_class(**(base | {name: value}))


def test_config_accepts_numpy_numbers():
    config = ModelConfig(vocab_size=np.int64(20), embed_dim=np.int32(8), num_heads=2)
    assert config.head_dim == 4
    assert TrainConfig(learning_rate=np.float32(1e-3), epochs=np.int64(2)).epochs == 2


def test_default_model_takes_the_unshifted_softmax_path(monkeypatch):
    # the CLI's default model at init sits far below the shift guard's bound,
    # so its weights must be exactly exp of the raw scores
    config = ModelConfig(vocab_size=50)
    params = init_params(config)
    attention, exact = network._attention, []

    def checking(q, k, v):
        ctx_h, (e_t, s) = attention(q, k, v)
        exact.append(np.array_equal(e_t, np.exp(k @ q.transpose(0, 2, 1))))
        return ctx_h, (e_t, s)

    monkeypatch.setattr(network, "_attention", checking)
    encode(params, config, np.arange(config.max_seq_len) % config.vocab_size)
    assert exact == [True] * config.num_layers


@st.composite
def _mixed_precision_cases(draw):
    """A float64 model whose float32 rounding is exact, an example, its loss
    variant, and the side of the shift guard each layer's drawn score bound
    falls on."""
    heads = draw(st.sampled_from([1, 2, 4]))
    embed_dim = heads * draw(st.sampled_from([2, 4, 8]))
    layers = draw(st.integers(1, 3))
    length = draw(st.integers(1, 24))
    config = ModelConfig(vocab_size=20, embed_dim=embed_dim, num_layers=layers,
                         num_heads=heads, ffn_dim=2 * embed_dim, max_seq_len=24,
                         seed=draw(st.integers(0, 2**16)))
    ids = draw(st.lists(st.integers(3, 19), min_size=length, max_size=length))
    variant = draw(st.sampled_from(LOSS_VARIANTS))
    boundary = 0 if variant == "agnostic" else draw(st.integers(0, length - 1))
    labels = draw(st.lists(st.integers(0, 1), min_size=length - boundary,
                           max_size=length - boundary))
    # bounds on both sides of the guard at 20, far enough from it that the
    # float32 rounding of the scaled weights cannot move a layer across
    targets = draw(st.lists(st.floats(0.01, 10.0) | st.floats(40.0, 500.0),
                            min_size=layers, max_size=layers))
    params = init_params(config, dtype=np.float64)
    # scale each layer's wq and wk so its bound max‖q‖·max‖k‖ is the target;
    # a layer's bound depends on the layers before it, so go in order
    for i, target in enumerate(targets):
        bounds = []
        with pytest.MonkeyPatch.context() as patch:
            record_score_bounds(patch, bounds)
            encode(params, config, ids)
        for name in (f"layer{i}.wq", f"layer{i}.wk"):
            params[name][...] *= np.sqrt(target / bounds[i])
    tensors = {name: t.astype(np.float32).astype(np.float64)
               for name, t in params.tensors.items()}
    example = TokenizedExample(token_ids=tuple(ids), labels=tuple(labels), boundary=boundary)
    shifted = [t > network._SHIFT_BOUND for t in targets]
    return config, ModelParams(tensors), example, variant, shifted


@settings(max_examples=60, deadline=None)
@given(_mixed_precision_cases())
def test_float32_model_matches_float64(case):
    """The whole model in float32 against the same parameters in float64.

    The two differ by float32 rounding, which is relative to the size of
    the terms a value sums, not to the value: a query with one key has a
    softmax gradient that cancels to exactly 0, and ``cls_b`` sums
    per-position logit gradients of both signs. Every gradient flows from
    the same output gradient, so a tensor's terms are bounded by the
    largest gradient entry of the model, and the tolerance holds each
    tensor to its own largest entry plus a share of that model-wide size.
    """
    config, p64, example, variant, shifted = case
    p32 = ModelParams({name: t.astype(np.float32) for name, t in p64.tensors.items()})
    bounds = []
    with pytest.MonkeyPatch.context() as patch:
        record_score_bounds(patch, bounds)
        h32 = encode(p32, config, example.token_ids)
    assert [b > network._SHIFT_BOUND for b in bounds] == shifted
    h64 = encode(p64, config, example.token_ids)
    assert h32.dtype == np.float32
    assert np.abs(h32 - h64).max() <= 1e-4 * np.abs(h64).max()

    loss32, g32, probs32 = backward_detailed(p32, config, example, variant)
    loss64, g64, probs64 = backward_detailed(p64, config, example, variant)
    assert abs(loss32 - loss64) <= 1e-7 * abs(loss64)
    assert np.abs(probs32 - probs64).max() <= 1e-7
    model_size = max(np.abs(g).max() for g in g64.values())
    for name, want in g64.items():
        got = g32[name]
        assert got.dtype == np.float32
        size = np.abs(want).max() + 1e-2 * model_size
        assert np.abs(got - want).max() <= 1e-3 * size, name


@st.composite
def _example_sequences(draw):
    """A dtype, a loss variant and 1-4 examples of at least four tokens
    drawn from three ids, so every example repeats an id."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    variant = draw(st.sampled_from(LOSS_VARIANTS))
    examples = []
    for _ in range(draw(st.integers(1, 4))):
        boundary = 0 if variant == "agnostic" else draw(st.integers(0, 3))
        n = draw(st.integers(max(1, 4 - boundary), CFG.max_seq_len - boundary))
        ids = draw(st.lists(st.integers(3, 5), min_size=boundary + n, max_size=boundary + n))
        labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        examples.append(TokenizedExample(tuple(ids), tuple(labels), boundary))
    return dtype, variant, examples


@settings(max_examples=60, deadline=None)
@given(_example_sequences())
def test_pieces_added_in_order_give_the_bytes_of_backward_detailed(case):
    dtype, variant, examples = case
    # weights large enough that the examples' gradients differ in every tensor
    p = ModelParams({name: t if "_gamma" in name else t * dtype(20)
                     for name, t in init_params(CFG, dtype).tensors.items()})
    want = None
    results = []
    for ex in examples:
        loss, want, probs = backward_detailed(p, CFG, ex, variant, want)
        results.append((loss, probs))
    got = {name: np.zeros_like(t) for name, t in p.tensors.items()}
    for ex, (loss, probs) in zip(examples, results, strict=True):
        piece_loss, piece_probs, ids, dx, pieces = network.gradient_pieces(p, CFG, ex, variant)
        assert piece_loss == loss and piece_probs.tobytes() == probs.tobytes()
        assert set(pieces) == set(p.tensors) - {"token_emb", "pos_emb"}
        network.add_pieces(got, ids, dx, pieces)
    for name, table in want.items():
        assert got[name].dtype == table.dtype == dtype, name
        assert got[name].tobytes() == table.tobytes(), name


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([np.float32, np.float64]), st.booleans(), st.data())
def test_the_embedding_scatter_gives_the_bytes_of_a_row_scatter(dtype, c_order, data):
    rows = data.draw(st.integers(1, 6))  # few rows, so ids repeat
    width = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(1, CFG.max_seq_len))
    ids = np.array(data.draw(st.lists(st.integers(0, rows - 1), min_size=n, max_size=n)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # magnitudes far apart, so adding one row's values in another order rounds differently
    start = (rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-6, 7, (rows, width)))
    dx = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-6, 7, (n, width))
    start, dx = start.astype(dtype), dx.astype(dtype)
    grads = {"token_emb": np.array(start, order="C" if c_order else "F"),
             "pos_emb": np.zeros((CFG.max_seq_len, width), dtype)}
    network.add_embedding_gradient(grads, ids, dx)
    want = start.copy()
    np.add.at(want, ids, dx)
    assert grads["token_emb"].dtype == dtype
    assert np.ascontiguousarray(grads["token_emb"]).tobytes() == want.tobytes()
    assert grads["pos_emb"][:n].tobytes() == dx.tobytes()
    assert not grads["pos_emb"][n:].any()
