from dataclasses import fields

import numpy as np
import pytest

from efpc.errors import SequenceTooLong
from efpc.model import (
    ModelConfig,
    ModelParams,
    TrainConfig,
    backward,
    classify,
    encode,
    forward_loss,
    init_params,
    tokenize_words,
    vocab_from_words,
)

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


def test_backward_loss_matches_forward_loss(params):
    vocab = vocab_from_words(list("abcdefgh"))
    ex = tokenize_words(vocab, ["a"], ["b", "c", "d"], [1, 0, 1])
    for variant in ("mask", "drop"):
        loss, grads = backward(params, CFG, ex, variant)
        assert loss == pytest.approx(forward_loss(params, CFG, ex, variant), abs=1e-12)
        assert set(grads) == set(params.tensors)
        for name, g in grads.items():
            assert g.shape == params[name].shape


def test_gradients_flow_to_used_embeddings_only(params):
    vocab = vocab_from_words(list("abcdefgh"))
    ex = tokenize_words(vocab, [], ["a", "b"], [1, 0])
    _, grads = backward(params, CFG, ex, "agnostic")
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
