"""Finite-difference spot check of the analytic backward pass.

The acceptance suite sweeps every parameter of a two-layer model for all
three loss variants; this keeps a faster single-layer version in the
regular suite so a broken gradient fails close to home.
"""

import numpy as np

from efpc.model import ModelConfig, init_params, tokenize_words, vocab_from_words
from efpc.model import network

from helpers import max_grad_rel_err, record_score_bounds

TOL = 1e-3


def test_gradients_match_finite_differences_mask():
    config = ModelConfig(
        vocab_size=12, embed_dim=8, num_layers=1, num_heads=2, ffn_dim=16,
        max_seq_len=10, seed=11,
    )
    params = init_params(config, dtype=np.float64)
    vocab = vocab_from_words(list("abcdefgh"))
    ex = tokenize_words(vocab, ["a", "b"], ["c", "d", "e", "f"], [1, 0, 0, 1])
    assert max_grad_rel_err(params, config, ex, "mask") < TOL


def test_gradients_match_finite_differences_agnostic():
    config = ModelConfig(
        vocab_size=12, embed_dim=8, num_layers=1, num_heads=2, ffn_dim=16,
        max_seq_len=10, seed=12,
    )
    params = init_params(config, dtype=np.float64)
    vocab = vocab_from_words(list("abcdefgh"))
    ex = tokenize_words(vocab, [], ["c", "d", "e", "f", "g"], [1, 0, 1, 0, 1])
    assert max_grad_rel_err(params, config, ex, "agnostic") < TOL


def test_gradients_match_finite_differences_on_the_shifted_path(monkeypatch):
    # wq and wk scaled 60x put the score bound max‖q‖·max‖k‖ near 33, above
    # the guard, so every attention call subtracts the row maximum
    config = ModelConfig(
        vocab_size=12, embed_dim=8, num_layers=1, num_heads=2, ffn_dim=16,
        max_seq_len=10, seed=11,
    )
    params = init_params(config, dtype=np.float64)
    for name in ("layer0.wq", "layer0.wk"):
        params[name][...] *= 60.0
    vocab = vocab_from_words(list("abcdefgh"))
    ex = tokenize_words(vocab, ["a", "b"], ["c", "d", "e", "f"], [1, 0, 0, 1])
    bounds = []
    record_score_bounds(monkeypatch, bounds)
    assert max_grad_rel_err(params, config, ex, "mask") < TOL
    assert min(bounds) > network._SHIFT_BOUND
