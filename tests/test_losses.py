import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efpc.errors import LengthMismatch
from efpc.model import (
    LOSS_VARIANTS,
    ModelConfig,
    TokenizedExample,
    backward_detailed,
    init_params,
)
from efpc.model.losses import ce_loss_and_grad, ce_rows

from helpers import forward_loss, loss_agnostic, loss_drop, loss_mask

LN2 = math.log(2.0)


def probs_for(p_preserve):
    p = np.asarray(p_preserve, dtype=np.float64)
    return np.stack([p, 1.0 - p], axis=1)


def test_uniform_probabilities_give_ln2():
    probs = probs_for([0.5, 0.5, 0.5])
    labels = np.array([1, 0, 1])
    assert loss_agnostic(probs, labels) == pytest.approx(LN2, abs=1e-15)


def test_three_quarters_confidence():
    # every position assigns 0.75 to its true class
    probs = probs_for([0.75, 0.25, 0.75])
    labels = np.array([1, 0, 1])
    assert loss_agnostic(probs, labels) == pytest.approx(0.2876820724517809, abs=1e-12)


def test_mixed_confidence_hand_computed():
    probs = probs_for([0.9, 0.3])
    labels = np.array([1, 1])
    expected = -(math.log(0.9) + math.log(0.3)) / 2.0
    assert loss_agnostic(probs, labels) == pytest.approx(expected, abs=1e-15)


def test_perfect_probability_is_clamped():
    probs = probs_for([1.0])
    labels = np.array([0])  # true class got probability 0
    assert loss_agnostic(probs, labels) == pytest.approx(-math.log(1e-12), rel=1e-9)
    labels = np.array([1])  # true class got probability 1 -> clamp to 1-1e-12
    assert loss_agnostic(probs, labels) == pytest.approx(0.0, abs=1e-9)


def test_boundary_zero_variants_are_bitwise_equal():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(1, 30)
        probs = probs_for(rng.uniform(0.01, 0.99, n))
        labels = rng.integers(0, 2, n)
        base = loss_agnostic(probs, labels)
        assert loss_drop(probs, labels, 0) == base
        assert loss_mask(probs, labels, 0) == base


def test_drop_counts_prefix_as_discard():
    # prefix row predicts discard with 0.8; original rows 0.6/0.7 on truth
    probs = probs_for([0.2, 0.6, 0.3])
    labels = np.array([1, 0])
    expected = -(math.log(0.8) + math.log(0.6) + math.log(0.7)) / 3.0
    assert loss_drop(probs, labels, 1) == pytest.approx(expected, abs=1e-15)


def test_mask_averages_original_rows_only():
    probs = probs_for([0.123, 0.6, 0.3])
    labels = np.array([1, 0])
    expected = -(math.log(0.6) + math.log(0.7)) / 2.0
    assert loss_mask(probs, labels, 1) == pytest.approx(expected, abs=1e-15)


def test_mask_is_insensitive_to_prefix_probabilities():
    labels = np.array([1, 0, 1])
    a = probs_for([0.99, 0.01, 0.6, 0.4, 0.7])
    b = probs_for([0.50, 0.50, 0.6, 0.4, 0.7])
    assert loss_mask(a, labels, 2) == loss_mask(b, labels, 2)
    assert loss_drop(a, labels, 2) != loss_drop(b, labels, 2)


def test_length_validation():
    probs = probs_for([0.5, 0.5])
    with pytest.raises(LengthMismatch):
        loss_agnostic(probs, np.array([1]))
    with pytest.raises(LengthMismatch):
        loss_mask(probs, np.array([1, 0]), 1)
    with pytest.raises(LengthMismatch):
        loss_drop(np.array([0.5, 0.5]), np.array([1]), 0)  # not (n, 2)


def test_ce_rows_contracts():
    labels = np.array([1, 0])
    start, full = ce_rows("mask", labels, 3)
    assert start == 3 and np.array_equal(full, labels)
    start, full = ce_rows("drop", labels, 3)
    assert start == 0 and np.array_equal(full, [0, 0, 0, 1, 0])
    start, full = ce_rows("agnostic", labels, 0)
    assert start == 0 and np.array_equal(full, labels)
    with pytest.raises(ValueError):
        ce_rows("agnostic", labels, 1)
    with pytest.raises(ValueError):
        ce_rows("focal", labels, 0)


def test_grad_logits_single_row():
    probs = probs_for([0.8])
    grad = ce_loss_and_grad("agnostic", probs, np.array([1]), 0)[1]
    assert np.allclose(grad, [[0.8 - 1.0, 0.2]], atol=1e-15)


def test_grad_logits_excluded_rows_are_zero():
    probs = probs_for([0.9, 0.8, 0.7])
    grad = ce_loss_and_grad("mask", probs, np.array([1, 0]), 1)[1]
    assert np.array_equal(grad[0], [0.0, 0.0])
    # included rows divide by the included count, not the total length
    assert grad[1] == pytest.approx([(0.8 - 1.0) / 2, 0.2 / 2])


def test_grad_logits_zero_where_clamped():
    probs = probs_for([1.0, 0.5])
    grad = ce_loss_and_grad("agnostic", probs, np.array([0, 1]), 0)[1]
    assert np.array_equal(grad[0], [0.0, 0.0])
    assert np.abs(grad[1]).sum() > 0


def test_grad_matches_finite_difference_of_loss():
    rng = np.random.default_rng(3)
    logits = rng.normal(0.0, 1.0, (6, 2))

    def loss_of(lg):
        e = np.exp(lg - lg.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        return loss_mask(p, labels, 2)

    labels = rng.integers(0, 2, 4)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    analytic = ce_loss_and_grad("mask", probs, labels, 2)[1]
    eps = 1e-6
    for i in range(6):
        for j in range(2):
            hi = logits.copy()
            hi[i, j] += eps
            lo = logits.copy()
            lo[i, j] -= eps
            numeric = (loss_of(hi) - loss_of(lo)) / (2 * eps)
            assert analytic[i, j] == pytest.approx(numeric, abs=1e-8)


# ---------------------------------------------- one loss rule everywhere

TINY = ModelConfig(vocab_size=12, embed_dim=8, num_layers=1, num_heads=2, ffn_dim=16,
                   max_seq_len=16, seed=2)
TINY_PARAMS = init_params(TINY)


@st.composite
def _loss_cases(draw):
    """Probabilities, labels and boundary, plus a tokenized example of the
    same shape for the model-level entry points."""
    boundary = draw(st.integers(0, 4))
    labels = draw(st.lists(st.integers(0, 1), min_size=1, max_size=8))
    length = boundary + len(labels)
    p = draw(st.lists(st.floats(0.0, 1.0), min_size=length, max_size=length))
    ids = draw(st.lists(st.integers(3, TINY.vocab_size - 1), min_size=length,
                        max_size=length))
    probs = np.stack([np.array(p), 1.0 - np.array(p)], axis=1)
    example = TokenizedExample(token_ids=tuple(ids), labels=tuple(labels), boundary=boundary)
    return probs, np.array(labels), boundary, example


def _error(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def _two_pass_reference(variant, probs, labels, boundary):
    """The loss and logit gradient as two separate passes over the rows,
    each picking the true-class probability its own way."""
    start, row_labels = ce_rows(variant, labels, boundary)
    block = probs[start:]
    p_true = np.where(row_labels == 1, block[:, 0], block[:, 1])
    loss = float(np.mean(-np.log(np.clip(p_true, 1e-12, 1.0 - 1e-12))))
    rows = np.arange(len(block))
    cols = np.where(row_labels == 1, 0, 1)
    onehot = np.zeros_like(block)
    onehot[rows, cols] = 1.0
    picked = block[rows, cols]
    live = ((picked > 1e-12) & (picked < 1.0 - 1e-12)).astype(block.dtype)
    grad = np.zeros_like(probs)
    grad[start:] = (block - onehot) * live[:, None] / len(block)
    return loss, grad


@settings(max_examples=60, deadline=None)
@given(_loss_cases(), st.sampled_from(LOSS_VARIANTS))
def test_loss_and_gradient_match_a_two_pass_reference_bit_for_bit(case, variant):
    probs, labels, boundary, _ = case
    if variant == "agnostic":
        boundary, probs = 0, probs[boundary:]
    loss, grad = ce_loss_and_grad(variant, probs, labels, boundary)
    ref_loss, ref_grad = _two_pass_reference(variant, probs, labels, boundary)
    assert loss == ref_loss
    assert np.array_equal(grad, ref_grad)


@settings(max_examples=40, deadline=None)
@given(_loss_cases(), st.text(max_size=8).filter(lambda v: v not in LOSS_VARIANTS))
def test_unknown_variant_raises_the_same_error_everywhere(case, variant):
    probs, labels, boundary, example = case
    errors = {
        _error(ce_loss_and_grad, variant, probs, labels, boundary),
        _error(forward_loss, TINY_PARAMS, TINY, example, variant),
        _error(backward_detailed, TINY_PARAMS, TINY, example, variant),
    }
    assert errors == {(ValueError, f"unknown loss variant {variant!r}")}


@settings(max_examples=30, deadline=None)
@given(_loss_cases().filter(lambda case: case[2] > 0))
def test_agnostic_loss_on_a_prefixed_example_raises_the_same_error_everywhere(case):
    probs, labels, boundary, example = case
    errors = {
        _error(ce_loss_and_grad, "agnostic", probs, labels, boundary),
        _error(forward_loss, TINY_PARAMS, TINY, example, "agnostic"),
        _error(backward_detailed, TINY_PARAMS, TINY, example, "agnostic"),
    }
    assert errors == {(ValueError, "agnostic loss requires boundary 0")}
