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
from efpc.text_core import split_words

from helpers import rigged_model


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
