import random
from collections import Counter

import pytest

from efpc.evaluation import bleu, rouge_l, rouge_n, token_f1, token_f1_max

from metric_fixtures import BLEU_CASES, ROUGE_1_CASES, ROUGE_2_CASES, ROUGE_L_CASES, TOKEN_F1_CASES

TOL = 1e-9


@pytest.mark.parametrize("predicted,gold,expected", TOKEN_F1_CASES)
def test_token_f1_fixture(predicted, gold, expected):
    assert token_f1(predicted, gold) == pytest.approx(expected, abs=TOL)


@pytest.mark.parametrize("candidate,reference,expected", ROUGE_1_CASES)
def test_rouge_1_fixture(candidate, reference, expected):
    assert rouge_n(candidate, reference, 1).f1 == pytest.approx(expected, abs=TOL)


@pytest.mark.parametrize("candidate,reference,expected", ROUGE_2_CASES)
def test_rouge_2_fixture(candidate, reference, expected):
    assert rouge_n(candidate, reference, 2).f1 == pytest.approx(expected, abs=TOL)


@pytest.mark.parametrize("candidate,reference,expected", ROUGE_L_CASES)
def test_rouge_l_fixture(candidate, reference, expected):
    assert rouge_l(candidate, reference).f1 == pytest.approx(expected, abs=TOL)


@pytest.mark.parametrize("candidate,references,max_n,expected", BLEU_CASES)
def test_bleu_fixture(candidate, references, max_n, expected):
    assert bleu(candidate, references, max_n) == pytest.approx(expected, abs=TOL)


def test_rouge_n_precision_recall_components():
    score = rouge_n("a b c d", "b d", 1)
    assert score.precision == pytest.approx(0.5, abs=TOL)
    assert score.recall == pytest.approx(1.0, abs=TOL)


def test_rouge_l_precision_recall_components():
    score = rouge_l("a b c d", "a c d")
    assert score.precision == pytest.approx(0.75, abs=TOL)
    assert score.recall == pytest.approx(1.0, abs=TOL)


def test_rouge_n_rejects_bad_order():
    with pytest.raises(ValueError):
        rouge_n("a", "a", 0)


def test_bleu_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bleu("a", [], 4)
    with pytest.raises(ValueError):
        bleu("a", ["a"], 0)


def test_token_f1_max_takes_best_gold():
    assert token_f1_max("cat", ["dog", "cat", "bird"]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        token_f1_max("cat", [])


def _random_text(rng, lo=0, hi=8):
    return " ".join(rng.choice("abcdef") for _ in range(rng.randint(lo, hi)))


def test_metric_ranges_and_identities():
    rng = random.Random(11)
    for _ in range(200):
        x, y = _random_text(rng), _random_text(rng)
        for value in (
            token_f1(x, y),
            rouge_n(x, y, 1).f1,
            rouge_n(x, y, 2).f1,
            rouge_l(x, y).f1,
            bleu(x, [y]) if x or y else 0.0,
        ):
            assert 0.0 <= value <= 1.0
        # symmetry of the bag-of-words measure
        assert token_f1(x, y) == pytest.approx(token_f1(y, x), abs=TOL)
        # equal sequences are perfect matches
        assert rouge_l(x, x).f1 == pytest.approx(1.0, abs=TOL)
        assert token_f1(x, x) == pytest.approx(1.0, abs=TOL)
        if x and y:
            # rouge-l never exceeds rouge-1: an LCS is a word-level matching
            assert rouge_l(x, y).f1 <= rouge_n(x, y, 1).f1 + TOL


def _bag_of_words_f1(predicted, gold):
    """Token F1 written out on its own, as a reference."""
    pred, ref = Counter(predicted.lower().split()), Counter(gold.lower().split())
    if not pred and not ref:
        return 1.0
    overlap = sum((pred & ref).values())
    if overlap == 0:
        return 0.0
    precision = overlap / sum(pred.values())
    recall = overlap / sum(ref.values())
    return 2 * precision * recall / (precision + recall)


def test_token_f1_equals_the_written_out_formula_exactly():
    rng = random.Random(12)
    for _ in range(300):
        x, y = _random_text(rng), _random_text(rng)
        assert token_f1(x, y) == _bag_of_words_f1(x, y)
