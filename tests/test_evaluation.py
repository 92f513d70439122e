from dataclasses import dataclass

import pytest

from efpc.compressor import CompressionResult
from efpc.errors import EmptyDataset, InsufficientData, TransportError
from efpc.evaluation import (
    ANSWER_PROMPT,
    ContextAnswerTarget,
    QARecord,
    data_efficiency_sweep,
    evaluate_downstream,
    token_accuracy,
)
from efpc.model import train

from helpers import fast_train_config, parity_examples, small_model


def _result(text: str, n_original: int | None = None) -> CompressionResult:
    words = tuple(text.split())
    n = n_original if n_original is not None else len(words)
    return CompressionResult(
        kept_words=words,
        kept_indices=tuple(range(len(words))),
        probabilities=(0.5,) * n,
        achieved_inverse_ratio=n / len(words),
    )


@dataclass(frozen=True)
class _FixedTarget:
    reply: str
    provider_id: str = "fixed"

    def complete(self, messages):
        return self.reply


@dataclass(frozen=True)
class _FailingTarget:
    provider_id: str = "failing"

    def complete(self, messages):
        raise TransportError("target unavailable")


def test_answer_prompt_carries_context_and_question():
    prompt = ANSWER_PROMPT.format(context="kept words", question="what?")
    assert "Context:\nkept words" in prompt
    assert "Question:\nwhat?" in prompt


def test_context_answer_target_reads_after_question_term():
    target = ContextAnswerTarget(max_words=3)
    prompt = ANSWER_PROMPT.format(
        context="the lantern hung on the pier at dusk",
        question="Where did the lantern hang?",
    )
    # "the" is the first context word matching a question term
    answer = target.complete([{"role": "user", "content": prompt}])
    assert answer == "lantern hung on"


def test_context_answer_target_falls_back_to_context_head():
    target = ContextAnswerTarget(max_words=2)
    prompt = ANSWER_PROMPT.format(context="granite ridge trail", question="zebras?")
    assert target.complete([{"role": "user", "content": prompt}]) == "granite ridge"


def test_evaluate_downstream_perfect_target():
    items = [
        (_result("ctx one"), QARecord(question="q1", gold_answers=("good answer",))),
        (_result("ctx two"), QARecord(question="q2", gold_answers=("good answer",))),
    ]
    report = evaluate_downstream(_FixedTarget("good answer"), items)
    assert report.n_scored == 2
    assert report.n_failed == 0
    assert report.metrics["token_f1"] == pytest.approx(1.0)
    assert report.metrics["rouge_l"] == pytest.approx(1.0)
    assert report.metrics["bleu"] == pytest.approx(1.0)


def test_evaluate_downstream_counts_and_ratios():
    items = [
        (
            _result("a b c", n_original=12),
            QARecord(question="q", gold_answers=("a",)),
        ),
        (
            _result("d e f g h i", n_original=12),
            QARecord(question="q", gold_answers=("d",)),
        ),
    ]
    report = evaluate_downstream(_FixedTarget("a"), items)
    assert report.metrics["mean_original_units"] == pytest.approx(12.0)
    assert report.metrics["mean_kept_units"] == pytest.approx(4.5)
    assert report.metrics["mean_achieved_inverse_ratio"] == pytest.approx(3.0)


def test_evaluate_downstream_excludes_failures_from_means():
    @dataclass(frozen=True)
    class _FlakyTarget:
        provider_id: str = "flaky"
    
        def complete(self, messages):
            if "poison" in messages[-1]["content"]:
                raise TransportError("boom")
            return "gold"

    items = [
        (_result("fine"), QARecord(question="q", gold_answers=("gold",))),
        (_result("poison"), QARecord(question="q", gold_answers=("gold",))),
        (_result("fine"), QARecord(question="q", gold_answers=("gold",))),
    ]
    report = evaluate_downstream(_FlakyTarget(), items)
    assert report.n_scored == 2
    assert report.n_failed == 1
    assert len(report.failures) == 1
    assert "item 1" in report.failures[0]
    assert report.metrics["token_f1"] == pytest.approx(1.0)
    assert {e["index"] for e in report.per_example} == {0, 2}


def test_evaluate_downstream_all_failures():
    items = [(_result("x"), QARecord(question="q", gold_answers=("g",)))]
    report = evaluate_downstream(_FailingTarget(), items)
    assert report.n_scored == 0
    assert report.n_failed == 1
    assert report.metrics["token_f1"] == 0.0


def test_qa_record_requires_gold_answers():
    with pytest.raises(ValueError):
        QARecord(question="q", gold_answers=())


@pytest.fixture(scope="module")
def sweep_setup():
    data = parity_examples(20, 21)
    base = small_model(data)
    base, _ = train(base, data, fast_train_config(epochs=2, seed=3))
    return base, parity_examples(40, 22), parity_examples(12, 23)


def test_sweep_zero_fraction_is_exactly_the_base_model(sweep_setup):
    base, extra, eval_set = sweep_setup
    sweep = data_efficiency_sweep(
        base, extra, (0.0, 1.0), eval_set, fast_train_config(epochs=1, seed=17)
    )
    base_acc, _ = token_accuracy(base, eval_set, "mask")
    assert sweep.cells[0].report.metrics["token_accuracy"] == base_acc
    assert sweep.cells[0].report.metrics["n_extra"] == 0.0
    assert sweep.cells[1].report.metrics["n_extra"] == 40.0
    assert sweep.cells[0].fraction == 0.0


def test_sweep_is_deterministic(sweep_setup):
    base, extra, eval_set = sweep_setup
    runs = [
        data_efficiency_sweep(
            base, extra, (0.5,), eval_set, fast_train_config(epochs=1, seed=17)
        )
        for _ in range(2)
    ]
    assert runs[0].cells == runs[1].cells


def test_sweep_cell_does_not_depend_on_the_other_fractions(sweep_setup):
    base, extra, eval_set = sweep_setup
    tc = fast_train_config(epochs=1, seed=17)
    alone = data_efficiency_sweep(base, extra, (0.5,), eval_set, tc).cells[0]
    listed = data_efficiency_sweep(base, extra, (0.0, 0.5), eval_set, tc).cells[1]
    assert listed.report.metrics["token_accuracy"] == alone.report.metrics["token_accuracy"]
    assert listed == alone


def test_sweep_validates_fractions(sweep_setup):
    base, extra, eval_set = sweep_setup
    tc = fast_train_config(epochs=1)
    with pytest.raises(ValueError):
        data_efficiency_sweep(base, extra, (), eval_set, tc)
    with pytest.raises(ValueError):
        data_efficiency_sweep(base, extra, (0.5, 0.5), eval_set, tc)
    with pytest.raises(ValueError):
        data_efficiency_sweep(base, extra, (0.8, 0.2), eval_set, tc)
    with pytest.raises(ValueError):
        data_efficiency_sweep(base, extra, (-0.1, 0.5), eval_set, tc)
    with pytest.raises(ValueError):
        data_efficiency_sweep(base, extra, (0.5, 1.1), eval_set, tc)


def test_sweep_requires_data_where_needed(sweep_setup):
    base, extra, eval_set = sweep_setup
    tc = fast_train_config(epochs=1)
    with pytest.raises(InsufficientData):
        data_efficiency_sweep(base, [], (0.5,), eval_set, tc)
    with pytest.raises(InsufficientData):
        # 0.001 of 40 examples rounds to zero
        data_efficiency_sweep(base, extra, (0.001,), eval_set, tc)
    with pytest.raises(EmptyDataset):
        data_efficiency_sweep(base, extra, (0.5,), [], tc)
    # a pure-baseline sweep needs no extra data at all
    sweep = data_efficiency_sweep(base, [], (0.0,), eval_set, tc)
    assert sweep.cells[0].report.metrics["n_extra"] == 0.0
