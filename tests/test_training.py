import numpy as np
import pytest

from efpc.align import LabeledExample
from efpc.errors import EmptyDataset, NumericalDivergence
from efpc.model import TrainConfig, prepare_examples, token_accuracy, train, training

from helpers import (
    fast_train_config,
    parity_examples,
    small_model,
    toy_rule_examples,
)


def test_learns_stopword_rule_to_perfection():
    # the rule is memorizable from word identity alone; a tiny model should
    # nail it within a handful of epochs
    train_set = toy_rule_examples(120, 5)
    test_set = toy_rule_examples(40, 6)
    model = small_model(train_set, embed_dim=16, num_layers=1, num_heads=2,
                        ffn_dim=32, seed=1)
    config = TrainConfig(learning_rate=5e-3, batch_size=10, epochs=10,
                         loss_variant="agnostic", seed=2)
    trained, report = train(model, train_set, config)
    assert len(report.epochs) == 10
    assert report.final.token_accuracy > 0.95
    acc, per_example = token_accuracy(trained, test_set, "agnostic")
    assert acc == pytest.approx(1.0)
    assert len(per_example) == 40


def test_training_is_deterministic():
    data = toy_rule_examples(30, 9)
    runs = []
    for _ in range(2):
        model = small_model(data, embed_dim=16, num_layers=1, num_heads=2,
                            ffn_dim=32, seed=3)
        runs.append(train(model, data, fast_train_config(epochs=3, seed=4,
                                                         loss_variant="agnostic")))
    (m1, r1), (m2, r2) = runs
    assert r1 == r2
    for name in m1.params.tensors:
        assert np.array_equal(m1.params[name], m2.params[name])


def test_loss_decreases_over_epochs():
    data = toy_rule_examples(60, 13)
    model = small_model(data, embed_dim=16, num_layers=1, num_heads=2,
                        ffn_dim=32, seed=8)
    _, report = train(model, data, fast_train_config(
        epochs=6, loss_variant="agnostic", learning_rate=2e-3))
    assert report.final.loss < report.epochs[0].loss


def test_incremental_training_continues_from_loaded_weights():
    data = parity_examples(60, 31)
    model = small_model(data)
    first, r1 = train(model, data, fast_train_config(epochs=2))
    second, r2 = train(first, data, fast_train_config(epochs=2))
    # the second leg starts where the first ended, so it must not repeat
    # the first leg's opening loss
    assert r2.epochs[0].loss < r1.epochs[0].loss
    assert not np.array_equal(
        second.params["cls_w"], first.params["cls_w"]
    )


def test_seed_changes_trajectory():
    data = toy_rule_examples(30, 9)
    model = small_model(data, embed_dim=16, num_layers=1, num_heads=2,
                        ffn_dim=32, seed=3)
    _, r1 = train(model, data, fast_train_config(epochs=2, seed=1,
                                                 loss_variant="agnostic"))
    _, r2 = train(model, data, fast_train_config(epochs=2, seed=2,
                                                 loss_variant="agnostic"))
    assert r1.epochs[0].loss != r2.epochs[0].loss


def test_empty_dataset_rejected():
    data = toy_rule_examples(5, 1)
    model = small_model(data)
    with pytest.raises(EmptyDataset):
        train(model, [], fast_train_config())
    with pytest.raises(EmptyDataset):
        token_accuracy(model, [])


def test_prepare_examples_strips_instruction_for_agnostic():
    data = parity_examples(3, 0)
    model = small_model(data)
    masked = prepare_examples(model, data, "mask")
    agnostic = prepare_examples(model, data, "agnostic")
    assert all(ex.boundary == 2 for ex in masked)  # instr word + SEP
    assert all(ex.boundary == 0 for ex in agnostic)
    assert masked[0].labels == agnostic[0].labels


def test_long_examples_are_windowed_for_training():
    words = tuple(f"w{i}" for i in range(40))
    data = [LabeledExample(words=words, labels=(0, 1) * 20, boundary_m=0)]
    model = small_model(data, max_seq_len=16)
    prepared = prepare_examples(model, data, "agnostic")
    assert [len(ex.token_ids) for ex in prepared] == [16, 16, 8]
    trained, report = train(model, data, fast_train_config(
        epochs=1, loss_variant="agnostic"))
    assert np.isfinite(report.final.loss)


def test_divergent_loss_stops_training_naming_epoch_and_batch():
    data = toy_rule_examples(4, 3)
    model = small_model(data, embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32)
    with pytest.raises(NumericalDivergence, match=r"^epoch \d+ batch \d+: loss is nan$"):
        train(model, data, fast_train_config(learning_rate=1e9, batch_size=2,
                                             loss_variant="agnostic"))


def test_non_finite_gradient_stops_training_before_the_update(monkeypatch):
    data = toy_rule_examples(6, 3)
    model = small_model(data, embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32)
    original = training.backward_detailed
    calls = []

    def poisoned(*args, **kwargs):
        loss, grads, probs = original(*args, **kwargs)
        calls.append(1)
        if len(calls) == 5:  # the first example of the third batch
            grads["layer0.w1"][0, 0] = np.inf
        return loss, grads, probs

    steps = []
    monkeypatch.setattr(training, "backward_detailed", poisoned)
    monkeypatch.setattr(training, "adam_step", _counting(training.adam_step, steps))
    with pytest.raises(NumericalDivergence,
                       match=r"^epoch 0 batch 2: layer0.w1 gradient is not finite$"):
        train(model, data, fast_train_config(batch_size=2, loss_variant="agnostic"))
    assert len(steps) == 2


def _counting(fn, calls):
    def counted(*args):
        calls.append(1)
        return fn(*args)
    return counted
