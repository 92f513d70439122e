import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efpc.align import LabeledExample
from efpc.errors import EmptyDataset, NumericalDivergence, ShapeMismatch
from efpc.model import (
    Model,
    ModelConfig,
    ModelParams,
    TrainConfig,
    adam_step,
    backward_detailed,
    init_adam,
    init_params,
    prepare_examples,
    token_accuracy,
    train,
    training,
    vocab_from_words,
)

from helpers import (
    fast_train_config,
    parity_examples,
    small_model,
    toy_rule_examples,
    use_cpus,
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
    assert report.epochs[-1].token_accuracy > 0.95
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
    assert report.epochs[-1].loss < report.epochs[0].loss


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
    assert all(a.token_ids == m.token_ids[2:] for a, m in zip(agnostic, masked))


def test_long_examples_are_windowed_for_training():
    words = tuple(f"w{i}" for i in range(40))
    data = [LabeledExample(words=words, labels=(0, 1) * 20, boundary_m=0)]
    model = small_model(data, max_seq_len=16)
    prepared = prepare_examples(model, data, "agnostic")
    assert [len(ex.token_ids) for ex in prepared] == [16, 16, 8]
    trained, report = train(model, data, fast_train_config(
        epochs=1, loss_variant="agnostic"))
    assert np.isfinite(report.epochs[-1].loss)


def test_divergent_loss_stops_training_naming_epoch_and_batch():
    data = toy_rule_examples(4, 3)
    model = small_model(data, embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32)
    cls_b = model.params["cls_b"].copy()
    cls_b[0] = np.nan
    poisoned = replace(model, params=ModelParams({**model.params.tensors, "cls_b": cls_b}))
    with pytest.raises(NumericalDivergence, match=r"^epoch 0 batch 0: loss is nan$"):
        train(poisoned, data, fast_train_config(batch_size=2, loss_variant="agnostic"))


def test_huge_learning_rate_stops_training_naming_epoch_and_batch():
    # which check fires first, the loss or a gradient, depends on the
    # kernels' rounding; either way the run stops and says where
    data = toy_rule_examples(4, 3)
    model = small_model(data, embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32)
    with pytest.raises(NumericalDivergence,
                       match=r"^epoch \d+ batch \d+: (loss is nan|\S+ gradient is not finite)$"):
        train(model, data, fast_train_config(learning_rate=1e9, batch_size=2,
                                             loss_variant="agnostic"))


def test_non_finite_parameters_after_a_step_stop_training():
    # at this rate the gradients are finite but Adam's step overflows float32
    data = parity_examples(10, 1)
    model = small_model(data)
    before = {k: t.copy() for k, t in model.params.tensors.items()}
    with pytest.raises(NumericalDivergence,
                       match=r"^epoch 0 batch 0: \S+ is not finite after the step$"):
        train(model, data, fast_train_config(learning_rate=1e300, epochs=1))
    for k, t in model.params.tensors.items():
        np.testing.assert_array_equal(t, before[k])


@pytest.mark.parametrize("cpus", [1, 2])
def test_non_finite_gradient_stops_training_before_the_update(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    data = toy_rule_examples(6, 3)
    model = small_model(data, embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32)
    original = training.backward_detailed
    poisoned_once = []

    def poisoned(*args, **kwargs):
        loss, grads, probs = original(*args, **kwargs)
        # the first example of the third batch, which this process computes
        # also when the helper takes the second share
        if len(steps) == 2 and not poisoned_once:
            poisoned_once.append(1)
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


def _dense_train(model, dataset, config):
    """The training loop before the row rule: a fresh dense gradient table
    per batch, checked and averaged whole, and Adam over every row."""
    examples = prepare_examples(model, dataset, config.loss_variant)
    rng = random.Random(config.seed)
    # a copy: each step overwrites the tensors in place
    params = ModelParams({k: t.copy() for k, t in model.params.tensors.items()})
    state = init_adam(params)
    losses = []
    for _ in range(config.epochs):
        order = list(range(len(examples)))
        rng.shuffle(order)
        loss_sum = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = [examples[i] for i in order[lo : lo + config.batch_size]]
            grads = {k: np.zeros_like(t) for k, t in params.tensors.items()}
            for ex in batch:
                loss, grads, _ = backward_detailed(params, model.config, ex,
                                                   config.loss_variant, grads)
                loss_sum += loss
            for g in grads.values():
                assert np.isfinite(g).all()
                g /= len(batch)
            adam_step(params, grads, state, config)
        losses.append(loss_sum / len(examples))
    return params, losses


USED = ("ant", "bee", "cow", "dog", "eel", "fox")
UNUSED = tuple(f"never{i}" for i in range(12))


@st.composite
def _runs(draw):
    variant = draw(st.sampled_from(["agnostic", "drop", "mask"]))
    examples = []
    for _ in range(draw(st.integers(1, 6))):
        n_instr = draw(st.integers(0, 2))
        n_words = draw(st.integers(1, 12))
        words = tuple(draw(st.lists(st.sampled_from(USED), min_size=n_instr + n_words,
                                    max_size=n_instr + n_words)))
        labels = (0,) * n_instr + tuple(draw(st.lists(st.integers(0, 1), min_size=n_words,
                                                      max_size=n_words)))
        examples.append(LabeledExample(words=words, labels=labels, boundary_m=n_instr))
    config = TrainConfig(learning_rate=draw(st.sampled_from([1e-3, 3e-2])),
                         batch_size=draw(st.integers(1, 4)), epochs=draw(st.integers(1, 3)),
                         loss_variant=variant, seed=draw(st.integers(0, 9)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return examples, config, dtype, draw(st.integers(0, 9))


@settings(max_examples=40, deadline=None)
@given(_runs())
def test_train_matches_the_dense_loop_bit_for_bit(run):
    dataset, config, dtype, seed = run
    # the unused words get rows that no example touches
    vocab = vocab_from_words(USED + UNUSED)
    model_config = ModelConfig(vocab_size=vocab.size, embed_dim=8, num_layers=2,
                               num_heads=2, ffn_dim=16, max_seq_len=8, seed=seed)
    model = Model(config=model_config, vocab=vocab,
                  params=init_params(model_config, dtype=dtype))
    want_params, want_losses = _dense_train(model, dataset, config)
    trained, report = train(model, dataset, config)
    assert [e.loss for e in report.epochs] == want_losses
    assert list(trained.params.tensors) == list(want_params.tensors)
    for name, want in want_params.tensors.items():
        got = trained.params[name]
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def test_train_leaves_the_callers_parameters_untouched():
    data = parity_examples(12, 2)
    model = small_model(data, embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32)
    before = {k: t.copy() for k, t in model.params.tensors.items()}
    trained, _ = train(model, data, fast_train_config(epochs=2, batch_size=4))
    for name, tensor in before.items():
        assert np.array_equal(model.params[name], tensor), name
    assert not np.array_equal(trained.params["token_emb"], before["token_emb"])


def test_adam_sees_only_the_embedding_rows_the_data_touches(monkeypatch):
    data = [LabeledExample(words=("ant", "bee", "cow", "bee", "dog", "eel"),
                           labels=(0, 1, 1, 0, 1, 0), boundary_m=0)] * 3
    vocab = vocab_from_words(USED[:5] + tuple(f"type{i}" for i in range(1000)))
    config = ModelConfig(vocab_size=vocab.size, embed_dim=8, num_layers=1, num_heads=2,
                         ffn_dim=16, max_seq_len=8, seed=1)
    model = Model(config=config, vocab=vocab, params=init_params(config))
    touched = np.unique(np.concatenate(
        [ex.token_ids for ex in prepare_examples(model, data, "agnostic")]))
    assert touched.size == 5
    rows = []
    original = training.adam_step

    def spy(params, grads, state, cfg):
        rows.append((params["token_emb"].shape[0], grads["token_emb"].shape[0],
                     state.m["token_emb"].shape[0], state.v["token_emb"].shape[0]))
        return original(params, grads, state, cfg)

    monkeypatch.setattr(training, "adam_step", spy)
    trained, _ = train(model, data, TrainConfig(learning_rate=1e-2, batch_size=2, epochs=2,
                                                loss_variant="agnostic"))
    assert len(rows) == 4
    assert all(max(r) <= touched.size for r in rows)
    untouched = np.setdiff1d(np.arange(vocab.size), touched)
    assert np.array_equal(trained.params["token_emb"][untouched],
                          model.params["token_emb"][untouched])
    assert not np.array_equal(trained.params["token_emb"][touched],
                              model.params["token_emb"][touched])


def test_a_model_whose_tensors_mix_dtypes_is_refused():
    # a run's tables are flat arrays of one dtype
    data = parity_examples(4, 1)
    model = small_model(data, embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32)
    mixed = ModelParams({**model.params.tensors, "cls_b": model.params["cls_b"].astype(np.float64)})
    with pytest.raises(ShapeMismatch, match="^parameter tensors must all have one dtype$"):
        train(replace(model, params=mixed), data, fast_train_config(epochs=1))
