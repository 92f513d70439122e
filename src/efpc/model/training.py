"""Mini-batch training loop over labeled word examples.

Deterministic by construction: example order is shuffled by a seeded RNG,
gradients are summed into one table per batch in index order and then
averaged, and all arithmetic but the float64 head (``network.classify``)
stays in the parameter dtype. Two runs with the same model, data, and
config produce identical parameters and reports.

A run trains only the ``token_emb`` rows its examples use, renumbered
in id order. Adam leaves a row with zero gradient and zero moments exactly
as it was, so this gives the dense result while the step's cost follows
the rows the data uses rather than the vocabulary size.

Training stops with NumericalDivergence at the first example whose loss,
or batch whose gradient or stepped parameters, is not finite, rather than
carrying NaNs on to the end.

Incremental training is just calling train() on a loaded model; joint
training is calling it on the concatenation of the datasets.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..align import LabeledExample
from ..errors import EmptyDataset, NumericalDivergence
from .adam import adam_step, init_adam
from .bundle import Model
from .config import TrainConfig
from .losses import PRESERVE_COL
from .network import backward_detailed, classify, encode
from .params import ModelParams
from .tokenizer import TokenizedExample, window_example

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss: float
    token_accuracy: float


@dataclass(frozen=True)
class TrainReport:
    epochs: tuple[EpochStats, ...]


def prepare_examples(
    model: Model, dataset: Sequence[LabeledExample], loss_variant: str
) -> list[TokenizedExample]:
    """Tokenize and window a dataset for the given loss.

    The agnostic loss is defined on instruction-free input, so that
    variant windows the original words with no instruction.
    """
    agnostic = loss_variant == "agnostic"
    prepared: list[TokenizedExample] = []
    for ex in dataset:
        m = ex.boundary_m
        prepared.extend(
            window_example(
                model.vocab,
                () if agnostic else ex.words[:m],
                ex.words[m:],
                ex.labels[m:],
                model.config.max_seq_len,
            )
        )
    return prepared


def _batch_accuracy(probs: np.ndarray, example: TokenizedExample) -> tuple[int, int]:
    """Correct/total over original positions, predictions by argmax."""
    preserve = probs[example.boundary :, PRESERVE_COL]
    predicted = (preserve >= 0.5).astype(int)
    labels = np.asarray(example.labels)
    return int((predicted == labels).sum()), len(labels)


# a non-finite loss, gradient or parameter stops training with NumericalDivergence,
# so numpy's overflow warnings on the way there would only be noise
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(
    model: Model, dataset: Sequence[LabeledExample], config: TrainConfig
) -> tuple[Model, TrainReport]:
    """Optimize the model on the dataset; returns the final model and the
    per-epoch loss/accuracy trace."""
    if not dataset:
        raise EmptyDataset("no training examples")
    examples = prepare_examples(model, dataset, config.loss_variant)
    if not examples:
        raise EmptyDataset("dataset reduced to zero non-empty windows")

    rng = random.Random(config.seed)
    # the run trains its own copy of every tensor, of token_emb only the used
    # rows, with ids renumbered to their positions; the caller's stay as they are
    rows = np.unique(np.concatenate([ex.token_ids for ex in examples]))
    examples = [
        replace(ex, token_ids=tuple(np.searchsorted(rows, ex.token_ids).tolist()))
        for ex in examples
    ]
    emb = model.params["token_emb"]
    params = ModelParams(
        {k: emb[rows] if k == "token_emb" else t.copy() for k, t in model.params.tensors.items()}
    )
    state = init_adam(params)
    # one table for the run, zeroed again after each step
    grads = {k: np.zeros_like(t) for k, t in params.tensors.items()}
    stats: list[EpochStats] = []

    for epoch in range(config.epochs):
        order = list(range(len(examples)))
        rng.shuffle(order)
        loss_sum = 0.0
        correct = 0
        total = 0
        for batch_no, lo in enumerate(range(0, len(order), config.batch_size)):
            batch = [examples[i] for i in order[lo : lo + config.batch_size]]
            for ex in batch:
                loss, _, probs = backward_detailed(
                    params, model.config, ex, config.loss_variant, grads
                )
                if not math.isfinite(loss):
                    raise NumericalDivergence(
                        f"epoch {epoch} batch {batch_no}: loss is {loss}"
                    )
                loss_sum += loss
                c, t = _batch_accuracy(probs, ex)
                correct += c
                total += t
            for k, g in grads.items():
                if not np.isfinite(g).all():
                    raise NumericalDivergence(
                        f"epoch {epoch} batch {batch_no}: {k} gradient is not finite"
                    )
                g /= len(batch)
            adam_step(params, grads, state, config)
            for k, t in params.tensors.items():
                if not np.isfinite(t).all():
                    raise NumericalDivergence(
                        f"epoch {epoch} batch {batch_no}: {k} is not finite after the step"
                    )
            for g in grads.values():
                g.fill(0)
        stats.append(
            EpochStats(
                epoch=epoch,
                loss=loss_sum / len(examples),
                token_accuracy=correct / total if total else 0.0,
            )
        )
        logger.debug(
            "epoch %d: loss %.6f accuracy %.4f", epoch, stats[-1].loss, stats[-1].token_accuracy
        )

    emb = emb.copy()
    emb[rows] = params["token_emb"]
    trained = ModelParams({**params.tensors, "token_emb": emb})
    return replace(model, params=trained), TrainReport(epochs=tuple(stats))


def token_accuracy(
    model: Model,
    dataset: Sequence[LabeledExample],
    loss_variant: str = TrainConfig.loss_variant,
) -> tuple[float, list[float]]:
    """Mean and per-example fraction of original words classified right.

    ``loss_variant`` controls input construction through
    ``prepare_examples``, exactly as in training; the metric itself is
    always over original positions.
    """
    if not dataset:
        raise EmptyDataset("no examples to score")
    params = model.params
    per_example: list[float] = []
    correct = 0
    total = 0
    for ex in dataset:
        ex_correct = 0
        ex_total = 0
        for w in prepare_examples(model, [ex], loss_variant):
            probs = classify(params, encode(params, model.config, w.token_ids))
            c, t = _batch_accuracy(probs, w)
            ex_correct += c
            ex_total += t
        per_example.append(ex_correct / ex_total if ex_total else 0.0)
        correct += ex_correct
        total += ex_total
    return (correct / total if total else 0.0), per_example
