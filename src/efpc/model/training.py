"""Mini-batch training loop over labeled word examples.

Deterministic by construction: example order is shuffled by a seeded RNG,
gradients are summed into one table per batch in index order and then
averaged, and all arithmetic but the float64 head (``network.classify``)
stays in the parameter dtype. A run keeps its parameters, its gradient
table and Adam's moments as flat tables of one layout (``FlatTable``), so
the per-batch checks, the averaging, the Adam step and the zeroing run
once over all the tensors; each element goes through the same operations
as it would tensor by tensor. With two usable CPUs, a helper process
computes the gradient pieces of the second share of each batch of two or
more windows (see ``twocore``); this process still adds them into the
table one example at a time, in index order, after its own share, so
every float add happens in the same order. Two runs with the same model,
data, and config produce identical parameters and reports, on one core
or on two.

A run trains only the ``token_emb`` rows its examples use, renumbered
in id order. Adam leaves a row with zero gradient and zero moments exactly
as it was, so this gives the dense result while the step's cost follows
the rows the data uses rather than the vocabulary size.

Training stops with NumericalDivergence at the first example whose loss,
or batch whose gradient or stepped parameters, is not finite, rather than
carrying NaNs on to the end. A model whose tensors do not all have one
dtype is refused with ShapeMismatch before training starts.

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
from ..errors import EmptyDataset, NumericalDivergence, ShapeMismatch
from . import twocore
from .adam import adam_step, init_adam
from .bundle import Model
from .config import TrainConfig
from .losses import PRESERVE_COL
from .network import backward_detailed, classify, encode
from .params import FlatTable, ModelParams
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


def _batch_accuracy(preserve: np.ndarray, labels: Sequence[int]) -> tuple[int, int]:
    """Correct/total over original positions, from their preserve
    probabilities; predictions by argmax."""
    predicted = (preserve >= 0.5).astype(int)
    return int((predicted == np.asarray(labels)).sum()), len(labels)


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
    if any(t.dtype != emb.dtype for t in model.params.tensors.values()):
        raise ShapeMismatch("parameter tensors must all have one dtype")
    shapes = {k: (rows.size, *emb.shape[1:]) if k == "token_emb" else t.shape
              for k, t in model.params.tensors.items()}
    longest = max(len(ex.token_ids) for ex in examples)
    stats: list[EpochStats] = []

    with twocore.TrainingRun(shapes, emb.dtype, model.config, longest,
                             config.batch_size) as run:
        # flat tables: the checks, the averaging, Adam and the zeroing after
        # each step run once over all the tensors
        params, grads = run.params, run.grads
        for k, t in params.tensors.items():
            if k == "token_emb":
                np.take(emb, rows, axis=0, out=t)
            else:
                t[...] = model.params[k]
        state = init_adam(params)
        for epoch in range(config.epochs):
            order = list(range(len(examples)))
            rng.shuffle(order)
            loss_sum = 0.0
            correct = 0
            total = 0
            for batch_no, lo in enumerate(range(0, len(order), config.batch_size)):
                batch = [examples[i] for i in order[lo : lo + config.batch_size]]
                where = f"epoch {epoch} batch {batch_no}"
                results = run.gradients(batch, config.loss_variant, backward_detailed)
                for ex, (loss, probs) in zip(batch, results, strict=True):
                    if not math.isfinite(loss):
                        raise NumericalDivergence(f"{where}: loss is {loss}")
                    loss_sum += loss
                    c, t = _batch_accuracy(probs[ex.boundary :, PRESERVE_COL], ex.labels)
                    correct += c
                    total += t
                if (name := _non_finite(grads)) is not None:
                    raise NumericalDivergence(f"{where}: {name} gradient is not finite")
                grads.flat /= len(batch)
                adam_step(params, grads, state, config)
                if (name := _non_finite(params.tensors)) is not None:
                    raise NumericalDivergence(f"{where}: {name} is not finite after the step")
                grads.flat.fill(0)
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

        # copied out before the run ends: the next run writes over its tables
        emb = emb.copy()
        emb[rows] = params["token_emb"]
        trained = ModelParams(
            {k: emb if k == "token_emb" else t.copy() for k, t in params.tensors.items()}
        )
    return replace(model, params=trained), TrainReport(epochs=tuple(stats))


def _non_finite(table: FlatTable) -> str | None:
    """The first tensor of the flat table that holds a non-finite value, if any."""
    if np.isfinite(table.flat).all():
        return None
    return next(k for k, t in table.items() if not np.isfinite(t).all())


def token_accuracy(
    model: Model,
    dataset: Sequence[LabeledExample],
    loss_variant: str = TrainConfig.loss_variant,
) -> tuple[float, list[float]]:
    """Mean and per-example fraction of original words classified right.

    ``loss_variant`` controls input construction through
    ``prepare_examples``, exactly as in training; the metric itself is
    always over original positions. All the windows are scored in one
    go, so they share the two cores where there are two.
    """
    if not dataset:
        raise EmptyDataset("no examples to score")
    windows = [prepare_examples(model, [ex], loss_variant) for ex in dataset]
    flat = [(w.token_ids, w.boundary) for ws in windows for w in ws]
    # an example whose words are all instruction has no window
    preserve = (twocore.score_windows(model.params, model.config, flat, encode, classify)
                if flat else np.empty(0))
    per_example: list[float] = []
    correct = 0
    total = 0
    start = 0
    for ws in windows:
        ex_correct = 0
        ex_total = 0
        for w in ws:
            c, t = _batch_accuracy(preserve[start : start + len(w.labels)], w.labels)
            start += len(w.labels)
            ex_correct += c
            ex_total += t
        per_example.append(ex_correct / ex_total if ex_total else 0.0)
        correct += ex_correct
        total += ex_total
    return (correct / total if total else 0.0), per_example
