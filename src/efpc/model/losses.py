"""Cross-entropy losses over per-position (preserve, discard) probabilities.

Three variants differ only in how the instruction prefix is handled:
``agnostic`` has no prefix, ``drop`` averages over every position with the
prefix labeled discard, and ``mask`` averages over original positions
only. ``ce_rows`` maps a variant to the rows and labels it averages and
``ce_loss_and_grad`` evaluates any variant through that one path, so the
two prefixed variants collapse to the agnostic loss at boundary 0 with
exact float equality.

Probabilities are clamped to [1e-12, 1−1e-12] before the log, and the
gradient is defined as zero wherever the clamp is active.
"""

from __future__ import annotations

import numpy as np

from ..errors import LengthMismatch

PROB_FLOOR = 1e-12
PROB_CEIL = 1.0 - 1e-12

# probability column layout: column 0 = preserve (label 1), column 1 = discard
PRESERVE_COL = 0
DISCARD_COL = 1


def ce_rows(variant: str, labels, boundary: int):
    """Included row range and full label vector for a loss variant.

    Returns (start_row, labels_for_rows): the loss averages rows from
    start_row on against labels_for_rows. The only place a variant is
    interpreted.
    """
    labels = np.asarray(labels)
    if variant == "agnostic":
        if boundary != 0:
            raise ValueError("agnostic loss requires boundary 0")
        return 0, labels
    if variant == "drop":
        return 0, np.concatenate([np.zeros(boundary, dtype=labels.dtype), labels])
    if variant == "mask":
        return boundary, labels
    raise ValueError(f"unknown loss variant {variant!r}")


def ce_loss_and_grad(variant: str, probs, labels, boundary: int) -> tuple[float, np.ndarray]:
    """Mean clamped CE of a loss variant over a (length, 2) probability
    array, for labels of the positions after ``boundary``, and its
    gradient with respect to the logits.

    The gradient is zero on rows the variant leaves out and on rows whose
    true-class probability hit the clamp, matching the loss's flat region
    there.
    """
    start, row_labels = ce_rows(variant, labels, boundary)
    probs = np.asarray(probs)
    if probs.ndim != 2 or probs.shape[1] != 2:
        raise LengthMismatch("probs must be a (length, 2) array")
    if boundary + len(labels) != len(probs):
        raise LengthMismatch(
            f"{len(probs)} positions need {len(probs) - boundary} labels, "
            f"got {len(labels)}"
        )
    block = probs[start:]
    count = len(block)
    rows = np.arange(count)
    cols = np.where(row_labels == 1, PRESERVE_COL, DISCARD_COL)
    p_true = block[rows, cols]
    loss = float(np.mean(-np.log(np.clip(p_true, PROB_FLOOR, PROB_CEIL))))

    onehot = np.zeros_like(block)
    onehot[rows, cols] = 1.0
    live = ((p_true > PROB_FLOOR) & (p_true < PROB_CEIL)).astype(block.dtype)
    grad = np.zeros_like(probs)
    grad[start:] = (block - onehot) * live[:, None] / count
    return loss, grad
