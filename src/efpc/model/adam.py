"""Adam with bias correction, updating the caller's parameters and the
state's moments in place and counting its ``step`` up. The parameters,
the gradients and both moments are FlatTables of one layout, and the update
runs over blocks of their flat arrays; every element goes through the same
operations as it would tensor by tensor. A gradient table of another
layout is refused before anything is written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatch
from .config import TrainConfig
from .params import FlatTable, ModelParams, zeros_like

# moment decay rates and the denominator's epsilon, fixed for every run
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
# elements per block of a flat update: its two temporaries stay in cache,
# which makes the blocks faster than one pass over everything
_BLOCK = 1 << 16


@dataclass
class AdamState:
    m: FlatTable
    v: FlatTable
    step: int


def init_adam(params: ModelParams) -> AdamState:
    """Zero moments, laid out as the parameters."""
    return AdamState(m=zeros_like(params.tensors), v=zeros_like(params.tensors), step=0)


def adam_step(
    params: ModelParams,
    grads: FlatTable,
    state: AdamState,
    config: TrainConfig,
) -> None:
    """One update: m,v moment tracking, bias correction, epsilon outside
    the square root."""
    layout = list(params.tensors.shapes.items())
    if not isinstance(grads, FlatTable) or list(grads.shapes.items()) != layout:
        raise ShapeMismatch("the gradient table is not laid out as the parameters")
    state.step += 1
    flats = [t.flat for t in (params.tensors, grads, state.m, state.v)]
    for lo in range(0, flats[0].size, _BLOCK):
        theta, g, m, v = (f[lo : lo + _BLOCK] for f in flats)
        # m = b1*m + (1-b1)*g,  v = b2*v + (1-b2)*g*g,
        # theta -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps): their
        # operations in their order, so their bits, in the parameter dtype
        scratch = np.multiply(g, 1.0 - BETA1, dtype=theta.dtype)
        m *= BETA1
        m += scratch
        np.multiply(g, 1.0 - BETA2, out=scratch)
        scratch *= g
        v *= BETA2
        v += scratch
        denom = np.divide(v, 1.0 - BETA2**state.step)
        np.sqrt(denom, out=denom)
        denom += EPSILON
        np.divide(m, 1.0 - BETA1**state.step, out=scratch)
        scratch *= config.learning_rate
        scratch /= denom
        theta -= scratch
        del scratch, denom  # freed before the next block's are made
