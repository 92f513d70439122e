"""Adam with bias correction, updating the caller's parameters and the
state's moments in place and counting its ``step`` up. A gradient table
that does not match the parameters is refused before anything is written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatch
from .config import TrainConfig
from .params import ModelParams

# moment decay rates and the denominator's epsilon, fixed for every run
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int


def init_adam(params: ModelParams) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(t) for k, t in params.tensors.items()},
        v={k: np.zeros_like(t) for k, t in params.tensors.items()},
        step=0,
    )


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> None:
    """One update: m,v moment tracking, bias correction, epsilon outside
    the square root."""
    if set(grads) != set(params.tensors):
        raise ShapeMismatch("gradient table keys do not match parameters")
    for name, theta in params.tensors.items():
        if grads[name].shape != theta.shape:
            raise ShapeMismatch(
                f"{name}: gradient shape {grads[name].shape} != parameter shape {theta.shape}"
            )
    state.step += 1
    for name, theta in params.tensors.items():
        g, m, v = grads[name], state.m[name], state.v[name]
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
        del scratch, denom  # freed before the next tensor's are made
