"""Functional Adam with bias correction.

States are immutable; each step returns fresh parameter and moment
tables, which keeps training trajectories trivially reproducible and lets
callers keep any snapshot they like.
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


@dataclass(frozen=True)
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
) -> tuple[ModelParams, AdamState]:
    """One update: m,v moment tracking, bias correction, epsilon outside
    the square root."""
    if set(grads) != set(params.tensors):
        raise ShapeMismatch("gradient table keys do not match parameters")
    t = state.step + 1
    b1, b2 = BETA1, BETA2
    new_params: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for name, theta in params.tensors.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ShapeMismatch(
                f"{name}: gradient shape {g.shape} != parameter shape {theta.shape}"
            )
        # m = b1*m + (1-b1)*g,  v = b2*v + (1-b2)*g*g,
        # theta - lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps):
        # the same operations in the same order, so the same bits, written
        # into the three fresh outputs and one scratch array, all in the
        # parameter dtype
        scratch = np.multiply(g, 1.0 - b1, dtype=theta.dtype)
        m = np.multiply(state.m[name], b1)
        m += scratch
        np.multiply(g, 1.0 - b2, out=scratch)
        scratch *= g
        v = np.multiply(state.v[name], b2)
        v += scratch
        new = np.divide(v, 1.0 - b2**t)
        np.sqrt(new, out=new)
        new += EPSILON
        np.divide(m, 1.0 - b1**t, out=scratch)
        scratch *= config.learning_rate
        scratch /= new
        np.subtract(theta, scratch, out=new)
        new_params[name] = new
        new_m[name] = m
        new_v[name] = v
    return ModelParams(new_params), AdamState(m=new_m, v=new_v, step=t)
