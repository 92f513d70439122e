"""Parameter tensors for the encoder, kept in one name-keyed table.

The key order of :func:`tensor_shapes` is the storage order of the
checkpoint format and must not change between releases.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatch
from .config import ModelConfig


# one layer's tensors, in storage order; the encoder reads them by these names
LAYER_TENSORS = (
    "ln1_gamma", "ln1_beta", "wq", "wk", "wv", "wo", "ln2_gamma", "ln2_beta", "w1", "w2",
)


def _layout(config: ModelConfig) -> tuple[dict[str, tuple[int, ...]], ...]:
    """Shapes of the tensors before the layers, of one layer, and after
    the layers, each in storage order."""
    d, f = config.embed_dim, config.ffn_dim
    layer = ((d,), (d,), (d, d), (d, d), (d, d), (d, d), (d,), (d,), (d, f), (f, d))
    return (
        {"token_emb": (config.vocab_size, d), "pos_emb": (config.max_seq_len, d)},
        dict(zip(LAYER_TENSORS, layer, strict=True)),
        {"cls_w": (2, d), "cls_b": (2,)},
    )


def tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every tensor's shape, keyed in storage order: embeddings, layers in
    order, classifier."""
    before, layer, after = _layout(config)
    shapes = dict(before)
    for i in range(config.num_layers):
        shapes.update((f"layer{i}.{t}", shape) for t, shape in layer.items())
    shapes.update(after)
    return shapes


def tensor_count(config: ModelConfig) -> int:
    """``len(tensor_shapes(config))``, without building the names."""
    before, layer, after = _layout(config)
    return len(before) + config.num_layers * len(layer) + len(after)


@dataclass(frozen=True)
class ModelParams:
    """All trainable tensors, keyed by the names of tensor_shapes."""

    tensors: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def parameter_count(self) -> int:
        return sum(v.size for v in self.tensors.values())


class FlatTable(dict):
    """Tensors that are consecutive views of one 1-d array, ``flat``, in
    key order, so that element-wise work can run once over all of them."""

    def __init__(self, flat: np.ndarray, shapes: dict[str, tuple[int, ...]]):
        super().__init__()
        at = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            self[name] = flat[at : at + size].reshape(shape)
            at += size
        self.flat = flat[:at]
        self._views = tuple(self.values())


def flat_of(table: dict[str, np.ndarray]) -> np.ndarray | None:
    """``table.flat`` if ``table`` is a FlatTable that still holds its own
    views, else None."""
    views = getattr(table, "_views", None)
    if views is None or len(views) != len(table):
        return None
    return table.flat if all(map(operator.is_, views, table.values())) else None


def zeros_like(table: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """A table of zeros shaped like ``table``, flat where ``table`` is."""
    flat = flat_of(table)
    if flat is None:
        return {k: np.zeros_like(t) for k, t in table.items()}
    return FlatTable(np.zeros_like(flat), {k: t.shape for k, t in table.items()})


def init_params(config: ModelConfig, dtype=np.float32) -> ModelParams:
    """Gaussian init (std 0.02) for projections/embeddings, identity LN."""
    rng = np.random.default_rng(config.seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(config).items():
        if name.endswith(("ln1_gamma", "ln2_gamma")):
            arr = np.ones(shape)
        elif name.endswith(("ln1_beta", "ln2_beta")) or name == "cls_b":
            arr = np.zeros(shape)
        else:
            arr = rng.normal(0.0, 0.02, shape)
        tensors[name] = arr.astype(dtype)
    return ModelParams(tensors)


def validate_params(params: ModelParams, config: ModelConfig) -> None:
    """Raise ShapeMismatch unless every tensor is present, shaped, finite."""
    shapes = tensor_shapes(config)
    if set(params.tensors) != set(shapes):
        raise ShapeMismatch("parameter table does not match the configuration")
    for name, shape in shapes.items():
        arr = params.tensors[name]
        if arr.shape != shape:
            raise ShapeMismatch(f"{name}: expected shape {shape}, found {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ShapeMismatch(f"{name}: contains non-finite values")
