"""Parameter tensors for the encoder: named views of one flat array of one
dtype.

The key order of :func:`tensor_shapes` is the storage order of the
checkpoint format and must not change between releases.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
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
    """All trainable tensors, keyed by the names of tensor_shapes, as one
    FlatTable. A FlatTable is held as it is; any other mapping of arrays is
    copied into a new one, in its order, and ShapeMismatch is raised unless
    they all have one dtype."""

    tensors: FlatTable

    def __post_init__(self):
        tensors = self.tensors
        if not isinstance(tensors, FlatTable):
            if len({t.dtype for t in tensors.values()}) > 1:
                raise ShapeMismatch("parameter tensors must all have one dtype")
            flat = np.concatenate([t.reshape(-1) for t in tensors.values()])
            shapes = {name: t.shape for name, t in tensors.items()}
            object.__setattr__(self, "tensors", FlatTable(flat, shapes))

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def parameter_count(self) -> int:
        return self.tensors.flat.size


class FlatTable(Mapping):
    """Named tensors that are consecutive views of one 1-d array, ``flat``,
    in key order, so that element-wise work runs once over all of them.

    Assigning to a name writes into its view, and a value of another shape
    is refused; no name is ever rebound, so ``flat`` always holds every
    tensor. ``table[name] += g`` hands the view itself back and copies
    nothing."""

    def __init__(self, flat: np.ndarray, shapes: dict[str, tuple[int, ...]]):
        self._tensors: dict[str, np.ndarray] = {}
        at = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            self._tensors[name] = flat[at : at + size].reshape(shape)
            at += size
        self.flat = flat[:at]

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        view = self._tensors[name]
        if value is not view:
            if np.shape(value) != view.shape:
                raise ShapeMismatch(f"{name}: shape {np.shape(value)}, expected {view.shape}")
            view[...] = value

    def __iter__(self):
        return iter(self._tensors)

    def __len__(self) -> int:
        return len(self._tensors)

    @property
    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: t.shape for name, t in self._tensors.items()}

    def non_finite(self) -> str | None:
        """The first tensor that holds a non-finite value, if any."""
        if np.isfinite(self.flat).all():
            return None
        return next(name for name, t in self._tensors.items() if not np.isfinite(t).all())


def zeros_like(table: FlatTable) -> FlatTable:
    """A table of zeros laid out as ``table``."""
    return FlatTable(np.zeros_like(table.flat), table.shapes)


def init_params(config: ModelConfig, dtype=np.float32) -> ModelParams:
    """Gaussian init (std 0.02) for projections/embeddings, identity LN."""
    rng = np.random.default_rng(config.seed)
    shapes = tensor_shapes(config)
    tensors = FlatTable(np.zeros(sum(map(math.prod, shapes.values())), dtype), shapes)
    for name, t in tensors.items():
        if name.endswith(("ln1_gamma", "ln2_gamma")):
            t[...] = 1
        elif not name.endswith(("ln1_beta", "ln2_beta")) and name != "cls_b":
            t[...] = rng.normal(0.0, 0.02, t.shape)
    return ModelParams(tensors)


def validate_params(params: ModelParams, config: ModelConfig) -> None:
    """Raise ShapeMismatch unless every tensor is present, shaped, finite."""
    shapes = tensor_shapes(config)
    if set(params.tensors) != set(shapes):
        raise ShapeMismatch("parameter table does not match the configuration")
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise ShapeMismatch(f"{name}: expected shape {shape}, found {params[name].shape}")
    if (name := params.tensors.non_finite()) is not None:
        raise ShapeMismatch(f"{name}: contains non-finite values")
