"""Parameter tensors for the encoder, kept in one name-keyed table.

The tensor order returned by :func:`tensor_order` is the storage order of
the checkpoint format and must not change between releases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatch
from .config import ModelConfig

_LAYER_TENSORS = (
    "ln1_gamma",
    "ln1_beta",
    "wq",
    "wk",
    "wv",
    "wo",
    "ln2_gamma",
    "ln2_beta",
    "w1",
    "w2",
)


def tensor_order(config: ModelConfig) -> tuple[str, ...]:
    """Canonical tensor names: embeddings, layers in order, classifier."""
    names = ["token_emb", "pos_emb"]
    for i in range(config.num_layers):
        names.extend(f"layer{i}.{t}" for t in _LAYER_TENSORS)
    names.extend(["cls_w", "cls_b"])
    return tuple(names)


def tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, f = config.embed_dim, config.ffn_dim
    shapes: dict[str, tuple[int, ...]] = {
        "token_emb": (config.vocab_size, d),
        "pos_emb": (config.max_seq_len, d),
        "cls_w": (2, d),
        "cls_b": (2,),
    }
    per_layer = {
        "ln1_gamma": (d,),
        "ln1_beta": (d,),
        "wq": (d, d),
        "wk": (d, d),
        "wv": (d, d),
        "wo": (d, d),
        "ln2_gamma": (d,),
        "ln2_beta": (d,),
        "w1": (d, f),
        "w2": (f, d),
    }
    for i in range(config.num_layers):
        for t, shape in per_layer.items():
            shapes[f"layer{i}.{t}"] = shape
    return shapes


@dataclass(frozen=True)
class ModelParams:
    """All trainable tensors, keyed by the names in tensor_order."""

    tensors: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    @property
    def dtype(self) -> np.dtype:
        return self.tensors["token_emb"].dtype

    def astype(self, dtype) -> ModelParams:
        return ModelParams({k: v.astype(dtype) for k, v in self.tensors.items()})

    def parameter_count(self) -> int:
        return sum(v.size for v in self.tensors.values())


def init_params(config: ModelConfig, dtype=np.float32) -> ModelParams:
    """Gaussian init (std 0.02) for projections/embeddings, identity LN."""
    rng = np.random.default_rng(config.seed)
    shapes = tensor_shapes(config)
    tensors: dict[str, np.ndarray] = {}
    for name in tensor_order(config):
        shape = shapes[name]
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
    order = tensor_order(config)
    if set(params.tensors) != set(order):
        raise ShapeMismatch("parameter table does not match the configuration")
    for name in order:
        arr = params.tensors[name]
        if arr.shape != shapes[name]:
            raise ShapeMismatch(
                f"{name}: expected shape {shapes[name]}, found {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ShapeMismatch(f"{name}: contains non-finite values")
