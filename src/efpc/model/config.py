"""Configuration records for the encoder and its training loop."""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Integral, Real

LOSS_VARIANTS = ("agnostic", "drop", "mask")

# annotation -> (accepted types, name in the error message)
_KINDS = {"int": (Integral, "an integer"), "float": (Real, "a number"), "str": (str, "a string")}


def _check_types(config) -> None:
    """ValueError naming the first field whose value is not of its
    annotated kind; bool is no number here, though Python counts it one."""
    for f in fields(config):
        kind, name = _KINDS[f.type]
        value = getattr(config, f.name)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{f.name} must be {name}, got {type(value).__name__}")


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 128
    max_seq_len: int = 256
    seed: int = 0

    def __post_init__(self):
        _check_types(self)
        if self.vocab_size < 3:
            raise ValueError("vocab_size must cover the reserved ids")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError("embed_dim must be divisible by num_heads")
        if self.max_seq_len < 8:
            raise ValueError("max_seq_len must be at least 8")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 10
    epochs: int = 10
    loss_variant: str = "mask"
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        _check_types(self)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.loss_variant not in LOSS_VARIANTS:
            raise ValueError(f"loss_variant must be one of {LOSS_VARIANTS}")
