"""The (config, vocab, params) triple that moves through the pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..align import LabeledExample
from .config import ModelConfig
from .params import ModelParams, init_params
from .vocab import Vocab, build_vocab


@dataclass(frozen=True)
class Model:
    config: ModelConfig
    vocab: Vocab
    params: ModelParams


def new_model(dataset: Sequence[LabeledExample], **config_overrides) -> Model:
    """Fresh float32 model whose vocabulary covers the dataset.

    vocab_size is derived from the data; overrides (embed_dim=...,
    seed=..., etc.) apply on top of the ModelConfig defaults.
    """
    vocab = build_vocab(dataset)
    config = ModelConfig(vocab_size=vocab.size, **config_overrides)
    return Model(config=config, vocab=vocab, params=init_params(config))
