"""Synthetic corpora and small-model factories shared across tests.

The parity task is the workhorse: the instruction word decides whether
odd- or even-position words are kept, so a model can only solve it by
actually reading the instruction. Seeds here are frozen — several tests
assert exact expected outcomes of training on this data.
"""

from __future__ import annotations

import os
import random

import numpy as np

from efpc.align import LabeledExample
from efpc.model import (
    Model,
    ModelConfig,
    ModelParams,
    TokenizedExample,
    TrainConfig,
    backward_detailed,
    classify,
    encode,
    new_model,
    tensor_shapes,
    vocab_from_words,
)
from efpc.model import network
from efpc.model.losses import ce_loss_and_grad

PARITY_POOL = (
    "amber", "basalt", "cedar", "delta", "ember", "fjord", "garnet", "harbor",
    "indigo", "juniper", "kelp", "lagoon", "maple", "nectar", "onyx", "pearl",
)

TOY_STOPWORDS = ("the", "a", "of", "in", "is", "and", "to", "it", "on", "was")
TOY_CONTENT = (
    "falcon", "granite", "meadow", "copper", "willow", "summit", "harvest",
    "lantern", "meteor", "quartz", "timber", "venture", "walnut", "zephyr",
    "bramble", "cascade",
)


def parity_examples(n: int, seed: int, n_words: int = 10) -> list[LabeledExample]:
    """Instruction 'alpha' keeps odd 1-based positions, 'beta' keeps even."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        instr = "alpha" if i % 2 == 0 else "beta"
        words = [rng.choice(PARITY_POOL) for _ in range(n_words)]
        labels = [
            1 if ((j + 1) % 2 == 1) == (instr == "alpha") else 0
            for j in range(n_words)
        ]
        out.append(
            LabeledExample(words=(instr, *words), labels=(0, *labels), boundary_m=1)
        )
    return out


def toy_rule_examples(n: int, seed: int, n_words: int = 12) -> list[LabeledExample]:
    """Stopwords labeled 0, content words labeled 1; no instruction."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        words, labels = [], []
        for _ in range(n_words):
            if rng.random() < 0.45:
                words.append(rng.choice(TOY_STOPWORDS))
                labels.append(0)
            else:
                words.append(rng.choice(TOY_CONTENT))
                labels.append(1)
        out.append(
            LabeledExample(words=tuple(words), labels=tuple(labels), boundary_m=0)
        )
    return out


def small_model(dataset, *, embed_dim=32, num_layers=2, num_heads=4, ffn_dim=64,
                max_seq_len=16, seed=5) -> Model:
    return new_model(dataset, embed_dim=embed_dim, num_layers=num_layers,
                     num_heads=num_heads, ffn_dim=ffn_dim, max_seq_len=max_seq_len,
                     seed=seed)


def fast_train_config(**overrides) -> TrainConfig:
    base = dict(learning_rate=3e-3, batch_size=10, epochs=12,
                loss_variant="mask", seed=7)
    base.update(overrides)
    return TrainConfig(**base)


def use_cpus(monkeypatch, n: int) -> None:
    """Let efpc see ``n`` usable CPUs: with two or more, scoring and
    training use the helper process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def rigged_model(word_scores: dict[str, float], max_seq_len: int = 16) -> Model:
    """A model whose preserve probability is a fixed function of word
    identity: sigmoid(score), independent of position and context.

    All mixing weights are zero, so the residual stream carries the token
    embedding straight to the classifier. Lets tests pin exact rankings.
    """
    vocab = vocab_from_words(word_scores)
    config = ModelConfig(
        vocab_size=vocab.size, embed_dim=8, num_layers=1, num_heads=2,
        ffn_dim=16, max_seq_len=max_seq_len, seed=0,
    )
    tensors = {
        name: np.zeros(shape, dtype=np.float64)
        for name, shape in tensor_shapes(config).items()
    }
    for word, score in word_scores.items():
        tensors["token_emb"][vocab.encode_word(word), 0] = score
    tensors["cls_w"][0, 0] = 1.0  # preserve logit = score; discard logit = 0
    return Model(config=config, vocab=vocab, params=ModelParams(tensors))


def loss_agnostic(probs, labels) -> float:
    """Mean CE over all positions; no instruction prefix exists."""
    return ce_loss_and_grad("agnostic", probs, labels, 0)[0]


def loss_drop(probs, labels, boundary: int) -> float:
    """Mean CE over every position, prefix positions labeled discard."""
    return ce_loss_and_grad("drop", probs, labels, boundary)[0]


def loss_mask(probs, labels, boundary: int) -> float:
    """Mean CE over original positions only; prefix rows never contribute."""
    return ce_loss_and_grad("mask", probs, labels, boundary)[0]


def forward_loss(
    params: ModelParams,
    config: ModelConfig,
    example: TokenizedExample,
    loss_variant: str = TrainConfig.loss_variant,
) -> float:
    """Loss only, through inference's ``encode`` and ``classify``: the
    function the gradient oracle differences."""
    probs = classify(params, encode(params, config, example.token_ids))
    return ce_loss_and_grad(loss_variant, probs, example.labels, example.boundary)[0]


def zeros_like_params(params: ModelParams) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.tensors.items()}


def record_score_bounds(monkeypatch, bounds: list) -> None:
    """Append the score bound of every attention call to ``bounds``; the
    call takes the row-max shift where it exceeds ``network._SHIFT_BOUND``."""
    score_bound = network._score_bound

    def recording(q, k):
        bounds.append(score_bound(q, k))
        return bounds[-1]

    monkeypatch.setattr(network, "_score_bound", recording)


def max_grad_rel_err(
    params, config: ModelConfig, example: TokenizedExample, variant: str,
    eps: float = 1e-4,
) -> float:
    """Worst relative disagreement between the analytic gradient and a
    central finite difference, over every entry of every tensor.

    Parameters must be float64 for the difference quotient to resolve.
    """
    _, grads = backward_detailed(params, config, example, variant)[:2]
    worst = 0.0
    for name in sorted(grads):
        tensor = params[name]
        for idx in np.ndindex(*tensor.shape):
            orig = tensor[idx]
            tensor[idx] = orig + eps
            hi = forward_loss(params, config, example, variant)
            tensor[idx] = orig - eps
            lo = forward_loss(params, config, example, variant)
            tensor[idx] = orig
            numeric = (hi - lo) / (2.0 * eps)
            analytic = grads[name][idx]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / denom)
    return worst


# Documents with sentence-scoped facts: a question about one sentence lets
# the instruction-aware mock drop all the others, so its ratios run far
# above the instruction-free ones.
RATIO_DOCS = [
    (
        "The falcon glided over the granite ridge in the early light. "
        "A copper lantern hung on the old pier by the harbor. "
        "The meadow was full of willow seeds and the air was still. "
        "The harvest brought timber wagons to the town in the autumn.",
        "Where did the copper lantern hang?",
    ),
    (
        "The summit trail was steep and icy in the winter months. "
        "The meteor showers lit the night sky over the frozen lake. "
        "The walnut grove stood beyond the cascade and the mill. "
        "A kettle whistled on the stove in the keeper's hut.",
        "What lit the night sky?",
    ),
    (
        "The quartz vein sparkled in the mine shaft below the ridge. "
        "A zephyr stirred the bramble hedge near the garden gate. "
        "The venture of miners camped by the bend of the river. "
        "The willow shaded the long road to the harbor.",
        "Who camped by the river?",
    ),
    (
        "The lantern keeper climbed the tower stairs at dusk. "
        "A granite marker stood at the fork of the trail. "
        "The falcon nested on the ledge above the waterfall. "
        "The town held a harvest feast in the square.",
        "Where did the falcon nest?",
    ),
]
