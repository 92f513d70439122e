"""Encoder forward pass and hand-derived backward pass.

Architecture: learned token + position embeddings, then pre-norm blocks
    x ← x + Attn(LN1(x))
    x ← x + FFN(LN2(x))
with multi-head self-attention (no projection biases), a GELU feed-forward
(no biases), and no final normalization. A 2-way linear head with bias
turns each hidden state into (preserve, discard) logits.

The forward pass keeps, per block, what the backward pass reads back:
the block input ``x_in``, LN1's ``(xhat, inv_std)`` and output ``a``, the
per-head ``q``, ``k``, ``v``, the attention weights ``attn`` and merged
context ``ctx``, the post-attention residual ``x_mid``, LN2's cache and
output ``b``, the FFN pre-activation ``u``, the GELU's ``tanh`` term ``t``
and its output ``g``.

The backward pass mirrors the forward step by step; its correctness is
pinned by a central-finite-difference test over every parameter of a
small model, so any change here must keep that test green. It adds each
gradient into a table, so a training batch sums its examples into one
table with no per-example copy.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import SequenceTooLong
from .config import ModelConfig
from .losses import ce_grad_logits, ce_rows, loss_agnostic, loss_drop, loss_mask
from .params import ModelParams
from .tokenizer import TokenizedExample

_LN_EPS = 1e-5
_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mu) * inv_std
    return xhat * gamma + beta, (xhat, inv_std)


def _layer_norm_backward(dy: np.ndarray, cache, gamma: np.ndarray):
    xhat, inv_std = cache
    dgamma = (dy * xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dxhat = dy * gamma
    mean1 = dxhat.mean(axis=-1, keepdims=True)
    mean2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv_std * (dxhat - mean1 - xhat * mean2)
    return dx, dgamma, dbeta


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-approximated GELU and its tanh term, which the gradient reuses.

    The cube is ``x * x * x``: ``x**3`` goes through ``pow``, which costs
    over a hundred times as much on float32.
    """
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def _gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu(x) / dx, given the tanh term ``t`` that ``_gelu(x)`` returned."""
    return 0.5 * (1.0 + t) + 0.5 * _GELU_C * x * (1.0 - t * t) * (1.0 + 3.0 * _GELU_A * (x * x))


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    length, d = x.shape
    return x.reshape(length, num_heads, d // num_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    heads, length, head_dim = x.shape
    return x.transpose(1, 0, 2).reshape(length, heads * head_dim)


def _softmax_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, written to ``out`` (``x`` itself for an
    in-place softmax) or to a new array; shift, exp and normalize run in
    that order either way, so both give the same bits."""
    e = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_rows_backward(dy: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient through ``y = _softmax_rows(x)``, ``y * (dy - rowsum(dy * y))``,
    computed in place on ``dy`` with the same bits as that expression."""
    dy -= (dy * y).sum(axis=-1, keepdims=True)
    dy *= y
    return dy


def _forward(params: ModelParams, config: ModelConfig, token_ids) -> tuple[np.ndarray, dict]:
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("token_ids must be a nonempty 1-d sequence")
    length = ids.shape[0]
    if length > config.max_seq_len:
        raise SequenceTooLong(f"{length} tokens exceed limit {config.max_seq_len}")

    x = params["token_emb"][ids] + params["pos_emb"][:length]
    cache: dict = {"ids": ids, "layers": []}
    # plain-float scale so float32 parameters keep a float32 forward pass
    scale = 1.0 / math.sqrt(config.head_dim)

    for i in range(config.num_layers):
        p = lambda t: params[f"layer{i}.{t}"]  # noqa: E731
        layer: dict = {"x_in": x}

        a, layer["ln1"] = _layer_norm(x, p("ln1_gamma"), p("ln1_beta"))
        layer["a"] = a
        q = _split_heads(a @ p("wq"), config.num_heads)
        k = _split_heads(a @ p("wk"), config.num_heads)
        v = _split_heads(a @ p("wv"), config.num_heads)
        scores = q @ k.transpose(0, 2, 1)
        scores *= scale
        attn = _softmax_rows(scores, out=scores)
        ctx = _merge_heads(attn @ v)
        layer.update(q=q, k=k, v=v, attn=attn, ctx=ctx)
        x = x + ctx @ p("wo")

        layer["x_mid"] = x
        b, layer["ln2"] = _layer_norm(x, p("ln2_gamma"), p("ln2_beta"))
        u = b @ p("w1")
        g, t = _gelu(u)
        layer.update(b=b, u=u, t=t, g=g)
        x = x + g @ p("w2")

        cache["layers"].append(layer)

    return x, cache


def encode(params: ModelParams, config: ModelConfig, token_ids) -> np.ndarray:
    """Hidden state per position; raises SequenceTooLong past the limit."""
    h, _ = _forward(params, config, token_ids)
    return h


def classify(params: ModelParams, h: np.ndarray) -> np.ndarray:
    """(preserve, discard) probability pair per position.

    Computed in double precision so each row sums to 1 within 1e-12
    regardless of the parameter dtype.
    """
    logits = h.astype(np.float64) @ params["cls_w"].T.astype(np.float64)
    logits += params["cls_b"].astype(np.float64)
    return _softmax_rows(logits)


def _loss_from_probs(variant: str, probs: np.ndarray, example: TokenizedExample) -> float:
    labels = np.asarray(example.labels)
    if variant == "agnostic":
        return loss_agnostic(probs, labels)
    if variant == "drop":
        return loss_drop(probs, labels, example.boundary)
    return loss_mask(probs, labels, example.boundary)


def backward(
    params: ModelParams,
    config: ModelConfig,
    example: TokenizedExample,
    loss_variant: str = "mask",
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss value and its exact gradient for every parameter tensor."""
    loss, grads, _ = backward_detailed(params, config, example, loss_variant)
    return loss, grads


def backward_detailed(
    params: ModelParams,
    config: ModelConfig,
    example: TokenizedExample,
    loss_variant: str = "mask",
    grads: dict[str, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """backward() plus the per-position probabilities of the same pass.

    The gradient is added into ``grads``, which is returned; without one,
    a zero table is made. Passing the returned table back in sums the
    gradients of several examples.
    """
    h, cache = _forward(params, config, example.token_ids)
    length = h.shape[0]
    if grads is None:
        grads = {k: np.zeros_like(t) for k, t in params.tensors.items()}

    logits = h @ params["cls_w"].T + params["cls_b"]
    probs = _softmax_rows(logits)
    loss = _loss_from_probs(loss_variant, probs, example)

    start, row_labels = ce_rows(loss_variant, np.asarray(example.labels), example.boundary)
    dlogits = ce_grad_logits(probs, row_labels, start)
    grads["cls_w"] += dlogits.T @ h
    grads["cls_b"] += dlogits.sum(axis=0)
    dx = dlogits @ params["cls_w"]

    scale = 1.0 / math.sqrt(config.head_dim)
    for i in reversed(range(config.num_layers)):
        p = lambda t: params[f"layer{i}.{t}"]  # noqa: E731
        layer = cache["layers"][i]

        # x_out = x_mid + gelu(LN2(x_mid) @ w1) @ w2
        dffn_out = dx
        grads[f"layer{i}.w2"] += layer["g"].T @ dffn_out
        du = dffn_out @ p("w2").T
        du *= _gelu_grad(layer["u"], layer["t"])
        grads[f"layer{i}.w1"] += layer["b"].T @ du
        db = du @ p("w1").T
        dx_mid, dg2, db2 = _layer_norm_backward(db, layer["ln2"], p("ln2_gamma"))
        grads[f"layer{i}.ln2_gamma"] += dg2
        grads[f"layer{i}.ln2_beta"] += db2
        dx = dx + dx_mid

        # x_mid = x_in + merge(attn @ v) @ wo
        dattn_out = dx
        grads[f"layer{i}.wo"] += layer["ctx"].T @ dattn_out
        dctx = _split_heads(dattn_out @ p("wo").T, config.num_heads)
        attn = layer["attn"]
        dv = attn.transpose(0, 2, 1) @ dctx
        dscores = _softmax_rows_backward(dctx @ layer["v"].transpose(0, 2, 1), attn)
        dq = (dscores @ layer["k"]) * scale
        dk = (dscores.transpose(0, 2, 1) @ layer["q"]) * scale
        a = layer["a"]
        dq_m, dk_m, dv_m = (_merge_heads(t) for t in (dq, dk, dv))
        grads[f"layer{i}.wq"] += a.T @ dq_m
        grads[f"layer{i}.wk"] += a.T @ dk_m
        grads[f"layer{i}.wv"] += a.T @ dv_m
        da = dq_m @ p("wq").T + dk_m @ p("wk").T + dv_m @ p("wv").T
        dx_in, dg1, db1 = _layer_norm_backward(da, layer["ln1"], p("ln1_gamma"))
        grads[f"layer{i}.ln1_gamma"] += dg1
        grads[f"layer{i}.ln1_beta"] += db1
        dx = dx + dx_in

    np.add.at(grads["token_emb"], cache["ids"], dx)
    grads["pos_emb"][:length] += dx

    return loss, grads, probs


def forward_loss(
    params: ModelParams,
    config: ModelConfig,
    example: TokenizedExample,
    loss_variant: str = "mask",
) -> float:
    """Loss only, via the same forward path backward differentiates."""
    h, _ = _forward(params, config, example.token_ids)
    logits = h @ params["cls_w"].T + params["cls_b"]
    return _loss_from_probs(loss_variant, _softmax_rows(logits), example)
