"""Encoder forward pass and hand-derived backward pass.

Architecture: learned token + position embeddings, then pre-norm blocks
    x ← x + Attn(LN1(x))
    x ← x + FFN(LN2(x))
with multi-head self-attention (no projection biases), a GELU feed-forward
(no biases), and no final normalization. A 2-way linear head with bias
turns each hidden state into (preserve, discard) logits.

Inference is ``encode`` then ``classify``; training is
``backward_detailed``, which runs the same blocks and the same
``classify`` and scores its probabilities with
``losses.ce_loss_and_grad``. So the probabilities training sees are the
ones inference sees, bit for bit, in float64 whatever the parameter
dtype.

Each op (``_layer_norm``, ``_self_attention``, ``_ffn``) returns
``(out, cache)``, and its backward reads only that cache (and, for the
layer norm, ``gamma``). ``_block`` composes the ops into one pre-norm
block; ``encode`` drops each block's caches as soon as the next block has
its input, and ``backward_detailed`` keeps them for its backward loop.
Self-attention caches its weights unnormalised and key-major, as
``exp`` of the scores with their per-query sums; it shifts the scores by
their row maximum only when a Cauchy–Schwarz bound says ``exp`` could
leave the float range (see ``_attention``).

The backward pass mirrors the forward step by step; its correctness is
pinned by a central-finite-difference test over every parameter of a
small model, so any change here must keep that test green. It comes in
two steps: ``gradient_pieces`` computes one example's gradient, one piece
per tensor, and ``add_pieces`` adds them into a table, so a training
batch sums its examples into one table, in example order, wherever each
example's pieces were computed.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import SequenceTooLong
from .config import ModelConfig, TrainConfig
from .losses import ce_loss_and_grad
from .params import LAYER_TENSORS, ModelParams
from .tokenizer import TokenizedExample

_LN_EPS = 1e-5
_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715
# largest score magnitude attention exponentiates without the row-max shift
_SHIFT_BOUND = 20.0


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    # the same bits as x.mean and x.var, without var computing the mean again
    d = x.shape[-1]
    xc = x - np.add.reduce(x, -1, keepdims=True) / d
    var = np.add.reduce(xc * xc, -1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv_std
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


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Per-head context ``softmax(q @ k.T) @ v`` and its cache ``(e_t, s)``.

    ``q``, ``k`` and ``v`` are (heads, L, head_dim), ``q`` already scaled.
    The weights are kept unnormalised and key-major: ``e_t`` of shape
    (heads, key, query) holds ``exp`` of the scores and ``s`` of shape
    (heads, 1, query) their sum over keys, so the weights are ``e_t / s``.
    The (L, head_dim) context is divided by ``s`` in place of dividing the
    (L, L) weights. The sum runs along axis 1, which numpy reduces by
    combining whole contiguous rows element-wise; that vectorises, where
    reducing the last axis runs one short inner loop per row (on a
    (4, 256, 256) float32 array it takes about 0.6 times as long).

    Softmax is unchanged by shifting a query's scores, so the row maximum
    is subtracted only where ``exp`` could leave the float range. By
    Cauchy–Schwarz no score exceeds ``max‖q‖ · max‖k‖`` over the heads in
    magnitude, an O(L·head_dim) bound. While it is at most
    ``_SHIFT_BOUND`` (20), every ``exp`` argument lies in [−20, 20], so each
    unnormalised weight is at least 2.1e-9 and a query's sum at most
    4.9e8·L, far inside the normal range of float32 (1.2e-38 to 3.4e38)
    and float64; ``exp``'s relative rounding does not depend on the shift.
    There the forward makes four passes over (heads, L, L): matmul, exp,
    sum and matmul. A freshly initialised model's bound is about 0.25.

    Above the bound, scores far below their row's maximum give weights
    that underflow into subnormal numbers, whose few significant bits make
    any reordering of the rounding visible: ``e_t * (x / s)`` is then not
    within 1e-5 of ``(e_t / s) * x``. So that path normalises the weights
    as a row-major softmax does, with the max, subtraction and division
    (seven passes), and caches them with ``s`` all ones.
    """
    # bounded before the (L, L) product evicts q and k from the cache
    unshifted = _score_bound(q, k) <= _SHIFT_BOUND
    e_t = k @ q.transpose(0, 2, 1)
    if unshifted:
        np.exp(e_t, out=e_t)
        s = np.add.reduce(e_t, 1, keepdims=True)
    else:
        e_t -= e_t.max(axis=1, keepdims=True)
        np.exp(e_t, out=e_t)
        e_t /= np.add.reduce(e_t, 1, keepdims=True)
        s = np.ones((e_t.shape[0], 1, e_t.shape[2]), e_t.dtype)
    ctx_h = e_t.transpose(0, 2, 1) @ v
    ctx_h /= s.transpose(0, 2, 1)
    return ctx_h, (e_t, s)


def _score_bound(q: np.ndarray, k: np.ndarray) -> float:
    """``max‖q_i‖ · max‖k_j‖`` over every head and position, which bounds
    every score ``q_i · k_j`` in magnitude."""
    # einsum sums the short head_dim rows about 2.5 times as fast as
    # (q * q).sum(axis=-1) on (4, 256, 16) float32
    q_sq = float(np.einsum("hld,hld->hl", q, q).max())
    return math.sqrt(q_sq * float(np.einsum("hld,hld->hl", k, k).max()))


def _attention_backward(dctx, q, k, v, weights, ctx_h, scale: float):
    """Gradients ``(dq, dk, dv)`` through ``_attention`` for the per-head
    context gradient ``dctx``, with ``dq`` taken with respect to the
    unscaled queries; ``weights`` is ``_attention``'s cache ``(e_t, s)``.

    The softmax backward needs ``rowsum(dattn * attn)`` per query; since
    ``dattn = dctx @ v.T`` and ``attn @ v = ctx_h``, that sum is
    ``rowsum(dctx * ctx_h)``, an O(L·d) product in place of an O(L²) one.
    The weights' ``1 / s`` is folded into the O(L·d) operands
    ``dctx' = dctx / s`` and ``row' = rowsum(dctx' * ctx_h)``, so
    ``ds_t = (v @ dctx'.T − row') * e_t`` and ``dv = e_t @ dctx'`` read the
    unnormalised weights directly.
    """
    e_t, s = weights
    dctx = dctx / s.transpose(0, 2, 1)
    dv = e_t @ dctx
    ds_t = v @ dctx.transpose(0, 2, 1)
    ds_t -= (dctx * ctx_h).sum(axis=-1)[:, None, :]
    ds_t *= e_t
    dq = ds_t.transpose(0, 2, 1) @ k
    dq *= scale
    return dq, ds_t @ q, dv


def _self_attention(a, wq, wk, wv, wo, heads: int):
    """Multi-head self-attention of the normalized input ``a``."""
    # plain-float scale so float32 parameters keep a float32 forward pass
    scale = 1.0 / math.sqrt(a.shape[1] // heads)
    q = _split_heads((a @ wq) * scale, heads)
    k = _split_heads(a @ wk, heads)
    v = _split_heads(a @ wv, heads)
    ctx_h, weights = _attention(q, k, v)
    # the merged copy is cached; the backward splits it into per-head views
    ctx = _merge_heads(ctx_h)
    return ctx @ wo, (a, q, k, v, weights, ctx, wq, wk, wv, wo)


def _self_attention_backward(dy: np.ndarray, cache):
    """``(da, dwq, dwk, dwv, dwo)`` for the output gradient ``dy``."""
    a, q, k, v, weights, ctx, wq, wk, wv, wo = cache
    heads = q.shape[0]
    dctx = _split_heads(dy @ wo.T, heads)
    scale = 1.0 / math.sqrt(q.shape[2])
    dq, dk, dv = _attention_backward(dctx, q, k, v, weights, _split_heads(ctx, heads), scale)
    dq, dk, dv = (_merge_heads(t) for t in (dq, dk, dv))
    da = dq @ wq.T + dk @ wk.T + dv @ wv.T
    return da, a.T @ dq, a.T @ dk, a.T @ dv, ctx.T @ dy


def _ffn(b: np.ndarray, w1: np.ndarray, w2: np.ndarray):
    """GELU feed-forward of the normalized input ``b``."""
    u = b @ w1
    g, t = _gelu(u)
    return g @ w2, (b, u, t, g, w1, w2)


def _ffn_backward(dy: np.ndarray, cache):
    """``(db, dw1, dw2)`` for the output gradient ``dy``."""
    b, u, t, g, w1, w2 = cache
    du = dy @ w2.T
    du *= _gelu_grad(u, t)
    return du @ w1.T, b.T @ du, g.T @ dy


def _embed(params: ModelParams, config: ModelConfig, token_ids) -> tuple[np.ndarray, np.ndarray]:
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("token_ids must be a nonempty 1-d sequence")
    length = ids.shape[0]
    if length > config.max_seq_len:
        raise SequenceTooLong(f"{length} tokens exceed limit {config.max_seq_len}")
    return ids, params["token_emb"][ids] + params["pos_emb"][:length]


def _block(x: np.ndarray, params: ModelParams, i: int, heads: int):
    """Block ``i``: ``x + Attn(LN1(x))``, then ``+ FFN(LN2(·))``, and the
    caches its backward in ``backward_detailed`` reads."""
    gamma1, beta1, wq, wk, wv, wo, gamma2, beta2, w1, w2 = (
        params[f"layer{i}.{t}"] for t in LAYER_TENSORS
    )
    a, ln1 = _layer_norm(x, gamma1, beta1)
    y, attn = _self_attention(a, wq, wk, wv, wo, heads)
    x = x + y
    b, ln2 = _layer_norm(x, gamma2, beta2)
    y, ffn = _ffn(b, w1, w2)
    return x + y, (ln1, gamma1, attn, ln2, gamma2, ffn)


def encode(params: ModelParams, config: ModelConfig, token_ids) -> np.ndarray:
    """Hidden state per position; raises SequenceTooLong past the limit."""
    _, x = _embed(params, config, token_ids)
    for i in range(config.num_layers):
        x = _block(x, params, i, config.num_heads)[0]
    return x


def classify(params: ModelParams, h: np.ndarray) -> np.ndarray:
    """(preserve, discard) probability pair per position.

    Computed in double precision so each row sums to 1 within 1e-12
    regardless of the parameter dtype.
    """
    logits = h.astype(np.float64) @ params["cls_w"].T.astype(np.float64)
    logits += params["cls_b"].astype(np.float64)
    return _softmax_rows(logits)


def gradient_pieces(
    params: ModelParams,
    config: ModelConfig,
    example: TokenizedExample,
    loss_variant: str = TrainConfig.loss_variant,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """One example's loss, its per-position probabilities and its exact
    gradient in pieces: the token ids, the gradient ``dx`` of the summed
    token and position embeddings, and one gradient per other tensor.
    ``add_pieces`` adds them into a table."""
    ids, h = _embed(params, config, example.token_ids)
    caches = []
    for i in range(config.num_layers):
        h, cache = _block(h, params, i, config.num_heads)
        caches.append(cache)

    probs = classify(params, h)
    loss, dlogits = ce_loss_and_grad(loss_variant, probs, example.labels, example.boundary)
    # the head runs in float64; the blocks' backward stays in the parameter dtype
    dlogits = dlogits.astype(h.dtype)
    pieces = {"cls_w": dlogits.T @ h, "cls_b": dlogits.sum(axis=0)}
    dx = dlogits @ params["cls_w"]

    for i in reversed(range(config.num_layers)):
        ln1, gamma1, attn, ln2, gamma2, ffn = caches.pop()
        db, dw1, dw2 = _ffn_backward(dx, ffn)
        dx_mid, dgamma2, dbeta2 = _layer_norm_backward(db, ln2, gamma2)
        dx = dx + dx_mid
        da, dwq, dwk, dwv, dwo = _self_attention_backward(dx, attn)
        dx_in, dgamma1, dbeta1 = _layer_norm_backward(da, ln1, gamma1)
        dx = dx + dx_in
        layer_grads = (dgamma1, dbeta1, dwq, dwk, dwv, dwo, dgamma2, dbeta2, dw1, dw2)
        for t, g in zip(LAYER_TENSORS, layer_grads, strict=True):
            pieces[f"layer{i}.{t}"] = g

    return loss, probs, ids, dx, pieces


def add_pieces(
    grads: dict[str, np.ndarray], ids: np.ndarray, dx: np.ndarray, pieces: dict[str, np.ndarray]
) -> None:
    """Add one example's ``gradient_pieces`` into the table ``grads``."""
    for name, g in pieces.items():
        grads[name] += g
    add_embedding_gradient(grads, ids, dx)


def add_embedding_gradient(grads: dict[str, np.ndarray], ids: np.ndarray, dx: np.ndarray) -> None:
    """Add the gradient ``dx`` of the summed token and position embeddings
    into ``grads``. The token rows are scattered through the flat table, one
    index per element: the adds of ``np.add.at(token_emb, ids, dx)`` in the
    same order, in about half the time."""
    emb = grads["token_emb"]
    if emb.flags.c_contiguous:
        d = emb.shape[1]
        np.add.at(emb.reshape(-1), (ids[:, None] * d + np.arange(d)).reshape(-1), dx.reshape(-1))
    else:
        np.add.at(emb, ids, dx)
    grads["pos_emb"][: ids.size] += dx


def backward_detailed(
    params: ModelParams,
    config: ModelConfig,
    example: TokenizedExample,
    loss_variant: str = TrainConfig.loss_variant,
    grads: dict[str, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """Loss, its exact gradient for every parameter tensor, and the
    per-position probabilities of the same pass.

    The gradient is added into ``grads``, which is returned; without one,
    a zero table is made. Passing the returned table back in sums the
    gradients of several examples.
    """
    loss, probs, ids, dx, pieces = gradient_pieces(params, config, example, loss_variant)
    if grads is None:
        grads = {k: np.zeros_like(t) for k, t in params.tensors.items()}
    add_pieces(grads, ids, dx, pieces)
    return loss, grads, probs
