"""In-memory span tracing of efpc's layers, for the traced benchmark run.

Tracing works from outside the package: :meth:`Tracer.install` replaces
the names each layer imports from the layer below (``split_words``,
``window_example``, ``encode``, ``classify``, ``backward_detailed``,
``adam_step``...) and the top-level entry points with timing wrappers,
and :meth:`Tracer.uninstall` puts the originals back. Each span records
its name, start, end, parent span, request id and thread, plus a few
counts read off the call's arguments and result, or the exception type
when the call raised. Spans stay in memory
until the run writes them out.

:func:`layer_metrics` folds the spans into the per-layer metrics, and
:func:`computed_work` turns the token counts into operation counts and
bytes moved, derived from tensor shapes rather than measured.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from statistics import median
from time import perf_counter

import numpy as np

from efpc import align, compressor, distill, evaluation, text_core
from efpc.model import UNK_ID, checkpoint, training
from efpc.model.config import ModelConfig


def _n_words(args, kwargs, out):
    return {"words": len(out)}


def _windows(args, kwargs, out):
    tokens = sum(len(w.token_ids) for w in out)
    unk = sum(w.token_ids.count(UNK_ID) for w in out)
    return {"windows": len(out), "tokens": tokens, "unk": unk,
            "prefix": sum(w.boundary for w in out)}


def _ids_len(args, kwargs, out):
    return {"tokens": len(args[2])}


def _rows(args, kwargs, out):
    return {"tokens": len(out)}


def _example_len(args, kwargs, out):
    return {"tokens": len(args[2].token_ids)}


def _adam(args, kwargs, out):
    return {"params": args[0].parameter_count()}


def _compressed(args, kwargs, out):
    return {"kept": out.n_kept, "original": out.n_original}


def _evaluated(args, kwargs, out):
    return {"items": len(args[1]), "failed": out.n_failed}


def _distilled(args, kwargs, out):
    ratios = [p.ratio for p in out.pairs]
    return {"chunks": len(out.pairs) + len(out.failures), "failed": len(out.failures),
            "ratio_sum": sum(ratios)}


def _labeled(args, kwargs, out):
    return {"pairs": len(args[0].pairs), "kept": len(out)}


def _aligned(args, kwargs, out):
    return {"match_rate": out[1].match_rate}


# (module, attribute, span name, counts taken from the call)
HOOKS = (
    (text_core, "split_words", "text_core.split_words", _n_words),
    (text_core, "chunk_document", "text_core.chunk_document", None),
    (compressor, "split_words", "text_core.split_words", _n_words),
    (distill, "split_words", "text_core.split_words", _n_words),
    (distill, "chunk_document", "text_core.chunk_document", None),
    (align, "split_words", "text_core.split_words", _n_words),
    (evaluation, "split_words", "text_core.split_words", _n_words),
    (compressor, "window_example", "tokenizer.window_example", _windows),
    (training, "window_example", "tokenizer.window_example", _windows),
    (compressor, "encode", "network.forward", _ids_len),
    (training, "encode", "network.forward", _ids_len),
    (compressor, "classify", "network.classify", _rows),
    (training, "classify", "network.classify", _rows),
    (training, "backward_detailed", "network.backward", _example_len),
    (training, "adam_step", "adam.step", _adam),
    (training, "train", "training.train", None),
    (training, "token_accuracy", "training.token_accuracy", None),
    (compressor, "compress", "compressor.compress", _compressed),
    (compressor, "compress_batch", "compressor.compress_batch", None),
    (evaluation, "evaluate_downstream", "evaluation.evaluate_downstream", _evaluated),
    (distill, "distill_corpus", "distill.distill_corpus", _distilled),
    (distill, "compress_chunk_via_llm", "distill.chunk", None),
    (align, "label_distilled_pairs", "align.label_distilled_pairs", _labeled),
    (align, "build_example", "align.build_example", _aligned),
    (checkpoint, "save_checkpoint", "checkpoint.save", None),
    (checkpoint, "load_checkpoint", "checkpoint.load", None),
)


class Tracer:
    """Collects spans from wrapped functions, across threads."""

    def __init__(self):
        self.spans: list[dict] = []
        self.request: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[dict] = []
        self._local.stack = self._main_stack
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread's outermost span hangs off whatever the
            # submitting (main) thread is inside of
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = {"id": next(self._ids), "name": name,
                    "parent": parent["id"] if parent else None,
                    "request": self.request, "thread": threading.get_ident()}
            stack.append(span)
            span["start"] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = perf_counter()
                stack.pop()
                self.spans.append(span)
            if counts is not None:
                span.update(counts(args, kwargs, out))
            return out

        return traced

    def install(self) -> None:
        for module, attr, name, counts in HOOKS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counts))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _union_length(children.get(s["id"], []))
        for s in spans
    }


def _matmul(m: int, k: int, n: int, itemsize: int = 4) -> np.ndarray:
    """(flops, bytes) of an (m,k)@(k,n) product, each operand read once."""
    return np.array([2.0 * m * k * n, float(m * k + k * n + m * n) * itemsize])


def _elementwise(n: int, flops_per_elem: float, arrays: int, itemsize: int = 4) -> np.ndarray:
    return np.array([flops_per_elem * n, float(arrays * n * itemsize)])


def _layer_work(cfg: ModelConfig, length: int, backward: bool) -> dict[str, np.ndarray]:
    """Computed (flops, bytes) of one window through every block.

    LayerNorm, embedding lookup and residual adds are left out. Softmax
    counts 5 flops per score and its gradient 4; GELU counts 8 flops per
    element and its gradient 15. Bytes assume each operand is read once
    and each result written once, so they are a lower bound on what numpy
    moves. A backward call runs the forward pass first, then two products
    (input and weight gradient) for every forward product.
    """
    L, d, f, h, dh = length, cfg.embed_dim, cfg.ffn_dim, cfg.num_heads, cfg.head_dim
    products = {
        "projections": 4 * _matmul(L, d, d),
        "attention": h * (_matmul(L, dh, L) + _matmul(L, L, dh)),
        "ffn": _matmul(L, d, f) + _matmul(L, f, d),
    }
    work = {
        "projections": products["projections"],
        "attention": products["attention"] + _elementwise(h * L * L, 5, 2),
        "ffn": products["ffn"] + _elementwise(L * f, 8, 2),
    }
    if backward:
        work["projections"] = work["projections"] + 2 * products["projections"]
        work["attention"] = work["attention"] + 2 * products["attention"] + _elementwise(h * L * L, 4, 3)
        work["ffn"] = work["ffn"] + 2 * products["ffn"] + _elementwise(L * f, 15, 3)
    return {k: cfg.num_layers * v for k, v in work.items()}


def _head_work(cfg: ModelConfig, length: int, itemsize: int) -> np.ndarray:
    return _matmul(length, cfg.embed_dim, 2, itemsize) + _elementwise(2 * length, 5, 2, itemsize)


def adam_work(params: int) -> np.ndarray:
    """Computed (flops, bytes) of one Adam step: about 14 flops per
    parameter; reads parameter, gradient and both moments, writes
    parameter and both moments."""
    return np.array([14.0 * params, 7.0 * params * 4])


PARTS = ("attention", "ffn", "projections", "head")


def computed_work(spans: list[dict], cfg: ModelConfig) -> dict[str, float]:
    out: dict[str, float] = {}
    fwd = {p: np.zeros(2) for p in PARTS}
    bwd = {p: np.zeros(2) for p in PARTS}
    adam = np.zeros(2)
    for s in spans:
        if s["name"] == "network.forward":
            for p, v in _layer_work(cfg, s["tokens"], backward=False).items():
                fwd[p] += v
        elif s["name"] == "network.classify":
            # classify runs in float64
            fwd["head"] += _head_work(cfg, s["tokens"], 8)
        elif s["name"] == "network.backward":
            for p, v in _layer_work(cfg, s["tokens"], backward=True).items():
                bwd[p] += v
            bwd["head"] += 3 * _head_work(cfg, s["tokens"], 4)
        elif s["name"] == "adam.step":
            adam += adam_work(s["params"])
    for direction, table in (("forward", fwd), ("backward", bwd)):
        for p in PARTS:
            out[f"network.{direction}.{p}.mflop"] = table[p][0] / 1e6
            out[f"network.{direction}.{p}.mbyte"] = table[p][1] / 1e6
    out["adam.mflop"] = adam[0] / 1e6
    out["adam.mbyte"] = adam[1] / 1e6
    return out


def layer_metrics(spans: list[dict], cfg: ModelConfig, checkpoint_bytes: int) -> dict[str, dict]:
    """Per-layer counts and times (ms) over every span of the run.

    A layer is busy while any of its spans is open in a thread; busy time
    sums the outermost spans of the layer. Self time subtracts the time
    covered by child spans.
    """
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def busy_ms(prefix: str) -> float:
        total = 0.0
        for s in spans:
            if not s["name"].startswith(prefix):
                continue
            parent = by_id.get(s["parent"])
            if parent is not None and parent["name"].startswith(prefix):
                continue
            total += s["end"] - s["start"]
        return total * 1e3

    def total(name: str, key: str) -> float:
        return float(sum(s[key] for s in by_name[name]))

    def self_ms(names) -> float:
        return 1e3 * sum(selfs[s["id"]] for n in names for s in by_name[n])

    def durations_ms(name: str) -> list[float]:
        return [1e3 * (s["end"] - s["start"]) for s in by_name[name]]

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    m: dict[str, float] = {}
    m["text_core.split_calls"] = len(by_name["text_core.split_words"])
    m["text_core.words"] = total("text_core.split_words", "words")
    m["text_core.busy_ms"] = busy_ms("text_core.")

    tokens = total("tokenizer.window_example", "tokens")
    m["tokenizer.windows"] = total("tokenizer.window_example", "windows")
    m["tokenizer.tokens"] = tokens
    m["tokenizer.busy_ms"] = busy_ms("tokenizer.")
    m["tokenizer.unk_share"] = share(total("tokenizer.window_example", "unk"), tokens)
    m["tokenizer.prefix_token_share"] = share(total("tokenizer.window_example", "prefix"), tokens)

    fwd_tokens = total("network.forward", "tokens")
    m["network.forward.calls"] = len(by_name["network.forward"])
    m["network.forward.tokens"] = fwd_tokens
    m["network.forward.busy_ms"] = busy_ms("network.forward")
    m["network.forward.ms_per_ktoken"] = share(1e3 * m["network.forward.busy_ms"], fwd_tokens)
    m["network.classify.busy_ms"] = busy_ms("network.classify")
    m["network.backward.calls"] = len(by_name["network.backward"])
    m["network.backward.tokens"] = total("network.backward", "tokens")
    m["network.backward.busy_ms"] = busy_ms("network.backward")

    m["adam.steps"] = len(by_name["adam.step"])
    m["adam.params"] = by_name["adam.step"][0]["params"] if by_name["adam.step"] else 0
    m["adam.busy_ms"] = busy_ms("adam.")
    m["training.batches"] = len(by_name["adam.step"])
    m["training.loop_self_ms"] = self_ms(["training.train"])

    compressions = by_name["compressor.compress"]
    m["compressor.requests"] = len(compressions)
    m["compressor.failed"] = sum("error" in s for s in compressions)
    m["compressor.self_ms"] = self_ms(["compressor.compress", "compressor.compress_batch"])
    m["compressor.kept_share"] = share(
        sum(s.get("kept", 0) for s in compressions), sum(s.get("original", 0) for s in compressions)
    )

    m["evaluation.items"] = total("evaluation.evaluate_downstream", "items")
    m["evaluation.failed"] = total("evaluation.evaluate_downstream", "failed")
    m["evaluation.busy_ms"] = busy_ms("evaluation.")

    chunks = total("distill.distill_corpus", "chunks")
    failed = total("distill.distill_corpus", "failed")
    m["distill.chunks"] = chunks
    m["distill.chunks_failed"] = failed
    m["distill.busy_ms"] = busy_ms("distill.")
    m["distill.ratio_mean"] = share(total("distill.distill_corpus", "ratio_sum"), chunks - failed)

    pairs = total("align.label_distilled_pairs", "pairs")
    m["align.pairs"] = pairs
    m["align.pairs_dropped"] = pairs - total("align.label_distilled_pairs", "kept")
    m["align.match_rate_mean"] = share(
        total("align.build_example", "match_rate"), len(by_name["align.build_example"])
    )
    m["align.busy_ms"] = busy_ms("align.")

    saves, loads = durations_ms("checkpoint.save"), durations_ms("checkpoint.load")
    m["checkpoint.save_ms"] = median(saves) if saves else 0.0
    m["checkpoint.load_ms"] = median(loads) if loads else 0.0
    m["checkpoint.bytes"] = checkpoint_bytes

    m.update(computed_work(spans, cfg))
    return {name: {"value": value, "unit": unit_of(name)} for name, value in m.items()}


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last.endswith("_ms"):
        return "ms"
    if last.endswith("share") or last == "match_rate_mean":
        return "share"
    return {"ratio_mean": "ratio", "ms_per_ktoken": "ms/ktoken", "mflop": "Mflop-computed",
            "mbyte": "MB-computed", "bytes": "bytes"}.get(last, "count")
