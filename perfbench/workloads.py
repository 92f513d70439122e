"""The three benchmark workloads, their set-up, and their output checks.

Every workload is a closed loop with one client: the next operation is
sent only when the previous one has returned. Inputs for an operation are
generated before its clock starts. Library functions are always looked up
on their modules at call time, so the traced run sees the same calls
through the tracer's wrappers.

Operations:
- ``qa_short``: one ``compress_batch`` of 16 QA requests, then
  ``evaluate_downstream`` of the answers.
- ``doc_long``: one ``compress`` of one long document.
- ``train``: one data shard through distill, label, train, held-out
  accuracy and checkpoint save.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

import numpy as np

from efpc import ContextAnswerTarget, EfpcError, MockProvider, align, compressor, distill, evaluation
from efpc.compressor import CompressionFailure
from efpc.model import Model, ModelConfig, TrainConfig, UNK_ID, checkpoint, init_params, training, vocab_from_words

import inputs
from inputs import Language

SETUP_REPEATS = 5
SETUP_CORPUS_WORDS = 150_000
QA_BATCH = 16
# the first operations of every run are always made, checked and digested,
# however short the run, so digests compare across runs and commits
DIGEST_OPS = {"qa_short": 16, "doc_long": 8, "train": 6}
SHARD_DOCS = 20
TRAIN_EPOCHS = 2
LEARNING_RATE = 1e-3
POOL = max(1, min(2, os.cpu_count() or 1))


def train_config(seed: int, epochs: int) -> TrainConfig:
    return TrainConfig(learning_rate=LEARNING_RATE, batch_size=10, epochs=epochs,
                       loss_variant="mask", seed=seed)


def params_digest(model: Model) -> str:
    h = hashlib.sha256()
    for name in sorted(model.params.tensors):
        h.update(name.encode())
        h.update(np.ascontiguousarray(model.params[name]).tobytes())
    return h.hexdigest()


def keep_count(n: int, tau: float) -> int:
    """The compressor's contract, restated: round_half_up(τ·n) clamped to [1, n]."""
    return min(max(math.floor(tau * n + 0.5), 1), n)


@dataclass
class Run:
    """What one run measured and checked."""

    problems: list[str] = field(default_factory=list)
    # layer -> [attempted, failed]
    counts: dict[str, list[int]] = field(default_factory=dict)
    # per operation: its time, its work (words or tokens), and the time
    # spent on that work
    op_s: list[float] = field(default_factory=list)
    work: list[float] = field(default_factory=list)
    work_s: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    keep_digest: object = field(default_factory=hashlib.sha256)

    def count(self, layer: str, attempted: int, failed: int) -> None:
        c = self.counts.setdefault(layer, [0, 0])
        c[0] += attempted
        c[1] += failed

    def record(self, op_s: float, work: float, work_s: float) -> None:
        self.op_s.append(op_s)
        self.work.append(work)
        self.work_s.append(work_s)

    def words_per_s(self) -> float:
        return sum(self.work) / sum(self.work_s)

    def op_ms(self) -> list[float]:
        return [1e3 * t for t in self.op_s]

    def totals(self) -> tuple[int, int]:
        """Attempted and failed operations, summed over layers."""
        return (sum(a for a, _ in self.counts.values()), sum(f for _, f in self.counts.values()))

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(message)

    def check_compression(self, request, result) -> None:
        """Exactly keep_count words, strictly increasing indices, and the
        kept words are those words of the input, in order."""
        if isinstance(result, CompressionFailure):
            return
        words = request.original.split()
        n = len(words)
        tau = request.keep_ratio if request.keep_ratio is not None else min(1.0, request.unit_budget / n)
        idx = result.kept_indices
        probs = np.asarray(result.probabilities)
        self.check(result.n_original == n, f"{n} words in, {result.n_original} scored")
        self.check(len(idx) == keep_count(n, tau), f"kept {len(idx)} of {n} words, tau {tau}")
        self.check(all(a < b for a, b in zip(idx, idx[1:])), "kept indices not increasing")
        self.check(bool(idx) and 0 <= idx[0] and idx[-1] < n, "kept index out of range")
        self.check(result.kept_words == tuple(words[i] for i in idx if 0 <= i < n),
                   "kept words are not a subsequence of the input")
        self.check(bool(np.all(np.isfinite(probs)) and np.all((probs >= 0) & (probs <= 1))),
                   "probability outside [0, 1]")

    def check_losses(self, report) -> None:
        self.check(all(math.isfinite(e.loss) for e in report.epochs), "non-finite training loss")


def closed_loop(seconds: float, min_ops: int, op) -> None:
    """Call op(i) until `seconds` have passed and min_ops operations ran."""
    deadline = perf_counter() + seconds
    i = 0
    while i < min_ops or perf_counter() < deadline:
        op(i)
        i += 1


def tail(samples: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p * n / 100)
    return {"value": sorted(samples)[rank - 1], "percentile": p, "samples": n}


def request_shape(model: Model, instr: list[str], words: list[str]) -> dict[str, int]:
    """Words, windows, tokens, instruction-prefix tokens and UNK tokens the
    tokenizer makes of one input (windowing as in model.tokenizer)."""
    prefix = len(instr) + 1 if instr else 0
    windows = math.ceil(len(words) / (model.config.max_seq_len - prefix))
    encode = model.vocab.encode_words
    unk = windows * encode(instr).count(UNK_ID) + encode(words).count(UNK_ID)
    return {"words": len(words), "windows": windows, "tokens": len(words) + windows * prefix,
            "prefix": windows * prefix, "unk": unk}


def _sum_shapes(shapes: list[dict[str, int]], vocab_size: int) -> dict:
    tot = {k: sum(s[k] for s in shapes) for k in shapes[0]}
    return {
        "requests": len(shapes),
        "words_per_request": tot["words"] / len(shapes),
        "windows_per_request": tot["windows"] / len(shapes),
        "prefix_token_share": tot["prefix"] / tot["tokens"],
        "unk_share": tot["unk"] / tot["tokens"],
        "vocab_size": vocab_size,
        "lexicon_size": inputs.LEXICON_SIZE,
    }


def labeled(run: Run, docs: list[str], instructions: list[str]):
    """distill_corpus with the mock provider, then label_distilled_pairs."""
    dataset = distill.distill_corpus(MockProvider(), docs, instructions, max_concurrency=POOL)
    run.count("distill", len(dataset.pairs) + len(dataset.failures), len(dataset.failures))
    examples = align.label_distilled_pairs(dataset)
    run.count("align", len(dataset.pairs), len(dataset.pairs) - len(examples))
    return examples


def base_model(lang: Language, seed: int) -> Model:
    """CLI-default encoder whose vocabulary covers a large seeded corpus."""
    words = lang.text(lang.rng(inputs.SETUP_CORPUS), SETUP_CORPUS_WORDS).split()
    vocab = vocab_from_words(words)
    config = ModelConfig(vocab_size=vocab.size, seed=seed)
    return Model(config=config, vocab=vocab, params=init_params(config))


def qa_items(lang: Language, stream: int, n: int) -> list:
    it = inputs.qa_stream(lang, stream)
    return [next(it) for _ in range(n)]


def answer_batch(model: Model, items: list) -> tuple[list, object]:
    """compress_batch the items, then evaluate the answers downstream."""
    results = compressor.compress_batch(model, [it.request for it in items])
    ok = [(r, it.record) for r, it in zip(results, items) if not isinstance(r, CompressionFailure)]
    report = evaluation.evaluate_downstream(ContextAnswerTarget(), ok)
    return results, report


def count_batch(run: Run, items: list, results: list, report) -> None:
    failed = sum(isinstance(r, CompressionFailure) for r in results)
    run.count("compressor", len(results), failed)
    run.count("evaluation", len(results) - failed, report.n_failed)
    for it, r in zip(items, results):
        run.check_compression(it.request, r)


def setup(run: Run, seed: int, out_dir: str, serving: bool) -> dict:
    """Inputs and model, timed. Serving workloads also train the model
    briefly, round-trip it through a checkpoint, score it on held-out
    data and answer a few held-out questions with it."""
    t0 = perf_counter()
    lang = Language(seed)
    model = base_model(lang, seed)
    heldout = labeled(run, *inputs.corpus(lang, (inputs.HELDOUT,), 10, 150, 250))
    heldout_qa = qa_items(lang, inputs.HELDOUT_QA, QA_BATCH)
    state = {"lang": lang, "heldout": heldout, "heldout_qa": heldout_qa}
    if serving:
        examples = labeled(run, *inputs.corpus(lang, (inputs.SETUP_TRAIN,), 20, 150, 250))
        model, report = training.train(model, examples, train_config(seed, epochs=1))
        run.check_losses(report)
        path = os.path.join(out_dir, "serving.ckpt")
        checkpoint.save_checkpoint(model, path)
        loaded = checkpoint.load_checkpoint(path)
        run.check(params_digest(loaded) == params_digest(model), "checkpoint round trip changed parameters")
        model = loaded
        state["checkpoint"] = path
        state["heldout_accuracy"] = training.token_accuracy(model, heldout)[0]
        results, report = answer_batch(model, heldout_qa)
        count_batch(run, heldout_qa, results, report)
    state["model"] = model
    state["setup_s"] = perf_counter() - t0
    return state


def setup_repeated(run: Run, seed: int, out_dir: str, serving: bool) -> dict:
    """Set up SETUP_REPEATS times and keep the last; the time is the
    median, and every repeat must build the same model."""
    times: list[float] = []
    digests: set[str] = set()
    state: dict = {}
    for _ in range(SETUP_REPEATS):
        # the previous repeat's garbage is not charged to the next one
        state = {}
        gc.collect()
        state = setup(run, seed, out_dir, serving)
        times.append(state["setup_s"])
        digests.add(params_digest(state["model"]))
    run.check(len(digests) == 1, "set-up is not deterministic")
    state["setup_s"] = median(times)
    state["params_digest"] = digests.pop()
    return state


def run_qa_short(run: Run, state: dict, seconds: float, tracer) -> None:
    model = state["model"]
    stream = inputs.qa_stream(state["lang"])
    n_digest = DIGEST_OPS["qa_short"]
    shapes: list[dict] = []
    contexts: set[int] = set()
    f1: list[float] = []

    def op(i: int) -> None:
        items = [next(stream) for _ in range(QA_BATCH)]
        if tracer is not None:
            tracer.request = i
        t0 = perf_counter()
        results, report = answer_batch(model, items)
        dt = perf_counter() - t0
        run.record(dt, sum(len(it.request.original.split()) for it in items), dt)
        contexts.update(it.context_id for it in items)
        count_batch(run, items, results, report)
        if i < n_digest:
            for r in results:
                run.keep_digest.update(repr(getattr(r, "kept_indices", r)).encode())
            f1.extend(e["token_f1"] for e in report.per_example)
            shapes.extend(request_shape(model, it.request.instruction.split(),
                                        it.request.original.split()) for it in items)

    closed_loop(seconds, n_digest, op)
    n = len(run.op_s) * QA_BATCH
    run.extra["inputs"] = {**_sum_shapes(shapes, model.vocab.size),
                           "repeated_context_share": 1 - len(contexts) / n}
    run.extra["qa_token_f1"] = sum(f1) / len(f1)
    run.extra["items"] = n


def run_doc_long(run: Run, state: dict, seconds: float, tracer) -> None:
    model = state["model"]
    stream = inputs.doc_stream(state["lang"])
    n_digest = DIGEST_OPS["doc_long"]
    shapes: list[dict] = []

    def op(i: int) -> None:
        request = next(stream)
        if tracer is not None:
            tracer.request = i
        t0 = perf_counter()
        try:
            result = compressor.compress(model, request)
        except (ValueError, EfpcError) as exc:
            result = CompressionFailure(index=i, message=str(exc))
        dt = perf_counter() - t0
        run.record(dt, len(request.original.split()), dt)
        run.count("compressor", 1, isinstance(result, CompressionFailure))
        run.check_compression(request, result)
        if i < n_digest:
            run.keep_digest.update(repr(getattr(result, "kept_indices", result)).encode())
            shapes.append(request_shape(model, request.instruction.split(), request.original.split()))

    closed_loop(seconds, n_digest, op)
    run.extra["inputs"] = _sum_shapes(shapes, model.vocab.size)


def run_train(run: Run, state: dict, seconds: float, tracer, out_dir: str, seed: int) -> None:
    base = state["model"]
    lang = state["lang"]
    heldout = state["heldout"]
    n_digest = DIGEST_OPS["train"]
    path = os.path.join(out_dir, "shard.ckpt")
    prep_words = 0
    prep_s = 0.0
    accuracies: list[float] = []
    shapes: list[dict] = []
    last: dict = {}

    def op(i: int) -> None:
        nonlocal prep_words, prep_s
        docs, instructions = inputs.corpus(lang, (inputs.SHARDS, i), SHARD_DOCS, 150, 250)
        if tracer is not None:
            tracer.request = i
        t0 = perf_counter()
        examples = labeled(run, docs, instructions)
        t1 = perf_counter()
        model, report = training.train(base, examples, train_config(seed, TRAIN_EPOCHS))
        t2 = perf_counter()
        accuracy = training.token_accuracy(model, heldout)[0]
        checkpoint.save_checkpoint(model, path)
        t3 = perf_counter()
        prep_words += sum(len(d.split()) for d in docs)
        prep_s += t1 - t0
        shard = [request_shape(model, ex.words[: ex.boundary_m], ex.words[ex.boundary_m :])
                 for ex in examples]
        run.record(t3 - t0, TRAIN_EPOCHS * sum(s["tokens"] for s in shard), t2 - t1)
        run.check_losses(report)
        last.update(model=model)
        if i < n_digest:
            accuracies.append(accuracy)
            shapes.extend(shard)
            if i == 0:
                run.extra["params_digest"] = params_digest(model)

    closed_loop(seconds, n_digest, op)
    state["checkpoint"] = path
    # the saved checkpoint must load back to the last trained parameters,
    # and the trained model must serve: its keep-sets are the digest
    loaded = checkpoint.load_checkpoint(path)
    run.check(params_digest(loaded) == params_digest(last["model"]), "checkpoint round trip changed parameters")
    results, report = answer_batch(loaded, state["heldout_qa"])
    count_batch(run, state["heldout_qa"], results, report)
    for r in results:
        run.keep_digest.update(repr(getattr(r, "kept_indices", r)).encode())
    run.extra["inputs"] = {**_sum_shapes(shapes, base.vocab.size), "shard_docs": SHARD_DOCS}
    run.extra["heldout_token_accuracy"] = sum(accuracies) / len(accuracies)
    run.extra["prep_words_per_s"] = prep_words / prep_s
