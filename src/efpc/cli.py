"""Command-line pipeline: distill | label | train | compress | eval | sweep | stats.

Every setting of a run is a flag; a model or train flag left out keeps the
default of its ``ModelConfig`` or ``TrainConfig`` field. Commands that
write files also write a ``*.manifest.json`` next to their primary output
recording the effective settings and their digest, input digests, and
library versions — never timestamps — so identical runs produce identical
trees.

Exit codes: 0 success, 1 user error (flags, unreadable files, a malformed
data record, reported as ``path:line: reason``, data too small or too
short for the request, or model shape flags too large to allocate), 2
runtime failure (provider, pipeline, or checkpoint trouble).
"""

from __future__ import annotations

import argparse
import inspect
import json
import platform
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from ._util import digest_obj, read_jsonl, sha256_file, write_atomic, write_jsonl
from .align import (
    label_distilled_pairs,
    read_labeled_jsonl,
    write_labeled_jsonl,
)
from .compressor import CompressionFailure, CompressionRequest, compress, compress_batch
from .distill import (
    HttpProvider,
    LlmProvider,
    MockProvider,
    distill_corpus,
    ratio_histogram,
    read_pairs_jsonl,
    write_pairs_jsonl,
)
from .errors import (
    ConfigValidationError,
    EfpcError,
    EmptyDataset,
    InstructionTooLong,
    InsufficientData,
    RecordError,
)
from .evaluation import (
    ContextAnswerTarget,
    QARecord,
    data_efficiency_sweep,
    evaluate_downstream,
)
from .model import (
    LOSS_VARIANTS,
    ModelConfig,
    TrainConfig,
    load_checkpoint,
    new_model,
    save_checkpoint,
    train,
)
from .text_core import split_words


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this artifact reserves 2
    # for runtime failures, so parse errors become exceptions instead.
    def error(self, message):
        raise _UsageError(message)


# --------------------------------------------------------------- settings

# flag -> (ModelConfig field, help); a resumed run takes all of them from
# its checkpoint
_SHAPE_FLAGS = {
    "--embed-dim": ("embed_dim", "model width"),
    "--layers": ("num_layers", "encoder blocks"),
    "--heads": ("num_heads", "attention heads"),
    "--ffn-dim": ("ffn_dim", "feed-forward width"),
    "--max-seq-len": ("max_seq_len", "window length"),
}


def _need(value, what: str):
    if value is None:
        raise ConfigValidationError(f"{what} is required with --live")
    return value


def _provider_from(args) -> LlmProvider:
    if args.live:
        return HttpProvider(base_url=_need(args.base_url, "--base-url"),
                            model_name=_need(args.model_name, "--model-name"))
    for flag, value in (("--base-url", args.base_url), ("--model-name", args.model_name)):
        if value is not None:
            raise ConfigValidationError(f"{flag} is used only with --live")
    return MockProvider()


def _default(fn, name: str):
    """Default of parameter ``name`` of a function or config dataclass."""
    return inspect.signature(fn).parameters[name].default


def _with_default(text: str, fn, name: str) -> str:
    return f"{text} (default {_default(fn, name)})"


def _settings(args, config) -> dict:
    """Field -> value for each field of ``config`` (ModelConfig or
    TrainConfig) whose flag was given, so the dataclass default applies to
    the rest. Each field's flag has the field as its dest; ModelConfig's
    vocab_size comes from the data and has no flag."""
    given = {f.name: getattr(args, f.name, None) for f in fields(config)}
    return {name: value for name, value in given.items() if value is not None}


# ------------------------------------------------------- manifests, reports


def _manifest(command: str, settings: dict, inputs: dict) -> dict:
    """Run record: run id, effective settings and their digest, input
    digests, library versions. ``inputs`` maps each input's role, the dest
    of the flag that names it, to its path."""
    effective_config = {"command": command, **settings}
    # keyed by role, not path, so identical runs in different directories
    # produce identical manifests and run ids, and two inputs that share a
    # file name keep a digest each
    digests = {role: sha256_file(p) for role, p in inputs.items()}
    config_digest = digest_obj(effective_config)
    return {
        "run_id": digest_obj(
            {"command": command, "config": config_digest, "inputs": digests}
        )[:12],
        "command": command,
        "config_digest": config_digest,
        "config": effective_config,
        "input_digests": digests,
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }


def _run_identity(manifest: dict) -> dict:
    return {"run_id": manifest["run_id"], "config_digest": manifest["config_digest"]}


def _write_json(path, obj) -> None:
    """Indented, key-sorted UTF-8 JSON; the file is replaced atomically."""
    text = json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    write_atomic(path, text.encode("utf-8"))


# ------------------------------------------------------------ subcommands


def _read_corpus(path) -> tuple[list[str], list[str]]:
    """Documents and instructions from a JSONL corpus or a plain text file."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"corpus not found: {path}")
    if p.suffix != ".jsonl":
        return [p.read_text(encoding="utf-8")], [""]
    records = read_jsonl(
        path,
        lambda rec: (rec["text"], rec.get("instruction", "")),
        required=("text",),
        types={"text": "string", "instruction": "string"},
    )
    return [text for text, _ in records], [instruction for _, instruction in records]


def cmd_distill(args) -> int:
    provider = _provider_from(args)
    docs, instructions = _read_corpus(args.corpus)
    if args.instruction is not None:
        instructions = [args.instruction] * len(docs)
    dataset = distill_corpus(provider, docs, instructions, max_units=args.max_units,
                             max_concurrency=args.max_concurrency)
    write_pairs_jsonl(dataset, args.out)
    settings = {
        "provider": provider.provider_id,
        "max_units": args.max_units,
        "instruction_override": args.instruction,
    }
    if args.live:  # the teacher; the API key is read at request time and never recorded
        settings |= {"base_url": args.base_url, "model_name": args.model_name}
    manifest = _manifest("distill", settings, {"corpus": args.corpus})
    _write_json(f"{args.out}.manifest.json", manifest)
    print(f"distilled {len(dataset.pairs)} pairs ({len(dataset.failures)} failures) -> {args.out}")
    return 0


def cmd_label(args) -> int:
    dataset = read_pairs_jsonl(args.pairs)
    examples = label_distilled_pairs(
        dataset,
        min_match_rate=args.min_match_rate,
        include_instruction=not args.task_agnostic,
    )
    write_labeled_jsonl(examples, args.out)
    settings = {"min_match_rate": args.min_match_rate, "task_agnostic": args.task_agnostic}
    _write_json(f"{args.out}.manifest.json", _manifest("label", settings, {"pairs": args.pairs}))
    print(f"labeled {len(examples)} examples -> {args.out}")
    return 0


def cmd_train(args) -> int:
    shape = [flag for flag, (dest, _) in _SHAPE_FLAGS.items() if getattr(args, dest) is not None]
    if args.resume and shape:
        raise ConfigValidationError(
            f"{shape[0]} cannot be used with --resume, which keeps the checkpoint's shape"
        )
    examples = read_labeled_jsonl(args.data)
    train_cfg = TrainConfig(**_settings(args, TrainConfig))
    if args.resume:
        model = load_checkpoint(args.resume)
    else:
        model = new_model(examples, **_settings(args, ModelConfig))
    model, report = train(model, examples, train_cfg)
    save_checkpoint(model, args.out)
    for ep in report.epochs:
        print(f"epoch {ep.epoch}\tloss {ep.loss:.6f}\taccuracy {ep.token_accuracy:.4f}")
    settings = {
        "train": asdict(train_cfg),
        "model": asdict(model.config),
        "resume": args.resume,
    }
    inputs = {"data": args.data} | ({"resume": args.resume} if args.resume else {})
    _write_json(f"{args.out}.manifest.json", _manifest("train", settings, inputs))
    print(f"saved checkpoint -> {args.out}")
    return 0


def _compression_target(args) -> tuple[float | None, int | None]:
    """(ratio, budget), exactly one of them given."""
    if args.ratio is not None and args.budget is not None:
        raise ConfigValidationError("set only one of --ratio and --budget")
    if args.ratio is None and args.budget is None:
        raise ConfigValidationError("a compression target (--ratio or --budget) is required")
    return args.ratio, args.budget


def cmd_compress(args) -> int:
    ratio, budget = _compression_target(args)
    model = load_checkpoint(args.checkpoint)
    text = Path(args.input).read_text(encoding="utf-8")
    request = CompressionRequest(
        original=text, instruction=args.instruction, keep_ratio=ratio, unit_budget=budget
    )
    result = compress(model, request)
    record = result.to_record()
    if args.out:
        write_jsonl(args.out, [record])
        settings = {"ratio": ratio, "budget": budget, "instruction": args.instruction}
        inputs = {"checkpoint": args.checkpoint, "input": args.input}
        manifest = _manifest("compress", settings, inputs)
        _write_json(f"{args.out}.manifest.json", manifest)
        print(f"compressed {result.n_original} -> {result.n_kept} words -> {args.out}")
    else:
        print(json.dumps(record, ensure_ascii=False))
    return 0


def _qa_item(rec) -> tuple[str, str, QARecord]:
    """(context, instruction, scored record) of one eval line; the
    instruction defaults to the question."""
    if not split_words(rec["context"]):
        raise ValueError("context has no words")
    qa = QARecord(question=rec["question"], gold_answers=tuple(rec["answers"]))
    return rec["context"], rec.get("instruction", qa.question), qa


def cmd_eval(args) -> int:
    ratio, budget = _compression_target(args)
    target = ContextAnswerTarget(max_words=args.max_answer_words)
    model = load_checkpoint(args.checkpoint)
    records = read_jsonl(
        args.data,
        _qa_item,
        required=("context", "question", "answers"),
        types={"context": "string", "question": "string", "answers": "list of strings",
               "instruction": "string"},
    )
    requests = [
        CompressionRequest(
            original=context,
            instruction="" if args.task_agnostic else instruction,
            keep_ratio=ratio,
            unit_budget=budget,
        )
        for context, instruction, _ in records
    ]
    results = compress_batch(model, requests)
    for request, result in zip(requests, results):
        if isinstance(result, CompressionFailure):
            compress(model, request)  # raises the first failed item's own error
    report = evaluate_downstream(target, [(r, qa) for r, (*_, qa) in zip(results, records)])
    settings = {
        "ratio": ratio,
        "budget": budget,
        "task_agnostic": args.task_agnostic,
        "max_answer_words": args.max_answer_words,
    }
    manifest = _manifest("eval", settings, {"checkpoint": args.checkpoint, "data": args.data})
    doc = _run_identity(manifest) | {
        "metrics": dict(report.metrics)
        | {"n_scored": report.n_scored, "n_failed": report.n_failed},
        "per_example": report.per_example,
    }
    _write_json(args.out, doc)
    _write_json(f"{args.out}.manifest.json", manifest)
    f1 = report.metrics["token_f1"]
    print(f"scored {report.n_scored} items (token_f1 {f1:.4f}) -> {args.out}")
    return 0


def cmd_sweep(args) -> int:
    out_dir = Path(args.out_dir)
    try:
        fractions = [float(f) for f in args.fractions.split(",") if f.strip()]
    except ValueError as exc:
        raise ConfigValidationError(f"bad --fractions value: {exc}") from exc
    model = load_checkpoint(args.base_checkpoint)
    extra = read_labeled_jsonl(args.extra)
    eval_set = read_labeled_jsonl(args.eval_data)
    train_cfg = TrainConfig(**_settings(args, TrainConfig))
    sweep = data_efficiency_sweep(model, extra, fractions, eval_set, train_cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    settings = {"fractions": fractions, "train": asdict(train_cfg)}
    inputs = {role: getattr(args, role) for role in ("base_checkpoint", "extra", "eval_data")}
    manifest = _manifest("sweep", settings, inputs)
    lines = ["fraction\tn_extra\ttoken_accuracy"]
    for i, cell in enumerate(sweep.cells):
        doc = _run_identity(manifest) | {
            "fraction": cell.fraction,
            "metrics": dict(cell.report.metrics),
            "per_example": cell.report.per_example,
        }
        _write_json(out_dir / f"cell_{i}.json", doc)
        lines.append(
            f"{cell.fraction:g}\t{cell.report.metrics['n_extra']:g}"
            f"\t{cell.report.metrics['token_accuracy']:.6f}"
        )
    summary = out_dir / "summary.tsv"
    write_atomic(summary, ("\n".join(lines) + "\n").encode("utf-8"))
    _write_json(f"{summary}.manifest.json", manifest)
    print("\n".join(lines))
    print(f"wrote {len(sweep.cells)} cell reports -> {out_dir}")
    return 0


def cmd_stats(args) -> int:
    dataset = read_pairs_jsonl(args.dataset)
    hist = ratio_histogram(dataset, bin_width=args.bin_width)
    print(f"pairs\t{hist.n}")
    print(f"mean_ratio\t{hist.mean:.4f}")
    for i, count in enumerate(hist.counts):
        lo, hi = hist.bin_edges[i], hist.bin_edges[i + 1]
        print(f"[{lo:g}, {hi:g})\t{count}")
    return 0


# ------------------------------------------------------------ entry point


def build_parser() -> _Parser:
    parser = _Parser(prog="efpc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def training_flags(p):
        p.add_argument("--loss", dest="loss_variant", choices=LOSS_VARIANTS,
                       help=_with_default("loss variant", TrainConfig, "loss_variant"))
        p.add_argument("--lr", dest="learning_rate", type=float,
                       help=_with_default("learning rate", TrainConfig, "learning_rate"))
        p.add_argument("--batch-size", type=int,
                       help=_with_default("examples per update", TrainConfig, "batch_size"))
        p.add_argument("--epochs", type=int,
                       help=_with_default("training epochs", TrainConfig, "epochs"))
        p.add_argument("--seed", type=int,
                       help="seed for initialisation, shuffling and sweep subsets")

    p = sub.add_parser("distill", help="compress corpus chunks through a provider")
    p.add_argument("--corpus", required=True,
                   help="JSONL ({'text', 'instruction'?}) or plain text file")
    p.add_argument("--out", required=True, help="output pairs JSONL")
    p.add_argument("--instruction", help="override instruction for every document")
    p.add_argument("--max-units", type=int, default=_default(distill_corpus, "max_units"),
                   help="max words per chunk (default %(default)s)")
    p.add_argument("--max-concurrency", type=int,
                   default=_default(distill_corpus, "max_concurrency"),
                   help="parallel provider calls (default %(default)s)")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--mock", dest="live", action="store_false", default=False,
                   help="use the offline deterministic provider (default)")
    g.add_argument("--live", dest="live", action="store_true", default=False,
                   help="use the HTTP provider (reads EFPC_API_KEY)")
    p.add_argument("--base-url", help="chat-completion endpoint URL (with --live)")
    p.add_argument("--model-name", help="provider model identifier (with --live)")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("label", help="align pairs into per-word keep labels")
    p.add_argument("--pairs", required=True, help="pairs JSONL from distill")
    p.add_argument("--out", required=True, help="output labeled JSONL")
    p.add_argument("--min-match-rate", type=float,
                   default=_default(label_distilled_pairs, "min_match_rate"),
                   help="drop pairs whose alignment matched less than this")
    p.add_argument("--task-agnostic", action="store_true",
                   help="ignore instructions; emit boundary 0 examples")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="train the word classifier")
    p.add_argument("--data", required=True, help="labeled JSONL")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--resume", help="continue from an existing checkpoint, keeping its shape")
    training_flags(p)
    for flag, (dest, text) in _SHAPE_FLAGS.items():
        p.add_argument(flag, dest=dest, type=int, help=_with_default(text, ModelConfig, dest))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compress", help="compress one document with a checkpoint")
    p.add_argument("--checkpoint", required=True, help="trained model checkpoint")
    p.add_argument("--input", required=True, help="text file to compress")
    p.add_argument("--instruction", default="",
                   help="task description (default empty: task-agnostic)")
    p.add_argument("--ratio", type=float, help="keep fraction τ in (0,1]")
    p.add_argument("--budget", type=int, help="maximum words to keep")
    p.add_argument("--out", help="write the result record here instead of stdout")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("eval", help="compress QA contexts and score answers")
    p.add_argument("--checkpoint", required=True, help="trained model checkpoint")
    p.add_argument("--data", required=True, help="JSONL of {'context','question','answers'}")
    p.add_argument("--ratio", type=float, help="keep fraction τ in (0,1]")
    p.add_argument("--budget", type=int, help="maximum words to keep")
    p.add_argument("--task-agnostic", action="store_true",
                   help="compress without the question as instruction")
    p.add_argument("--max-answer-words", type=int,
                   default=_default(ContextAnswerTarget, "max_words"),
                   help="answer length of the offline target")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="accuracy vs amount of extra training data")
    p.add_argument("--base-checkpoint", required=True, help="starting model")
    p.add_argument("--extra", required=True, help="labeled JSONL of extra training data")
    p.add_argument("--eval-data", required=True, help="labeled JSONL scored per cell")
    p.add_argument("--fractions", default="0,0.1,0.5,1.0",
                   help="comma-separated fractions of the extra data")
    p.add_argument("--out-dir", required=True,
                   help="directory for cell reports and summary.tsv")
    training_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stats", help="ratio histogram of a pairs dataset")
    p.add_argument("--dataset", required=True, help="pairs JSONL from distill")
    p.add_argument("--bin-width", type=float, default=_default(ratio_histogram, "bin_width"),
                   help="histogram bin width")
    p.set_defaults(func=cmd_stats)

    return parser


# exit 1: the flags or an input file need fixing (data too small or too short
# for what was asked, a model too large to allocate); other package errors exit 2
_USER_ERRORS = (ConfigValidationError, RecordError, EmptyDataset, InsufficientData,
                InstructionTooLong, ValueError, OSError, MemoryError)


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # -h/--help
        return int(exc.code or 0)
    try:
        # every output sits next to --out (sweep makes its --out-dir), so one
        # check, before any input is read, covers them
        out = getattr(args, "out", None)
        if out is not None and not Path(out).parent.is_dir():
            raise ConfigValidationError(f"--out {out}: {Path(out).parent} is not a directory")
        return args.func(args)
    except (EfpcError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1 if isinstance(exc, _USER_ERRORS) else 2


def console_main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    console_main()
