"""Command-line pipeline: distill | label | train | compress | eval | sweep | stats.

Configuration comes from an optional JSON file (nested sections: provider,
model, train, compress, paths) with command-line flags taking precedence
field by field. Commands that write files also write a ``*.manifest.json``
next to their primary output recording the effective config digest, input
digests, and library versions — never timestamps — so identical runs
produce identical trees.

Exit codes: 0 success, 1 user error (flags, config, unreadable files, or a
malformed data record, reported as ``path:line: reason``), 2 runtime
failure (provider, pipeline, or checkpoint trouble).
"""

from __future__ import annotations

import argparse
import inspect
import json
import platform
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from ._util import digest_obj, read_jsonl, sha256_file, write_atomic, write_jsonl
from .align import (
    label_distilled_pairs,
    read_labeled_jsonl,
    write_labeled_jsonl,
)
from .compressor import CompressionRequest, compress
from .distill import (
    HttpProvider,
    LlmProvider,
    MockProvider,
    distill_corpus,
    ratio_histogram,
    read_pairs_jsonl,
    write_pairs_jsonl,
)
from .errors import ConfigParseError, ConfigValidationError, EfpcError, RecordError
from .evaluation import (
    ContextAnswerTarget,
    QARecord,
    data_efficiency_sweep,
    evaluate_downstream,
)
from .model import (
    Model,
    ModelConfig,
    TrainConfig,
    build_vocab,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this artifact reserves 2
    # for runtime failures, so parse errors become exceptions instead.
    def error(self, message):
        raise _UsageError(message)


# ------------------------------------------------------------- run config

_SECTION_KEYS = {
    "provider": {"mock", "base_url", "model_name", "max_concurrency", "max_units"},
    "model": {"embed_dim", "num_layers", "num_heads", "ffn_dim", "max_seq_len", "seed"},
    "train": {
        "learning_rate",
        "batch_size",
        "epochs",
        "loss_variant",
        "seed",
    },
    "compress": {"ratio", "budget", "instruction"},
    "paths": {"corpus", "pairs", "labeled", "checkpoint", "report", "out_dir"},
}


@dataclass(frozen=True)
class RunConfig:
    provider: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    compress: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)
    seed: int | None = None


def load_config(path) -> RunConfig:
    """Parse and validate a JSON config file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigParseError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigParseError(f"{path}: top level must be a JSON object")
    sections: dict[str, dict] = {}
    seed = None
    for key, value in raw.items():
        if key == "seed":
            if not isinstance(value, int):
                raise ConfigValidationError("seed must be an integer")
            seed = value
            continue
        if key not in _SECTION_KEYS:
            raise ConfigValidationError(f"unknown config section {key!r}")
        if not isinstance(value, dict):
            raise ConfigValidationError(f"section {key!r} must be an object")
        unknown = set(value) - _SECTION_KEYS[key]
        if unknown:
            raise ConfigValidationError(
                f"unknown key {sorted(unknown)[0]!r} in section {key!r}"
            )
        sections[key] = dict(value)
    cfg = RunConfig(seed=seed, **{k: sections.get(k, {}) for k in _SECTION_KEYS})
    if "ratio" in cfg.compress and "budget" in cfg.compress:
        raise ConfigValidationError("compress: set only one of ratio and budget")
    return cfg


def _args_config(args) -> RunConfig:
    if args.config:
        return load_config(args.config)
    return RunConfig()


def _pick(flag_value, section: dict, key: str, default=None):
    """Flag wins over config file wins over default."""
    if flag_value is not None:
        return flag_value
    if key in section:
        return section[key]
    return default


def _need(value, what: str):
    if value is None:
        raise ConfigValidationError(f"{what} is required (flag or config file)")
    return value


def _provider_from(cfg: RunConfig, args) -> LlmProvider:
    mock = _pick(args.mock, cfg.provider, "mock", True)
    if mock:
        return MockProvider()
    base_url = _need(_pick(args.base_url, cfg.provider, "base_url"), "--base-url")
    model_name = _need(
        _pick(args.model_name, cfg.provider, "model_name"), "--model-name"
    )
    return HttpProvider(base_url=base_url, model_name=model_name)


def _default(fn, name: str):
    """Default of parameter ``name`` of a function or config dataclass."""
    return inspect.signature(fn).parameters[name].default


def _with_default(text: str, fn, name: str) -> str:
    return f"{text} (default {_default(fn, name):g})"


# config key -> dest of the flag that overrides it, where the names differ
_FLAG_DEST = {
    "num_layers": "layers",
    "num_heads": "heads",
    "learning_rate": "lr",
    "loss_variant": "loss",
}


def _settings(cfg: RunConfig, args, section: str) -> dict:
    """Key -> value for each key of a model or train section that a flag or
    the config file sets; the section's seed falls back to the top-level
    one. Keys set nowhere are left out, so the dataclass default applies."""
    values = getattr(cfg, section)
    picked = {
        key: _pick(getattr(args, _FLAG_DEST.get(key, key)), values, key)
        for key in _SECTION_KEYS[section]
    }
    if picked["seed"] is None:
        picked["seed"] = cfg.seed
    return {key: value for key, value in picked.items() if value is not None}


# ------------------------------------------------------- manifests, reports


def _manifest(command: str, settings: dict, cfg: RunConfig, inputs: list) -> dict:
    """Run record: run id, effective config and its digest, input digests,
    library versions."""
    effective_config = {"command": command, **settings, "config": asdict(cfg)}
    # keyed by basename, not full path, so identical runs in different
    # directories produce identical manifests and run ids
    digests = {Path(p).name: sha256_file(p) for p in inputs}
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
    cfg = _args_config(args)
    provider = _provider_from(cfg, args)
    corpus = _need(_pick(args.corpus, cfg.paths, "corpus"), "--corpus")
    out = _need(_pick(args.out, cfg.paths, "pairs"), "--out")
    options = {
        key: _pick(getattr(args, key), cfg.provider, key, _default(distill_corpus, key))
        for key in ("max_units", "max_concurrency")
    }
    docs, instructions = _read_corpus(corpus)
    if args.instruction is not None:
        instructions = [args.instruction] * len(docs)
    dataset = distill_corpus(provider, docs, instructions, **options)
    write_pairs_jsonl(dataset, out)
    settings = {
        "provider": provider.provider_id,
        "max_units": options["max_units"],
        "instruction_override": args.instruction,
    }
    _write_json(f"{out}.manifest.json", _manifest("distill", settings, cfg, [corpus]))
    print(f"distilled {len(dataset.pairs)} pairs ({len(dataset.failures)} failures) -> {out}")
    return 0


def cmd_label(args) -> int:
    cfg = _args_config(args)
    pairs_path = _need(_pick(args.pairs, cfg.paths, "pairs"), "--pairs")
    out = _need(_pick(args.out, cfg.paths, "labeled"), "--out")
    dataset = read_pairs_jsonl(pairs_path)
    examples = label_distilled_pairs(
        dataset,
        min_match_rate=args.min_match_rate,
        include_instruction=not args.task_agnostic,
    )
    write_labeled_jsonl(examples, out)
    settings = {"min_match_rate": args.min_match_rate, "task_agnostic": args.task_agnostic}
    _write_json(f"{out}.manifest.json", _manifest("label", settings, cfg, [pairs_path]))
    print(f"labeled {len(examples)} examples -> {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _args_config(args)
    data_path = _need(_pick(args.data, cfg.paths, "labeled"), "--data")
    out = _need(_pick(args.out, cfg.paths, "checkpoint"), "--out")
    examples = read_labeled_jsonl(data_path)
    train_cfg = TrainConfig(**_settings(cfg, args, "train"))
    if args.resume:
        model = load_checkpoint(args.resume)
    else:
        # vocabulary and config are derived from the data unless resuming
        vocab = build_vocab(examples)
        model_cfg = ModelConfig(vocab_size=vocab.size, **_settings(cfg, args, "model"))
        model = Model(config=model_cfg, vocab=vocab, params=init_params(model_cfg))
    model, report = train(model, examples, train_cfg)
    save_checkpoint(model, out)
    for ep in report.epochs:
        print(f"epoch {ep.epoch}\tloss {ep.loss:.6f}\taccuracy {ep.token_accuracy:.4f}")
    settings = {
        "train": asdict(train_cfg),
        "model": asdict(model.config),
        "resume": args.resume,
    }
    inputs = [data_path] + ([args.resume] if args.resume else [])
    _write_json(f"{out}.manifest.json", _manifest("train", settings, cfg, inputs))
    print(f"saved checkpoint -> {out}")
    return 0


def _compression_target(cfg: RunConfig, args) -> tuple[float | None, int | None]:
    ratio = _pick(args.ratio, cfg.compress, "ratio")
    budget = _pick(args.budget, cfg.compress, "budget")
    if args.ratio is not None and args.budget is not None:
        raise ConfigValidationError("set only one of --ratio and --budget")
    if ratio is not None and budget is not None:
        # flag on one side overrides the config file on the other
        # (load_config rejects a file that sets both)
        if args.ratio is not None:
            budget = None
        else:
            ratio = None
    if ratio is None and budget is None:
        raise ConfigValidationError("a compression target (ratio or budget) is required")
    return ratio, budget


def cmd_compress(args) -> int:
    cfg = _args_config(args)
    ckpt = _need(_pick(args.checkpoint, cfg.paths, "checkpoint"), "--checkpoint")
    input_path = _need(args.input, "--input")
    ratio, budget = _compression_target(cfg, args)
    instruction = _pick(args.instruction, cfg.compress, "instruction", "")
    model = load_checkpoint(ckpt)
    text = Path(input_path).read_text(encoding="utf-8")
    request = CompressionRequest(
        original=text, instruction=instruction, keep_ratio=ratio, unit_budget=budget
    )
    result = compress(model, request)
    record = result.to_record()
    if args.out:
        write_jsonl(args.out, [record])
        settings = {"ratio": ratio, "budget": budget, "instruction": instruction}
        manifest = _manifest("compress", settings, cfg, [ckpt, input_path])
        _write_json(f"{args.out}.manifest.json", manifest)
        print(f"compressed {result.n_original} -> {result.n_kept} words -> {args.out}")
    else:
        print(json.dumps(record, ensure_ascii=False))
    return 0


def _qa_item(rec) -> tuple[str, str, QARecord]:
    """(context, instruction, scored record) of one eval line; the
    instruction defaults to the question."""
    qa = QARecord(question=rec["question"], gold_answers=tuple(rec["answers"]))
    return rec["context"], rec.get("instruction", qa.question), qa


def cmd_eval(args) -> int:
    cfg = _args_config(args)
    ckpt = _need(_pick(args.checkpoint, cfg.paths, "checkpoint"), "--checkpoint")
    data_path = _need(args.data, "--data")
    out = _need(_pick(args.out, cfg.paths, "report"), "--out")
    ratio, budget = _compression_target(cfg, args)
    model = load_checkpoint(ckpt)
    records = read_jsonl(
        data_path,
        _qa_item,
        required=("context", "question", "answers"),
        types={"context": "string", "question": "string", "answers": "list of strings",
               "instruction": "string"},
    )
    items = []
    for context, instruction, qa in records:
        request = CompressionRequest(
            original=context,
            instruction="" if args.task_agnostic else instruction,
            keep_ratio=ratio,
            unit_budget=budget,
        )
        items.append((compress(model, request), qa))
    target = ContextAnswerTarget(max_words=args.max_answer_words)
    report = evaluate_downstream(target, items)
    settings = {
        "ratio": ratio,
        "budget": budget,
        "task_agnostic": args.task_agnostic,
        "max_answer_words": args.max_answer_words,
    }
    manifest = _manifest("eval", settings, cfg, [ckpt, data_path])
    doc = _run_identity(manifest) | {
        "metrics": dict(report.metrics)
        | {"n_scored": report.n_scored, "n_failed": report.n_failed},
        "per_example": report.per_example,
    }
    _write_json(out, doc)
    _write_json(f"{out}.manifest.json", manifest)
    print(f"scored {report.n_scored} items (token_f1 {report.metrics['token_f1']:.4f}) -> {out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _args_config(args)
    base = _need(args.base_checkpoint, "--base-checkpoint")
    extra_path = _need(args.extra, "--extra")
    eval_path = _need(args.eval_data, "--eval-data")
    out_dir = Path(_need(_pick(args.out_dir, cfg.paths, "out_dir"), "--out-dir"))
    try:
        fractions = [float(f) for f in args.fractions.split(",") if f.strip()]
    except ValueError as exc:
        raise ConfigValidationError(f"bad --fractions value: {exc}") from exc
    model = load_checkpoint(base)
    extra = read_labeled_jsonl(extra_path)
    eval_set = read_labeled_jsonl(eval_path)
    train_cfg = TrainConfig(**_settings(cfg, args, "train"))
    sweep = data_efficiency_sweep(model, extra, fractions, eval_set, train_cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    settings = {"fractions": fractions, "train": asdict(train_cfg)}
    manifest = _manifest("sweep", settings, cfg, [base, extra_path, eval_path])
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
    _args_config(args)  # nothing read from it yet, but bad files still fail fast
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

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")

    p = sub.add_parser("distill", help="compress corpus chunks through a provider")
    common(p)
    p.add_argument("--corpus", help="JSONL ({'text', 'instruction'?}) or plain text file")
    p.add_argument("--out", help="output pairs JSONL")
    p.add_argument("--instruction", help="override instruction for every document")
    p.add_argument("--max-units", type=int,
                   help=_with_default("max words per chunk", distill_corpus, "max_units"))
    p.add_argument("--max-concurrency", type=int, help="parallel provider calls")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--mock", dest="mock", action="store_true", default=None,
                   help="use the offline deterministic provider (default)")
    g.add_argument("--live", dest="mock", action="store_false", default=None,
                   help="use the HTTP provider (reads EFPC_API_KEY)")
    p.add_argument("--base-url", help="chat-completion endpoint URL")
    p.add_argument("--model-name", help="provider model identifier")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("label", help="align pairs into per-word keep labels")
    common(p)
    p.add_argument("--pairs", help="pairs JSONL from distill")
    p.add_argument("--out", help="output labeled JSONL")
    p.add_argument("--min-match-rate", type=float,
                   default=_default(label_distilled_pairs, "min_match_rate"),
                   help="drop pairs whose alignment matched less than this")
    p.add_argument("--task-agnostic", action="store_true",
                   help="ignore instructions; emit boundary 0 examples")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="train the word classifier")
    common(p)
    p.add_argument("--data", help="labeled JSONL")
    p.add_argument("--out", help="output checkpoint path")
    p.add_argument("--resume", help="continue from an existing checkpoint")
    p.add_argument("--loss", choices=["agnostic", "drop", "mask"], help="loss variant")
    p.add_argument("--lr", type=float,
                   help=_with_default("learning rate", TrainConfig, "learning_rate"))
    p.add_argument("--batch-size", type=int,
                   help=_with_default("examples per update", TrainConfig, "batch_size"))
    p.add_argument("--epochs", type=int,
                   help=_with_default("training epochs", TrainConfig, "epochs"))
    p.add_argument("--seed", type=int, help="shuffling / init seed")
    p.add_argument("--embed-dim", type=int,
                   help=_with_default("model width", ModelConfig, "embed_dim"))
    p.add_argument("--layers", type=int,
                   help=_with_default("encoder blocks", ModelConfig, "num_layers"))
    p.add_argument("--heads", type=int,
                   help=_with_default("attention heads", ModelConfig, "num_heads"))
    p.add_argument("--ffn-dim", type=int,
                   help=_with_default("feed-forward width", ModelConfig, "ffn_dim"))
    p.add_argument("--max-seq-len", type=int,
                   help=_with_default("window length", ModelConfig, "max_seq_len"))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compress", help="compress one document with a checkpoint")
    common(p)
    p.add_argument("--checkpoint", help="trained model checkpoint")
    p.add_argument("--input", help="text file to compress")
    p.add_argument("--instruction", help="task description (empty = task-agnostic)")
    p.add_argument("--ratio", type=float, help="keep fraction τ in (0,1]")
    p.add_argument("--budget", type=int, help="maximum words to keep")
    p.add_argument("--out", help="write the result record here instead of stdout")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("eval", help="compress QA contexts and score answers")
    common(p)
    p.add_argument("--checkpoint", help="trained model checkpoint")
    p.add_argument("--data", help="JSONL of {'context','question','answers'}")
    p.add_argument("--ratio", type=float, help="keep fraction τ in (0,1]")
    p.add_argument("--budget", type=int, help="maximum words to keep")
    p.add_argument("--task-agnostic", action="store_true",
                   help="compress without the question as instruction")
    p.add_argument("--max-answer-words", type=int,
                   default=_default(ContextAnswerTarget, "max_words"),
                   help="answer length of the offline target")
    p.add_argument("--out", help="report JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="accuracy vs amount of extra training data")
    common(p)
    p.add_argument("--base-checkpoint", help="starting model")
    p.add_argument("--extra", help="labeled JSONL of extra training data")
    p.add_argument("--eval-data", help="labeled JSONL scored per cell")
    p.add_argument("--fractions", default="0,0.1,0.5,1.0",
                   help="comma-separated fractions of the extra data")
    p.add_argument("--out-dir", help="directory for cell reports and summary.tsv")
    p.add_argument("--loss", choices=["agnostic", "drop", "mask"], help="loss variant")
    p.add_argument("--lr", type=float, help="learning rate")
    p.add_argument("--batch-size", type=int, help="examples per update")
    p.add_argument("--epochs", type=int, help="training epochs per cell")
    p.add_argument("--seed", type=int, help="subset / shuffling seed")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stats", help="ratio histogram of a pairs dataset")
    common(p)
    p.add_argument("--dataset", required=True, help="pairs JSONL from distill")
    p.add_argument("--bin-width", type=float, default=_default(ratio_histogram, "bin_width"),
                   help="histogram bin width")
    p.set_defaults(func=cmd_stats)

    return parser


# exit 1: the flags, the config file or an input file need fixing;
# any other package error exits 2
_USER_ERRORS = (ConfigParseError, ConfigValidationError, RecordError, ValueError, OSError)


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
        return args.func(args)
    except (EfpcError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, _USER_ERRORS) else 2


def console_main() -> None:
    sys.exit(run_cli())
