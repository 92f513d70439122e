import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import time
import zlib
from dataclasses import asdict
from pathlib import Path

import pytest

from efpc import cli
from efpc.cli import run_cli
from efpc.distill import API_KEY_ENV, HttpProvider, MockProvider
from efpc.model import ModelConfig, TrainConfig, load_checkpoint

from helpers import RATIO_DOCS


# ---------------------------------------------------------------- pipeline


TRAIN_FLAGS = [
    "--embed-dim", "16", "--layers", "1", "--heads", "2", "--ffn-dim", "32",
    "--max-seq-len", "64", "--epochs", "2", "--lr", "1e-3", "--seed", "4",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """distill -> label -> train once; hand the artifact paths to tests."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus.jsonl"
    with open(corpus, "w") as fh:
        for text, question in RATIO_DOCS:
            fh.write(json.dumps({"text": text, "instruction": question}) + "\n")

    pairs = root / "pairs.jsonl"
    assert run_cli(["distill", "--corpus", str(corpus), "--out", str(pairs),
                    "--mock"]) == 0

    labeled = root / "labeled.jsonl"
    assert run_cli(["label", "--pairs", str(pairs), "--out", str(labeled)]) == 0

    ckpt = root / "model.ckpt"
    assert run_cli(["train", "--data", str(labeled), "--out", str(ckpt),
                    *TRAIN_FLAGS]) == 0
    return root, corpus, pairs, labeled, ckpt


def test_pipeline_artifacts_exist(pipeline):
    root, corpus, pairs, labeled, ckpt = pipeline
    for artifact in (pairs, labeled, ckpt):
        assert artifact.is_file()
        manifest = artifact.parent / (artifact.name + ".manifest.json")
        assert manifest.is_file()


def test_manifests_have_no_timestamps(pipeline):
    root, corpus, pairs, labeled, ckpt = pipeline
    manifest = json.loads((root / "pairs.jsonl.manifest.json").read_text())
    assert set(manifest) == {
        "run_id", "command", "config_digest", "config", "input_digests", "versions",
    }
    assert manifest["command"] == "distill"
    assert manifest["config"] == {"command": "distill", "provider": "mock", "max_units": 512,
                                  "instruction_override": None}
    assert manifest["input_digests"] == {"corpus": hashlib.sha256(corpus.read_bytes()).hexdigest()}
    assert set(manifest["versions"]) == {"package", "python", "numpy"}


def test_train_respects_model_flags(pipeline):
    *_, ckpt = pipeline
    model = load_checkpoint(ckpt)
    assert model.config.embed_dim == 16
    assert model.config.num_layers == 1
    assert model.config.max_seq_len == 64


def test_train_without_flags_uses_config_defaults(pipeline, tmp_path):
    root, corpus, pairs, labeled, ckpt = pipeline
    out = tmp_path / "defaults.ckpt"
    assert run_cli(["train", "--data", str(labeled), "--out", str(out),
                    "--epochs", "1"]) == 0
    config = load_checkpoint(out).config
    assert config == ModelConfig(vocab_size=config.vocab_size)
    manifest = json.loads((tmp_path / "defaults.ckpt.manifest.json").read_text())
    assert manifest["config"]["train"] == asdict(TrainConfig(epochs=1))


def test_train_prints_epoch_lines(pipeline, capsys, tmp_path):
    root, corpus, pairs, labeled, ckpt = pipeline
    out = tmp_path / "again.ckpt"
    assert run_cli(["train", "--data", str(labeled), "--out", str(out),
                    *TRAIN_FLAGS]) == 0
    lines = capsys.readouterr().out.splitlines()
    epoch_lines = [l for l in lines if l.startswith("epoch ")]
    assert len(epoch_lines) == 2
    assert "loss" in epoch_lines[0] and "accuracy" in epoch_lines[0]


def test_train_resume_continues_from_checkpoint(pipeline, tmp_path):
    root, corpus, pairs, labeled, ckpt = pipeline
    out = tmp_path / "resumed.ckpt"
    assert run_cli(["train", "--data", str(labeled), "--out", str(out),
                    "--resume", str(ckpt), "--epochs", "1", "--lr", "1e-3", "--seed", "5"]) == 0
    resumed = load_checkpoint(out)
    assert resumed.config == load_checkpoint(ckpt).config
    # --seed still seeds the resumed run's shuffle
    manifest = json.loads((tmp_path / "resumed.ckpt.manifest.json").read_text())
    assert manifest["config"]["train"]["seed"] == 5


@pytest.mark.parametrize("flag", ["--embed-dim", "--layers", "--heads", "--ffn-dim",
                                  "--max-seq-len"])
def test_train_resume_refuses_model_shape_flags(pipeline, tmp_path, capsys, flag):
    *_, labeled, ckpt = pipeline
    assert run_cli(["train", "--data", str(labeled), "--out", str(tmp_path / "resumed.ckpt"),
                    "--resume", str(ckpt), "--epochs", "1", flag, "48"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} cannot be used with --resume") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_label_task_agnostic_strips_boundaries(pipeline, tmp_path):
    root, corpus, pairs, labeled, ckpt = pipeline
    out = tmp_path / "agnostic.jsonl"
    assert run_cli(["label", "--pairs", str(pairs), "--out", str(out),
                    "--task-agnostic"]) == 0
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert records and all(r["boundary_m"] == 0 for r in records)


def test_compress_to_stdout(pipeline, capsys, tmp_path):
    *_, ckpt = pipeline
    doc = tmp_path / "doc.txt"
    doc.write_text("the falcon glided over the granite ridge at dawn")
    assert run_cli(["compress", "--checkpoint", str(ckpt), "--input", str(doc),
                    "--ratio", "0.5"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["n_original"] == 9
    assert record["n_kept"] == 5  # round_half_up(4.5)
    assert record["kept_text"].split() == [
        doc.read_text().split()[i] for i in record["kept_indices"]
    ]


def test_compress_to_file_with_manifest(pipeline, tmp_path):
    *_, ckpt = pipeline
    doc = tmp_path / "doc.txt"
    doc.write_text("a lantern hung on the pier")
    out = tmp_path / "compressed.json"
    assert run_cli(["compress", "--checkpoint", str(ckpt), "--input", str(doc),
                    "--budget", "3", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["n_kept"] == 3
    assert (tmp_path / "compressed.json.manifest.json").is_file()


def test_compress_rejects_two_flag_targets(pipeline, tmp_path, capsys):
    *_, ckpt = pipeline
    doc = tmp_path / "doc.txt"
    doc.write_text("one two three")
    code = run_cli(["compress", "--checkpoint", str(ckpt), "--input", str(doc),
                    "--ratio", "0.5", "--budget", "2"])
    assert code == 1
    assert "only one" in capsys.readouterr().err


def test_compress_requires_some_target(pipeline, tmp_path, capsys):
    *_, ckpt = pipeline
    doc = tmp_path / "doc.txt"
    doc.write_text("one two three")
    assert run_cli(["compress", "--checkpoint", str(ckpt),
                    "--input", str(doc)]) == 1
    assert "required" in capsys.readouterr().err


def test_eval_writes_report(pipeline, tmp_path):
    *_, ckpt = pipeline
    data = tmp_path / "qa.jsonl"
    with open(data, "w") as fh:
        for text, question in RATIO_DOCS[:2]:
            fh.write(json.dumps({
                "context": text, "question": question,
                "answers": [text.split(". ")[0]],
            }) + "\n")
    out = tmp_path / "report.json"
    assert run_cli(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                    "--ratio", "0.6", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"run_id", "config_digest", "metrics", "per_example"}
    assert doc["metrics"]["n_scored"] == 2
    assert doc["metrics"]["n_failed"] == 0
    assert len(doc["per_example"]) == 2
    for key in ("token_f1", "rouge_l", "bleu", "mean_achieved_inverse_ratio"):
        assert key in doc["metrics"]
    assert (tmp_path / "report.json.manifest.json").is_file()


def test_eval_task_agnostic_flag(pipeline, tmp_path):
    *_, ckpt = pipeline
    data = tmp_path / "qa.jsonl"
    text, question = RATIO_DOCS[0]
    data.write_text(json.dumps({
        "context": text, "question": question, "answers": ["pier"],
    }) + "\n")
    out = tmp_path / "report.json"
    assert run_cli(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                    "--budget", "10", "--task-agnostic", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["metrics"]["n_scored"] == 1


@pytest.mark.parametrize("words", ["0", "-3"])
def test_eval_rejects_max_answer_words_below_one(pipeline, tmp_path, capsys, words):
    *_, ckpt = pipeline
    data = tmp_path / "qa.jsonl"
    data.write_text(json.dumps(GOOD_RECORDS["qa"]) + "\n")
    out = tmp_path / "report.json"
    assert run_cli(["eval", "--checkpoint", str(ckpt), "--data", str(data), "--ratio", "0.5",
                    "--max-answer-words", words, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "max_words" in err and err.count("\n") == 1
    assert not out.exists()


def test_sweep_writes_cells_and_summary(pipeline, tmp_path):
    root, corpus, pairs, labeled, ckpt = pipeline
    out_dir = tmp_path / "sweep"
    assert run_cli(["sweep", "--base-checkpoint", str(ckpt),
                    "--extra", str(labeled), "--eval-data", str(labeled),
                    "--fractions", "0,1.0", "--epochs", "1", "--lr", "1e-3",
                    "--out-dir", str(out_dir)]) == 0
    summary = (out_dir / "summary.tsv").read_text().splitlines()
    assert summary[0] == "fraction\tn_extra\ttoken_accuracy"
    assert len(summary) == 3
    assert summary[1].startswith("0\t0\t")
    assert (out_dir / "cell_0.json").is_file()
    assert (out_dir / "cell_1.json").is_file()
    assert (out_dir / "summary.tsv.manifest.json").is_file()
    cell = json.loads((out_dir / "cell_0.json").read_text())
    assert {"run_id", "config_digest", "fraction", "metrics", "per_example"} == set(cell)


def test_sweep_manifest_keys_same_named_inputs_by_role(pipeline, tmp_path):
    *_, labeled, ckpt = pipeline
    extra, eval_data = tmp_path / "a" / "labeled.jsonl", tmp_path / "b" / "labeled.jsonl"
    lines = labeled.read_text().splitlines(keepends=True)
    for path in (extra, eval_data):
        path.parent.mkdir()
        path.write_text("".join(lines))

    def manifest():
        out_dir = tmp_path / "sweep"
        assert run_cli(["sweep", "--base-checkpoint", str(ckpt), "--extra", str(extra),
                        "--eval-data", str(eval_data), "--fractions", "1.0", "--epochs", "1",
                        "--out-dir", str(out_dir)]) == 0
        return json.loads((out_dir / "summary.tsv.manifest.json").read_text())

    first = manifest()
    assert first["input_digests"] == {
        role: hashlib.sha256(path.read_bytes()).hexdigest()
        for role, path in (("base_checkpoint", ckpt), ("extra", extra), ("eval_data", eval_data))
    }
    run_ids = {first["run_id"]}
    for path in (extra, eval_data):
        path.write_text("".join(lines[:-1]))
        run_ids.add(manifest()["run_id"])
    assert len(run_ids) == 3


def test_stats_prints_histogram(pipeline, capsys):
    root, corpus, pairs, labeled, ckpt = pipeline
    assert run_cli(["stats", "--dataset", str(pairs)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"pairs\t{len(RATIO_DOCS)}"
    assert lines[1].startswith("mean_ratio\t")
    assert all("\t" in l and l.startswith("[") for l in lines[2:])


# -------------------------------------------------------------- exit codes


def test_unknown_subcommand_exits_one(capsys):
    assert run_cli(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "usage:" in err


def test_missing_required_flag_exits_one(capsys):
    assert run_cli(["stats"]) == 1
    assert "--dataset" in capsys.readouterr().err


def test_missing_corpus_file_exits_one(tmp_path, capsys):
    assert run_cli(["distill", "--corpus", str(tmp_path / "ghost.jsonl"),
                    "--out", str(tmp_path / "p.jsonl")]) == 1
    assert "not found" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_two(tmp_path, capsys):
    ckpt = tmp_path / "broken.ckpt"
    ckpt.write_bytes(b"EFPCKPT1" + b"\x99" * 40)
    doc = tmp_path / "doc.txt"
    doc.write_text("some words here")
    code = run_cli(["compress", "--checkpoint", str(ckpt), "--input", str(doc),
                    "--ratio", "0.5"])
    assert code == 2
    assert "checksum" in capsys.readouterr().err.lower()


def _compress_with_vocab_words(ckpt, tmp_path, edit_words, text):
    """Exit code of ``compress`` on a copy of ``ckpt`` (checksum redone)
    whose header vocabulary ``edit_words`` changed in place."""
    blob = ckpt.read_bytes()
    (n,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + n])
    edit_words(header["vocab"]["words"])
    body = json.dumps(header).encode()
    crafted = blob[:8] + struct.pack("<I", len(body)) + body + blob[12 + n : -4]
    bad = tmp_path / "crafted.ckpt"
    bad.write_bytes(crafted + struct.pack("<I", zlib.crc32(crafted)))
    doc = tmp_path / "doc.txt"
    doc.write_text(text)
    return run_cli(["compress", "--checkpoint", str(bad), "--input", str(doc),
                    "--ratio", "0.5"])


def test_checkpoint_with_a_word_not_in_normal_form_exits_two(pipeline, tmp_path, capsys):
    *_, ckpt = pipeline

    def shout(words):
        words[0] = words[0].upper() + ","

    assert _compress_with_vocab_words(ckpt, tmp_path, shout, "some words here") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "vocab word 0 (" in err, err


def test_checkpoint_whose_vocabulary_repeats_a_word_exits_two(pipeline, tmp_path, capsys):
    # the repeat keeps the table's size, so only the check on repeats stops
    # the first word's id from pointing one past the embedding table
    *_, ckpt = pipeline
    words = load_checkpoint(ckpt).vocab.words
    code = _compress_with_vocab_words(ckpt, tmp_path, lambda ws: ws.append(ws[0]),
                                      f"some {words[0]} words here")
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert f"vocab word {len(words)} ({words[0]!r}) repeats vocab word 0" in err, err


GOOD_RECORDS = {
    "corpus": {"text": "The cat sat on the mat.", "instruction": "Who sat?"},
    "pairs": {"original": "The cat sat.", "compressed": "cat sat.", "ratio": 1.5},
    "labeled": {"instruction": "who", "original_words": ["cat", "sat"],
                "labels": [0, 1, 0], "boundary_m": 1},
    "qa": {"context": "The cat sat.", "question": "Who sat?", "answers": ["cat"]},
}
REQUIRED_FIELD = {"corpus": "text", "pairs": "compressed", "labeled": "boundary_m",
                  "qa": "answers"}
# fields whose values the record's reader or type rejects
BAD_VALUES = {
    ("pairs", "bad value"): {"compressed": " "},
    ("labeled", "bad value"): {"labels": [0, 1]},
    ("labeled", "instruction/boundary mismatch"): {
        "instruction": "where is it", "original_words": ["x", "y"],
        "labels": [0, 0, 0, 1, 0], "boundary_m": 2,
    },
    ("qa", "bad value"): {"answers": []},
    ("qa", "blank context"): {"context": "   "},
}


def _reader_argv(kind, data, out, ckpt):
    return {
        "corpus": ["distill", "--corpus", data, "--out", out, "--mock"],
        "pairs": ["label", "--pairs", data, "--out", out],
        "labeled": ["train", "--data", data, "--out", out, *TRAIN_FLAGS],
        "qa": ["eval", "--checkpoint", ckpt, "--data", data, "--ratio", "0.5",
               "--out", out],
    }[kind]


def _bad_line(kind, fault):
    good = GOOD_RECORDS[kind]
    if fault == "missing field":
        return json.dumps({k: v for k, v in good.items() if k != REQUIRED_FIELD[kind]})
    if (kind, fault) in BAD_VALUES:
        return json.dumps(good | BAD_VALUES[kind, fault])
    return {"not an object": '["a"]', "bad json": "{nope",
            "too deep": "[" * 100000 + "]" * 100000}[fault]


RECORD_FAULTS = [
    (kind, fault)
    for kind in sorted(GOOD_RECORDS)
    for fault in ("missing field", "not an object", "bad json", "too deep")
] + sorted(BAD_VALUES)


@pytest.mark.parametrize("kind, fault", RECORD_FAULTS)
def test_bad_record_exits_one_naming_file_and_line(pipeline, tmp_path, capsys,
                                                   kind, fault):
    *_, ckpt = pipeline
    data = tmp_path / "data.jsonl"
    data.write_text(json.dumps(GOOD_RECORDS[kind]) + "\n\n" + _bad_line(kind, fault) + "\n")
    argv = _reader_argv(kind, str(data), str(tmp_path / "out"), str(ckpt))
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}:3: ")
    assert err.count("\n") == 1


# a value of the wrong JSON type for every field a reader declares
WRONG_TYPES = [
    ("corpus", "text", 5), ("corpus", "instruction", ["who"]),
    ("pairs", "original", None), ("pairs", "compressed", 3), ("pairs", "instruction", 1),
    ("pairs", "ratio", "x"), ("pairs", "ratio", True), ("pairs", "ratio", float("nan")),
    ("pairs", "ratio", float("inf")), ("pairs", "doc_id", 1.5),
    ("pairs", "chunk_idx", "0"),
    ("labeled", "instruction", 7), ("labeled", "original_words", "cat sat"),
    ("labeled", "original_words", ["cat", 2]), ("labeled", "labels", [0, "1", 0]),
    ("labeled", "labels", [0, True, 0]), ("labeled", "boundary_m", "1"),
    ("qa", "context", 1), ("qa", "question", {}), ("qa", "answers", "cat"),
    ("qa", "answers", [1]), ("qa", "instruction", 0),
]


@pytest.mark.parametrize("kind, field, value", WRONG_TYPES)
def test_wrong_type_field_exits_one_naming_file_line_and_field(pipeline, tmp_path, capsys,
                                                              kind, field, value):
    *_, ckpt = pipeline
    data = tmp_path / "data.jsonl"
    data.write_text(json.dumps(GOOD_RECORDS[kind] | {field: value}) + "\n")
    argvs = [_reader_argv(kind, str(data), str(tmp_path / "out"), str(ckpt))]
    if kind == "pairs":
        argvs.append(["stats", "--dataset", str(data)])
    for argv in argvs:
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}:1: field {field!r} must be a ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("lr, message", [
    ("1e9", r"(loss is nan|\S+ gradient is not finite)"),
    ("1e300", r"\S+ is not finite after the step"),  # the step overflows the parameters
])
def test_divergent_training_exits_two_and_writes_no_checkpoint(tmp_path, capsys, lr, message):
    data = tmp_path / "labeled.jsonl"
    data.write_text(
        json.dumps({"instruction": "who", "original_words": ["the", "cat", "sat", "down"],
                    "labels": [0, 0, 1, 1, 0], "boundary_m": 1}) + "\n"
        + json.dumps({"original_words": ["dogs", "bark", "at", "night"],
                      "labels": [1, 1, 0, 1], "boundary_m": 0}) + "\n"
    )
    out = tmp_path / "m.ckpt"
    code = run_cli(["train", "--data", str(data), "--out", str(out), "--lr", lr,
                    "--embed-dim", "16", "--layers", "1", "--heads", "2", "--ffn-dim", "32"])
    assert code == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: epoch \d+ batch \d+: {message}\n", err), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["labeled.jsonl"]


@pytest.mark.parametrize("input_readable", [True, False])
@pytest.mark.parametrize("command", ["distill", "label", "train", "compress", "eval"])
def test_missing_output_directory_exits_one_before_reading_input(pipeline, tmp_path, capsys,
                                                                 command, input_readable):
    argv = _command_argv(command, pipeline, tmp_path)
    out = tmp_path / "missing" / "out"
    argv[argv.index("--out") + 1] = str(out)
    if command in ("compress", "eval"):
        argv += ["--ratio", "0.5"]
    if not input_readable:
        argv[2] = str(tmp_path / "absent")  # the first input flag's value
    before = sorted(tmp_path.iterdir())
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == f"error: --out {out}: {out.parent} is not a directory\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["compress", "--checkpoint", "{ckpt}", "--input", "{dir}", "--ratio", "0.5"],
    ["distill", "--corpus", "{corpus}", "--out", "{dir}", "--mock"],
    ["stats", "--dataset", "{dir}"],
])
def test_directory_as_file_argument_exits_one(pipeline, tmp_path, capsys, argv):
    root, corpus, pairs, labeled, ckpt = pipeline
    names = {"ckpt": ckpt, "dir": tmp_path, "corpus": corpus}
    assert run_cli([a.format(**{k: str(v) for k, v in names.items()}) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_zero_heads_exits_one(pipeline, tmp_path, capsys):
    *_, labeled, _ = pipeline
    out = tmp_path / "m.ckpt"
    assert run_cli(["train", "--data", str(labeled), "--out", str(out), "--heads", "0"]) == 1
    assert capsys.readouterr().err == "error: num_heads must be at least 1\n"
    assert not out.exists()


@pytest.mark.parametrize("lr", ["nan", "inf"])
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_non_finite_learning_rate_exits_one_naming_it(pipeline, tmp_path, capsys, command, lr):
    *_, labeled, ckpt = pipeline
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--data", str(labeled), "--out", str(out)]
    else:
        argv = ["sweep", "--base-checkpoint", str(ckpt), "--extra", str(labeled),
                "--eval-data", str(labeled), "--fractions", "1.0", "--out-dir", str(out)]
    assert run_cli(argv + ["--lr", lr]) == 1
    err = capsys.readouterr().err
    assert err == f"error: learning_rate must be a finite positive number, got {float(lr)}\n"
    assert not out.exists()


def _command_argv(command, pipeline, tmp_path) -> list[str]:
    """Every required flag of ``command``, its inputs real and its output in ``tmp_path``."""
    _, corpus, pairs, labeled, ckpt = pipeline
    doc, qa, out = tmp_path / "doc.txt", tmp_path / "qa.jsonl", tmp_path / "out"
    doc.write_text("the cat sat on the mat")
    qa.write_text(json.dumps(GOOD_RECORDS["qa"]) + "\n")
    return [str(a) for a in {
        "distill": ["distill", "--corpus", corpus, "--out", out],
        "label": ["label", "--pairs", pairs, "--out", out],
        "train": ["train", "--data", labeled, "--out", out],
        "compress": ["compress", "--checkpoint", ckpt, "--input", doc, "--out", out],
        "eval": ["eval", "--checkpoint", ckpt, "--data", qa, "--out", out],
        "sweep": ["sweep", "--base-checkpoint", ckpt, "--extra", labeled,
                  "--eval-data", labeled, "--fractions", "1.0", "--out-dir", out],
        "stats": ["stats", "--dataset", pairs],
    }[command]]


# every flag that takes a number or a choice, by the kind it takes
_TRAINING_FLAG_KINDS = {"--loss": "choice", "--lr": "float", "--batch-size": "int",
                        "--epochs": "int", "--seed": "int"}
FLAG_KINDS = {
    "distill": {"--max-units": "int", "--max-concurrency": "int"},
    "label": {"--min-match-rate": "float"},
    "train": _TRAINING_FLAG_KINDS | {flag: "int" for flag in (
        "--embed-dim", "--layers", "--heads", "--ffn-dim", "--max-seq-len")},
    "compress": {"--ratio": "float", "--budget": "int"},
    "eval": {"--ratio": "float", "--budget": "int", "--max-answer-words": "int"},
    "sweep": _TRAINING_FLAG_KINDS,
    "stats": {"--bin-width": "float"},
}
# values that are not of the kind each flag takes
_WRONG_KIND_FLAG_VALUES = {"int": ["x", "2.5", ""], "float": ["x", ""], "choice": ["x", ""]}
WRONG_KIND_FLAGS = [
    (command, flag, value)
    for command, kinds in FLAG_KINDS.items()
    for flag, kind in kinds.items()
    for value in _WRONG_KIND_FLAG_VALUES[kind]
]


@pytest.mark.parametrize("command, flag, value", WRONG_KIND_FLAGS)
def test_wrong_kind_flag_value_exits_one_naming_the_flag(pipeline, tmp_path, capsys,
                                                         command, flag, value):
    argv = _command_argv(command, pipeline, tmp_path)
    before = sorted(tmp_path.iterdir())
    assert run_cli(argv + [flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument {flag}: invalid "), err
    assert repr(value) in err.splitlines()[0]
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command, flag, value, message", [
    ("train", "--embed-dim", "0", "embed_dim must be at least 1"),
    ("train", "--layers", "-1", "num_layers must not be negative"),
    ("train", "--ffn-dim", "0", "ffn_dim must be at least 1"),
    ("train", "--max-seq-len", "7", "max_seq_len must be at least 8"),
    ("train", "--epochs", "0", "epochs must be at least 1"),
    ("train", "--batch-size", "0", "batch_size must be at least 1"),
    ("train", "--lr", "0", "learning_rate must be a finite positive number, got 0.0"),
    ("sweep", "--epochs", "0", "epochs must be at least 1"),
    ("sweep", "--batch-size", "0", "batch_size must be at least 1"),
    ("sweep", "--lr", "-1", "learning_rate must be a finite positive number, got -1.0"),
    ("distill", "--max-units", "0", "max_units must be >= 1"),
    ("compress", "--ratio", "0", "keep_ratio must lie in (0, 1]"),
    ("compress", "--ratio", "nan", "keep_ratio must lie in (0, 1]"),
    ("compress", "--budget", "0", "unit_budget must be a positive word count"),
    ("eval", "--ratio", "1.5", "keep_ratio must lie in (0, 1]"),
    ("eval", "--budget", "-2", "unit_budget must be a positive word count"),
    ("train", "--seed", "-1", "seed must not be negative, got -1"),
    ("sweep", "--seed", "-1", "seed must not be negative, got -1"),
])
def test_out_of_range_setting_flag_exits_one_naming_the_setting(pipeline, tmp_path, capsys,
                                                                command, flag, value, message):
    argv = _command_argv(command, pipeline, tmp_path)
    before = sorted(tmp_path.iterdir())
    assert run_cli(argv + [flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == before


def test_a_model_too_large_to_allocate_exits_one_and_writes_nothing(pipeline, tmp_path, capsys):
    # a position table larger than any address space: refused before any page is touched
    argv = _command_argv("train", pipeline, tmp_path) + ["--max-seq-len", "1000000000000000"]
    before = sorted(tmp_path.iterdir())
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


def test_an_out_of_memory_error_without_a_message_is_named(pipeline, tmp_path, monkeypatch,
                                                            capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError  # as the allocator raises it: no message

    monkeypatch.setattr(cli, "train", exhausted)
    assert run_cli(_command_argv("train", pipeline, tmp_path)) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


@pytest.mark.parametrize("argv, message", [
    (["stats", "--bin-width", "nan"], r"bin_width must be a finite positive number, got nan"),
    (["stats", "--bin-width", "1e-300"], r"bin_width 1e-300 makes \S+ bins, over 10000"),
    (["label", "--min-match-rate", "nan", "--out", "{out}"],
     r"min_match_rate must be within \[0, 1\], got nan"),
    (["label", "--min-match-rate", "2", "--out", "{out}"],
     r"min_match_rate must be within \[0, 1\], got 2\.0"),
    (["distill", "--max-concurrency", "0", "--out", "{out}"],
     r"max_concurrency must be at least 1, got 0"),
    (["distill", "--max-concurrency", "-3", "--out", "{out}"],
     r"max_concurrency must be at least 1, got -3"),
])
def test_out_of_range_numeric_flag_exits_one_naming_it(pipeline, tmp_path, capsys, argv,
                                                       message):
    _, corpus, pairs, *_ = pipeline
    out = tmp_path / "out.jsonl"
    flag, data = {"stats": ("--dataset", pairs), "label": ("--pairs", pairs),
                  "distill": ("--corpus", corpus)}[argv[0]]
    argv = [a.format(out=out) for a in argv] + [flag, str(data)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: {message}\n", err), err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("url", ["notaurl", "file:///dev/null"])
def test_live_distill_with_a_non_http_url_exits_one_at_once(tmp_path, capsys, url):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat on the mat")
    out = tmp_path / "pairs.jsonl"
    started = time.perf_counter()
    code = run_cli(["distill", "--live", "--base-url", url, "--model-name", "m",
                    "--corpus", str(corpus), "--out", str(out)])
    assert code == 1
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == f"error: base_url must be an http or https URL, got {url!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt"]


@pytest.mark.parametrize("flag, value", [("--base-url", "http://example.invalid/v1"),
                                         ("--model-name", "gpt-4")], ids=["url", "model"])
def test_provider_flag_without_live_exits_one_naming_live(tmp_path, capsys, flag, value):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat on the mat")
    assert run_cli(["distill", "--corpus", str(corpus), "--out", str(tmp_path / "pairs.jsonl"),
                    flag, value]) == 1
    assert capsys.readouterr().err == f"error: {flag} is used only with --live\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt"]


def test_live_distill_manifest_records_the_teacher_but_not_the_key(tmp_path, monkeypatch):
    monkeypatch.setattr(HttpProvider, "complete",
                        lambda self, messages: MockProvider().complete(messages))
    monkeypatch.setenv(API_KEY_ENV, "sk-not-for-manifests")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat on the mat")
    manifests = {}
    for name in ("model-a", "model-b"):
        out = tmp_path / f"{name}.jsonl"
        assert run_cli(["distill", "--live", "--base-url", "http://example.invalid/v1",
                        "--model-name", name, "--corpus", str(corpus), "--out", str(out)]) == 0
        text = Path(f"{out}.manifest.json").read_text()
        assert "sk-not-for-manifests" not in text
        manifests[name] = json.loads(text)
    config = manifests["model-a"]["config"]
    assert (config["base_url"], config["model_name"]) == ("http://example.invalid/v1", "model-a")
    assert manifests["model-a"]["run_id"] != manifests["model-b"]["run_id"]


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--base-checkpoint", "{ckpt}", "--extra", "{two}", "--eval-data", "{two}",
      "--fractions", "0,0.1", "--epochs", "1", "--out-dir", "{out}"],
     "fraction 0.1 selects zero of 2 examples"),
    (["train", "--data", "{empty}", "--out", "{out}"],
     "cannot build a vocabulary from no examples"),
    (["stats", "--dataset", "{empty}"], "dataset has no pairs"),
    (["distill", "--corpus", "{empty}", "--out", "{out}"], "no documents to distill"),
    (["compress", "--checkpoint", "{ckpt}", "--input", "{doc}", "--ratio", "0.5",
      "--instruction", "{long}", "--out", "{out}"], "300-word instruction leaves no room in 64"),
    (["eval", "--checkpoint", "{ckpt}", "--data", "{qa}", "--ratio", "0.5", "--out", "{out}"],
     "300-word instruction leaves no room in 64"),
], ids=["sweep", "train", "stats", "distill", "compress", "eval"])
def test_data_too_small_for_the_request_exits_one(pipeline, tmp_path, capsys, argv, message):
    *_, labeled, ckpt = pipeline
    names = {"ckpt": ckpt, "two": tmp_path / "two.jsonl", "empty": tmp_path / "empty.jsonl",
             "doc": tmp_path / "doc.txt", "qa": tmp_path / "qa.jsonl", "out": tmp_path / "out",
             "long": " ".join(["why"] * 300)}
    names["two"].write_text("".join(labeled.read_text().splitlines(keepends=True)[:2]))
    names["empty"].write_text("")
    names["doc"].write_text("the cat sat on the mat")
    # the second of three items fails; the other two would score
    records = [GOOD_RECORDS["qa"], {**GOOD_RECORDS["qa"], "instruction": names["long"]},
               GOOD_RECORDS["qa"]]
    names["qa"].write_text("".join(json.dumps(r) + "\n" for r in records))
    before = sorted(tmp_path.iterdir())
    assert run_cli([a.format(**names) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["distill", "--corpus", "c.jsonl", "--out", "p.jsonl"],
    ["label", "--pairs", "p.jsonl", "--out", "l.jsonl"],
    ["train", "--data", "l.jsonl", "--out", "m.ckpt"],
    ["compress", "--checkpoint", "m.ckpt", "--input", "doc.txt", "--ratio", "0.5"],
    ["eval", "--checkpoint", "m.ckpt", "--data", "qa.jsonl", "--ratio", "0.5",
     "--out", "r.json"],
    ["sweep", "--base-checkpoint", "m.ckpt", "--extra", "l.jsonl", "--eval-data", "l.jsonl",
     "--out-dir", "sweep"],
    ["stats", "--dataset", "p.jsonl"],
], ids=lambda argv: argv[0])
def test_config_file_flag_is_unknown(capsys, argv):
    assert run_cli(argv + ["--config", "run.json"]) == 1
    assert "error: unrecognized arguments: --config run.json\n" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "distill" in capsys.readouterr().out


def _run_module(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "efpc.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_module_entry_point_runs_the_cli():
    done = _run_module("--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ")
    assert "distill" in done.stdout
    done = _run_module("train", "--data", "l.jsonl", "--out", "m.ckpt", "--no-such-flag")
    assert done.returncode == 1
    assert "--no-such-flag" in done.stderr
