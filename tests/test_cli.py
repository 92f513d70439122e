import json
import re
from dataclasses import asdict

import pytest

from efpc.cli import _SECTION_KEYS, load_config, run_cli
from efpc.errors import ConfigParseError, ConfigValidationError
from efpc.model import ModelConfig, TrainConfig, load_checkpoint

from helpers import RATIO_DOCS


# ------------------------------------------------------------- load_config


def test_load_config_reads_sections(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "seed": 9,
        "model": {"embed_dim": 16},
        "train": {"epochs": 2},
        "compress": {"ratio": 0.5},
        "paths": {"corpus": "c.jsonl"},
    }))
    cfg = load_config(path)
    assert cfg.seed == 9
    assert cfg.model == {"embed_dim": 16}
    assert cfg.train == {"epochs": 2}
    assert cfg.compress == {"ratio": 0.5}
    assert cfg.paths == {"corpus": "c.jsonl"}
    assert cfg.provider == {}


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigParseError):
        load_config(tmp_path / "nope.json")


def test_load_config_reports_json_error_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "model": {,}\n}\n')
    with pytest.raises(ConfigParseError) as err:
        load_config(path)
    assert f"{path}:2:" in str(err.value)


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigParseError):
        load_config(path)


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"optimizer": {}}')
    with pytest.raises(ConfigValidationError):
        load_config(path)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"train": {"momentum": 0.9}}')
    with pytest.raises(ConfigValidationError) as err:
        load_config(path)
    assert "momentum" in str(err.value)


def test_load_config_rejects_ratio_and_budget_together(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"compress": {"ratio": 0.5, "budget": 3}}')
    with pytest.raises(ConfigValidationError):
        load_config(path)


def test_load_config_rejects_non_integer_seed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": "7"}')
    with pytest.raises(ConfigValidationError):
        load_config(path)


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
    assert corpus.name in manifest["input_digests"]
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
                    "--resume", str(ckpt), "--epochs", "1", "--lr", "1e-3"]) == 0
    resumed = load_checkpoint(out)
    assert resumed.config == load_checkpoint(ckpt).config


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


def test_compress_flag_overrides_config_file_target(pipeline, tmp_path):
    *_, ckpt = pipeline
    doc = tmp_path / "doc.txt"
    doc.write_text("one two three four five six")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"compress": {"ratio": 0.5}}))
    out = tmp_path / "c.json"
    # --budget wins over the file's ratio rather than clashing with it
    assert run_cli(["compress", "--config", str(cfg), "--checkpoint", str(ckpt),
                    "--input", str(doc), "--budget", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n_kept"] == 2


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


GOOD_RECORDS = {
    "corpus": {"text": "The cat sat on the mat.", "instruction": "Who sat?"},
    "pairs": {"original": "The cat sat.", "compressed": "cat sat.", "ratio": 1.5},
    "labeled": {"instruction": "who", "original_words": ["cat", "sat"],
                "labels": [0, 1, 0], "boundary_m": 1},
    "qa": {"context": "The cat sat.", "question": "Who sat?", "answers": ["cat"]},
}
REQUIRED_FIELD = {"corpus": "text", "pairs": "compressed", "labeled": "boundary_m",
                  "qa": "answers"}
# a value the record's type rejects on construction
BAD_VALUE = {"pairs": ("compressed", " "), "labeled": ("labels", [0, 1]),
             "qa": ("answers", [])}


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
    if fault == "bad value":
        field, value = BAD_VALUE[kind]
        return json.dumps(good | {field: value})
    return {"not an object": '["a"]', "bad json": "{nope"}[fault]


RECORD_FAULTS = [
    (kind, fault)
    for kind in sorted(GOOD_RECORDS)
    for fault in ("missing field", "not an object", "bad json")
] + [(kind, "bad value") for kind in sorted(BAD_VALUE)]


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


@pytest.mark.parametrize("section", ["model", "train"])
def test_wrong_type_config_values_exit_one_naming_the_key(pipeline, tmp_path, capsys, section):
    *_, labeled, _ = pipeline
    out = tmp_path / "m.ckpt"
    cfg = tmp_path / "cfg.json"
    for key in sorted(_SECTION_KEYS[section]):
        for value in ("64", True, [1]):
            cfg.write_text(json.dumps({section: {key: value}}))
            assert run_cli(["train", "--config", str(cfg), "--data", str(labeled),
                            "--out", str(out)]) == 1, (key, value)
            err = capsys.readouterr().err
            assert err.startswith(f"error: {key} must be "), err
            assert err.count("\n") == 1
            assert not out.exists()


def test_divergent_training_exits_two_and_writes_no_checkpoint(tmp_path, capsys):
    data = tmp_path / "labeled.jsonl"
    data.write_text(
        json.dumps({"instruction": "who", "original_words": ["the", "cat", "sat", "down"],
                    "labels": [0, 0, 1, 1, 0], "boundary_m": 1}) + "\n"
        + json.dumps({"original_words": ["dogs", "bark", "at", "night"],
                      "labels": [1, 1, 0, 1], "boundary_m": 0}) + "\n"
    )
    out = tmp_path / "m.ckpt"
    code = run_cli(["train", "--data", str(data), "--out", str(out), "--lr", "1e9",
                    "--embed-dim", "16", "--layers", "1", "--heads", "2", "--ffn-dim", "32"])
    assert code == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: epoch \d+ batch \d+: (loss is nan|\S+ gradient is not finite)\n",
                        err), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["labeled.jsonl"]


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


def test_bad_config_file_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{nope")
    assert run_cli(["stats", "--config", str(cfg), "--dataset", "x"]) == 1


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "distill" in capsys.readouterr().out
