"""The traced benchmark run patches names inside efpc's modules and reads
counts off their arguments and results; a rename or a signature change
there would make the traced run fail, so both are checked. The benchmark's
input and workload modules are imported too, so a name they take from efpc
that goes away fails here rather than in the benchmark."""

import importlib
import importlib.util
import sys
from pathlib import Path

from efpc import compressor
from efpc.compressor import CompressionRequest
from efpc.model import UNK_ID, training, window_example

from helpers import PARITY_POOL, fast_train_config, parity_examples, small_model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_bench_hook_target_exists():
    spans = _spans_module()
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in spans.HOOKS
        if not callable(getattr(module, attr, None))
    ]
    assert not missing


def test_traced_train_and_compress_record_token_counts_without_errors():
    spans = _spans_module()
    data = parity_examples(6, 2)
    model = small_model(data, embed_dim=8, num_layers=1, num_heads=2, ffn_dim=16)
    originals = [getattr(module, attr) for module, attr, *_ in spans.HOOKS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        trained, _ = training.train(model, data, fast_train_config(epochs=1, batch_size=4))
        compressor.compress(
            trained, CompressionRequest(original="amber basalt cedar delta", keep_ratio=0.5)
        )
    finally:
        tracer.uninstall()
    names = [s["name"] for s in tracer.spans]
    for name in ("network.backward", "network.forward", "adam.step", "compressor.compress"):
        assert name in names
    for s in tracer.spans:
        assert "error" not in s, s
        if s["name"] in ("network.backward", "network.forward"):
            assert s["tokens"] > 0
    assert [getattr(module, attr) for module, attr, *_ in spans.HOOKS] == originals
    metrics = spans.layer_metrics(tracer.spans, trained.config, checkpoint_bytes=0)
    assert metrics["network.backward.tokens"]["value"] > 0
    assert metrics["adam.steps"]["value"] == 2


def test_traced_tokenizer_spans_count_the_windows():
    spans = _spans_module()
    # 20 words behind a 1-word instruction and SEP take two 16-token windows
    data = parity_examples(3, 5, n_words=20)
    model = small_model(data, embed_dim=8, num_layers=1, num_heads=2, ffn_dim=16)
    config = fast_train_config(epochs=1)
    instruction, original = "alpha zebra", " ".join(PARITY_POOL * 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        training.train(model, data, config)
        compressor.compress(model, CompressionRequest(original, instruction, keep_ratio=0.5))
    finally:
        tracer.uninstall()
    expected = [training.prepare_examples(model, [ex], config.loss_variant) for ex in data]
    expected.append(window_example(
        model.vocab, instruction.split(), original.split(), (0,) * 32, model.config.max_seq_len
    ))
    recorded = [s for s in tracer.spans if s["name"] == "tokenizer.window_example"]
    assert [s["windows"] for s in recorded] == [2, 2, 2, 3]
    for span, windows in zip(recorded, expected, strict=True):
        assert span["windows"] == len(windows)
        assert span["tokens"] == sum(len(w.token_ids) for w in windows)
        assert span["prefix"] == sum(w.boundary for w in windows)
        assert span["unk"] == sum(w.token_ids.count(UNK_ID) for w in windows)
    assert recorded[-1]["unk"] == 3  # "zebra" leads each compress window
    metrics = spans.layer_metrics(tracer.spans, model.config, checkpoint_bytes=0)
    assert metrics["tokenizer.windows"]["value"] == 9
    assert metrics["tokenizer.tokens"]["value"] == sum(s["tokens"] for s in recorded)


def test_bench_inputs_and_workloads_import(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        inputs = importlib.import_module("inputs")
        workloads = importlib.import_module("workloads")
        assert callable(inputs.qa_stream) and callable(workloads.run_train)
    finally:
        for name in ("inputs", "workloads"):
            sys.modules.pop(name, None)
