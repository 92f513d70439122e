"""The traced benchmark run patches names inside efpc's modules and reads
counts off their arguments and results; a rename or a signature change
there would make the traced run fail, so both are checked."""

import importlib.util
from pathlib import Path

from efpc import compressor
from efpc.compressor import CompressionRequest
from efpc.model import training

from helpers import fast_train_config, parity_examples, small_model

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
