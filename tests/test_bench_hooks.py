"""The traced benchmark run patches names inside efpc's modules; a rename
there would make the traced run fail, so every hook target is checked."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_bench_hook_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in spans.HOOKS
        if not callable(getattr(module, attr, None))
    ]
    assert not missing
