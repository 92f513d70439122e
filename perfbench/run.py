"""Offline benchmark of efpc: one workload per run, inputs from a seed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload qa_short --seed 1 --seconds 15 --trace 0

Workloads are ``qa_short``, ``doc_long`` and ``train`` (see workloads.py
and BENCHMARK.json). The package is imported from ``src/`` next to this
directory; without it the run exits with code 1 and prints no result.

Output: one ``{"report": ...}`` line with the environment, the measured
input properties, every end-to-end figure under its workload-specific
name, layer failure counts and the output digests, then, as the last
line, the result object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the gated end-to-end metrics, measured
untraced. With ``--trace 1`` the run first repeats itself untraced in a
child process, then runs again with every layer traced, and the metrics
are the per-layer ones plus ``overhead.<metric>``: traced minus untraced
for each end-to-end metric. Spans go to ``.bench_out/``. The exit code is
1 when an output check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median

# One BLAS thread: the encoder's products are small, and a single thread
# keeps runs steady on a shared 2-CPU machine. Must precede numpy's import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("qa_short", "doc_long", "train")


def _load_package():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    try:
        import efpc
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import efpc from {SRC}: {exc}")
    if not Path(efpc.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: efpc was imported from {efpc.__file__}, not {SRC}")


def _blas_threads():
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            return ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            pass
    return None


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            ref_file = ROOT / ".git" / name
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    from workloads import POOL

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "distill_pool_threads": POOL,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "source_sha256": h.hexdigest(),
    }


def measure(workload: str, seed: int, seconds: float, tracer, out_dir: Path):
    """Set up and run one workload. Returns the Run, the set-up state, the
    figures under their workload-specific names, and the gated metrics."""
    import workloads as wl

    run = wl.Run()
    state = wl.setup_repeated(run, seed, str(out_dir), serving=workload != "train")
    if workload == "qa_short":
        wl.run_qa_short(run, state, seconds, tracer)
    elif workload == "doc_long":
        wl.run_doc_long(run, state, seconds, tracer)
    else:
        wl.run_train(run, state, seconds, tracer, str(out_dir), seed)

    op_ms = run.op_ms()
    attempted, failed = run.totals()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    named = {
        "setup_s": (state["setup_s"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_share": (failed / attempted, "share"),
    }
    op_name = {"qa_short": "qa_batch_ms", "doc_long": "long_doc_ms", "train": "train_shard_ms"}[workload]
    if workload == "qa_short":
        named["qa_items_per_s"] = (run.extra["items"] / sum(run.work_s), "1/s")
        named["qa_context_words_per_s"] = (run.words_per_s(), "words/s")
        named["qa_token_f1"] = (run.extra["qa_token_f1"], "share")
    elif workload == "doc_long":
        named["long_words_per_s"] = (run.words_per_s(), "words/s")
    else:
        named["train_tokens_per_s"] = (run.words_per_s(), "words/s")
        named["prep_words_per_s"] = (run.extra["prep_words_per_s"], "words/s")
    named[op_name + "_p50"] = (median(op_ms), "ms")
    named[op_name + "_tail"] = (wl.tail(op_ms) or {"value": None}, "ms")
    # serving workloads score the model set-up trained; train scores its own
    accuracy = run.extra.get("heldout_token_accuracy", state.get("heldout_accuracy"))
    named["heldout_token_accuracy"] = (accuracy, "share")

    gated = {
        "words_per_s": {"value": run.words_per_s(), "unit": "words/s"},
        "op_ms_p50": {"value": named[op_name + "_p50"][0], "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": state["setup_s"], "unit": "s"},
    }
    return run, state, named, gated


def _metric(value, unit: str) -> dict:
    """A tail comes as a dict that also names its percentile and sample count."""
    if isinstance(value, dict):
        return {**value, "unit": unit}
    return {"value": value, "unit": unit}


def report_line(workload, seed, seconds, run, state, named) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "environment": environment(),
        "inputs": run.extra["inputs"],
        "metrics": {k: _metric(v, u) for k, (v, u) in named.items()},
        "layer_attempted_failed": run.counts,
        "operations": len(run.op_s),
        "digests": {"keep_sets": run.keep_digest.hexdigest(),
                    "params": run.extra.get("params_digest", state["params_digest"])},
        "problems": run.problems,
    }


def untraced_in_child(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: untraced run failed with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_package()

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    baseline = untraced_in_child(args) if args.trace else None

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        run, state, named, metrics = measure(args.workload, args.seed, args.seconds, tracer, out_dir)
    finally:
        if tracer is not None:
            tracer.uninstall()

    report = report_line(args.workload, args.seed, args.seconds, run, state, named)
    report["gated"] = metrics
    if tracer is not None:
        from spans import layer_metrics

        checkpoint_bytes = os.path.getsize(state["checkpoint"])
        layers = layer_metrics(tracer.spans, state["model"].config, checkpoint_bytes)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        report["spans"] = str(spans_path.relative_to(ROOT))
        report["untraced"] = baseline["metrics"]
        overhead = {f"overhead.{k}": {"value": v["value"] - baseline["metrics"][k]["value"],
                                      "unit": v["unit"]} for k, v in metrics.items()}
        metrics = {**layers, **overhead}
    print(json.dumps({"report": report}))
    attempted, failed = run.totals()
    print(json.dumps({"correct": not run.problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if run.problems else 0


if __name__ == "__main__":
    sys.exit(main())
