"""Benchmark entry point: one workload per process, one result line last.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload classify-open --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` (the default) prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the workload untraced and then
traced, each for half of ``--seconds``, and prints the per-layer metrics.
``--workload all`` runs every workload in a fresh interpreter, one after
another, untraced and then traced unless ``--trace`` picks one.  Workload knobs
and their rationale live in ``perfbench/workloads.json``; run records and
span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 -- imports count towards set-up time
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = {
    "classify-open": "classify_open",
    "classify-remote": "classify_remote",
    "retrieval-mixed": "retrieval_mixed",
    "cnn-vhl": "cnn_vhl",
}
#: Complete builds per run; ``setup_s`` takes their median.
SETUP_REPETITIONS = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*MODULES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter, so set-up and RSS are its own."""
    status = 0
    for trace in (0, 1) if args.trace is None else (args.trace,):
        for name in MODULES:
            result = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], cwd=ROOT, check=False)
            status = status or result.returncode
    return status


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    args.trace = args.trace or 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    # The benchmark measures the default execution paths.  Set before numpy
    # loads: BLAS helper threads spin between calls, so their CPU swings by
    # half from run to run on a 2-core host, and every workload brings its
    # own threads.
    for name in ("REPRO_EXECUTOR", "REPRO_NUM_THREADS"):
        os.environ.pop(name, None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import probes
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cfg = json.loads((HERE / "workloads.json").read_text())[args.workload]
    workload = importlib.import_module(MODULES[args.workload]).Workload(
        cfg, args.seed)
    start_s = time.perf_counter() - PROCESS_START  # imports and inputs
    try:
        setups = set_up(workload, SETUP_REPETITIONS)
        record = {"setup_runs_s": setups, "start_s": start_s}
        with probes.counting_word_ops() as word_ops:
            if args.trace == 0:
                values, extra = end_to_end(harness, workload, args.seconds,
                                           record)
                values["setup_s"] = start_s + statistics.median(setups)
            else:
                values, extra = per_layer(harness, workload, args, spec, record)
        # classify-remote counts its server child's kernel calls itself.
        record["counters"] = {"kernel_word_ops": word_ops.total,
                              **workload.counters()}
        attempted, failed = workload.verify()
    finally:
        workload.close()
    error_rate = failed / attempted if attempted else 0.0
    if args.trace:
        values["error_rate"] = error_rate
    record["extra_metrics"] = {**extra, "error_rate": (error_rate, "fraction")}
    specs = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {metric["name"]: (values[metric["name"]], metric["unit"])
               for metric in specs}
    harness.emit(args.workload, args.seed, args.trace, metrics, attempted,
                 failed, failed == 0, record)
    return 0


def set_up(workload, repetitions: int) -> list[float]:
    """Build and warm the workload several times; the last one is measured."""
    seconds = []
    for repetition in range(repetitions):
        if repetition:
            workload.close()
            gc.collect()
        started = time.perf_counter()
        workload.setup()
        seconds.append(time.perf_counter() - started)
    return seconds


def end_to_end(harness, workload, seconds: float, record: dict) -> tuple:
    """The untraced run: every end-to-end metric but ``setup_s``."""
    steal0 = harness.host_steal_s()
    phase = workload.measure(seconds)
    record["host_steal_s"] = harness.host_steal_s() - steal0
    values = {
        "ops_per_s": phase.extra.get("ops_per_s", phase.ops_per_s),
        "latency_p50_ms": phase.latency_ms(50),
        "cpu_ms_per_op": phase.cpu_ms_per_op,
        "peak_rss_mb": phase.extra.get("rss_mb", harness.peak_rss_mb())
        + phase.extra.get("child_rss_mb", 0.0),
    }
    tail = harness.supported_tail(len(phase.latencies_ms))
    record.update(samples=len(phase.latencies_ms), windows=phase.window_summary(),
                  supported_tail=tail, phases={"timed": phase.extra})
    # Tails are printed, not gated: millisecond tails follow host steal.
    tails = {f"latency_p{q}_ms": (phase.latency_ms(q), "ms")
             for q in sorted({90, tail or 90})}
    return values, {**tails, **workload.extra_metrics(phase)}


def per_layer(harness, workload, args: argparse.Namespace, spec: dict,
              record: dict) -> tuple:
    """Half the time untraced, half traced; layers absent from a workload read 0."""
    plain = workload.measure(args.seconds / 2)
    spans = harness.Spans()
    traced = workload.measure_traced(args.seconds / 2, spans)
    stats = harness.SpanStats(spans)
    values = {metric["name"]: 0.0 for metric in spec["per_layer"]}
    values.update(stats.layer_metrics(traced.ops, traced.wall_s))
    values.update(workload.layer_metrics(plain, traced, stats))
    values["latency_p90_ms"] = plain.latency_ms(90)
    values["bench.trace_overhead_pct"] = workload.trace_overhead_pct(plain, traced)
    values["bench.unattributed_share"] = stats.unattributed_share(workload.roots)
    spans.dump(harness.OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl")
    record.update(phases={"untraced": plain.extra, "traced": traced.extra},
                  span_count=len(spans.records))
    return values, {}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
