#!/usr/bin/env python
"""Observability smoke gate: full-lifecycle run trees at <5% overhead.

Serves the same compute-heavy sharded workload twice -- untraced and
traced (``sample_rate=1.0``, every span exported) -- and asserts the three
properties the tracing pipeline promises:

1. **Completeness** -- every request reconstructs into exactly one run
   tree naming its exact micro-batch, and every tree carries the full
   lifecycle: ``enqueue``, ``batch``, ``prepare``, ``cache_lookup``,
   ``execute`` (with ``fanout`` / ``shard_search`` / ``gather`` /
   ``digitise`` under it), ``cache_write`` and ``reply``.
2. **Transparency** -- traced responses are bit-identical to untraced
   ones: observability never changes an answer.
3. **Cheapness** -- best-of-N traced serving time is within
   ``--max-overhead-pct`` (default 5%) of best-of-N untraced.  The gate
   compares minima, not medians: scheduler noise on a loaded box only
   ever *adds* time, so the fastest run of each flavour is the cleanest
   estimate of its true cost (the same reasoning as ``timeit``).  It is
   also adaptive: after the first ``--trials`` paired runs it keeps
   adding pairs (up to ``--max-trials``) while the comparison still
   fails, so a lucky dip on one side cannot flake the gate -- a *real*
   regression keeps the traced minimum high no matter how many pairs
   run.  Medians are still printed for the trajectory record.

The workload is deliberately compute-heavy (large CAM, cache misses
everywhere) because that is the regime tracing must be cheap in: span
bookkeeping is a fixed few microseconds per request, so it is measured
against requests that do real work, not against empty no-op requests.
Each run is timed by :func:`repro.api.bench.serve_window`, the serving
window ``make bench`` times too.

Usage::

    PYTHONPATH=src python scripts/trace_smoke.py            # make trace-smoke
    PYTHONPATH=src python scripts/trace_smoke.py --trials 5

Exit status is nonzero on any failed property.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.bench import serve_window  # noqa: E402  (path bootstrap above)
from repro.obs import InMemoryExporter, TailSampler, Tracer, report  # noqa: E402
from repro.serve import ServeConfig  # noqa: E402
from repro.shard import build_demo_sharded_engine  # noqa: E402

#: Stages every traced request must attribute time to (the sharded,
#: cache-missing workload exercises the complete lifecycle).
REQUIRED_STAGES = ("enqueue", "batch", "prepare", "cache_lookup", "execute",
                   "fanout", "shard_search", "gather", "digitise",
                   "cache_write", "reply")


def serve_once(args: argparse.Namespace,
               traced: bool) -> tuple[np.ndarray, float, InMemoryExporter | None]:
    """One serving run; returns (responses, serving_s, exporter|None)."""
    engine = build_demo_sharded_engine(
        classes=args.classes, input_dim=args.input_dim,
        hash_length=args.hash_length, seed=args.seed,
        num_shards=args.shards)
    exporter = InMemoryExporter() if traced else None
    tracer = None
    if traced:
        # The traced arm carries the full metrics plane: every span also
        # flows through a tail sampler with a live rolling-quantile
        # policy, so the <5% overhead gate covers tail buffering too
        # (the serve metrics instruments are always on in both arms).
        tail = TailSampler([InMemoryExporter()], keep_slow_quantile=0.99)
        tracer = Tracer(exporters=[exporter], tail_sampler=tail)
    config = ServeConfig(max_batch=args.max_batch, max_wait_ms=2.0,
                         cache_capacity=args.requests)
    queries = np.random.default_rng(args.seed).standard_normal(
        (args.requests, args.input_dim))
    try:
        serving_s, responses, _ = serve_window(engine, queries, config, tracer)
    finally:
        engine.close()
    return np.stack(responses), serving_s, exporter


def check_trees(args: argparse.Namespace,
                exporter: InMemoryExporter) -> list[str]:
    """Completeness problems of one traced run ([] when clean)."""
    trees = report.build_run_trees(exporter.spans())
    ok, problems = report.verify_run_trees(trees,
                                           expected_requests=args.requests)
    for tree in trees:
        stages = tree.stage_ms()
        missing = [name for name in REQUIRED_STAGES if stages[name] <= 0.0]
        if missing:
            problems.append(
                f"request {tree.root.span.get('span_id')} is missing "
                f"lifecycle stages: {missing}")
            break  # one example is enough; they would all repeat
    if not problems:
        print(f"[trace-smoke] {len(trees)} run trees, all complete; "
              f"stage attribution:")
        for line in report.render_stage_table(
                report.stage_table(trees)).splitlines():
            print(f"[trace-smoke]   {line}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=400)
    parser.add_argument("--classes", type=int, default=4096)
    parser.add_argument("--input-dim", type=int, default=256)
    parser.add_argument("--hash-length", type=int, default=1024)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--trials", type=int, default=5,
                        help="paired (untraced, traced) timing runs; the "
                             "overhead gate compares the best (fastest) "
                             "run of each flavour")
    parser.add_argument("--max-trials", type=int, default=12,
                        help="keep adding paired runs past --trials while "
                             "the overhead gate still fails, up to this "
                             "many (absorbs one-sided scheduler noise)")
    parser.add_argument("--max-overhead-pct", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    failures: list[str] = []

    # Warmup (allocator, thread pools, numpy caches) -- not timed.
    warm = argparse.Namespace(**vars(args))
    warm.requests = max(32, args.requests // 8)
    serve_once(warm, traced=False)

    untraced_s: list[float] = []
    traced_s: list[float] = []
    reference: np.ndarray | None = None
    max_trials = max(args.trials, args.max_trials)

    def overhead() -> float:
        return 100.0 * (min(traced_s) - min(untraced_s)) / min(untraced_s)

    for trial in range(max_trials):
        plain, plain_s, _ = serve_once(args, traced=False)
        traced, traced_s_one, exporter = serve_once(args, traced=True)
        untraced_s.append(plain_s)
        traced_s.append(traced_s_one)
        print(f"[trace-smoke] trial {trial + 1}: "
              f"untraced {plain_s * 1e3:.1f} ms, "
              f"traced {traced_s_one * 1e3:.1f} ms")
        if reference is None:
            reference = plain
        if not np.array_equal(plain, reference):
            failures.append("untraced runs are not deterministic")
        if not np.array_equal(traced, reference):
            failures.append(
                "traced responses differ from untraced (trial "
                f"{trial + 1}) -- tracing changed an answer")
        if trial == 0:
            failures.extend(check_trees(args, exporter))
        if trial + 1 >= args.trials and overhead() <= args.max_overhead_pct:
            break  # gate satisfied; extra pairs prove nothing more

    overhead_pct = overhead()
    print(f"[trace-smoke] median untraced "
          f"{statistics.median(untraced_s) * 1e3:.1f} ms, traced "
          f"{statistics.median(traced_s) * 1e3:.1f} ms "
          f"({len(untraced_s)} paired trials)")
    print(f"[trace-smoke] best untraced {min(untraced_s) * 1e3:.1f} ms, "
          f"traced {min(traced_s) * 1e3:.1f} ms, "
          f"overhead {overhead_pct:+.2f}% "
          f"(gate {args.max_overhead_pct:.1f}%)")
    if overhead_pct > args.max_overhead_pct:
        failures.append(
            f"tracing overhead {overhead_pct:+.2f}% exceeds "
            f"{args.max_overhead_pct:.1f}% after {len(untraced_s)} "
            f"paired trials")

    for failure in failures:
        print(f"[trace-smoke] FAIL: {failure}")
    print(f"[trace-smoke] {'FAILED' if failures else 'OK'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
