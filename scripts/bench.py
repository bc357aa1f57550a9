#!/usr/bin/env python
"""Perf-trajectory harness: write BENCH_kernels.json and BENCH_e2e.json.

Runs two suites and records median wall-clock per workload, stamped with
the commit and timestamp, so every PR has a perf baseline to beat:

* kernel microbench -- packed XOR+popcount Hamming kernel vs the legacy
  +-1 int16 GEMM across a rows x hash-length grid (includes the 2048x2048,
  k=128 acceptance workload, which must show >= 5x speedup);
* end-to-end -- DeepCAM approximate inference, bit-level CAM batch search,
  batch hashing, the serving/sharding/retrieval/net suites, the executor
  scaling curve (inline vs threads vs processes on one cluster search),
  the traced-vs-untraced observability overhead pair (report-only),
  and (in full mode) the pytest-benchmark timings of the paper-figure
  workloads under ``benchmarks/``.

Usage::

    PYTHONPATH=src python scripts/bench.py             # full run (make bench)
    PYTHONPATH=src python scripts/bench.py --quick     # smoke run (make bench-quick)
    PYTHONPATH=src python scripts/bench.py --skip-paper --out-dir /tmp

Exit status is nonzero when any acceptance gate fails (kernel, serve,
shard, executor, retrieval, and the loopback wire-tax ceiling), so CI can
gate on perf regressions.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.bench import (  # noqa: E402  (path bootstrap above)
    DEFAULT_KERNEL_GRID,
    QUICK_KERNEL_GRID,
    collect_environment,
    e2e_benchmarks,
    executor_benchmarks,
    kernel_microbench,
    net_benchmarks,
    obs_benchmarks,
    retrieval_benchmarks,
    run_paper_benchmarks,
    serve_benchmarks,
    shard_benchmarks,
    write_bench_report,
)

#: Paper-figure benchmark files exercised in --quick mode (fast ones).
QUICK_PAPER_FILES = (
    "benchmarks/test_bench_fig2_dot_product.py",
    "benchmarks/test_bench_fig8_cam_overhead.py",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: smaller grid, fewer rounds, "
                             "only the fast paper benchmarks")
    parser.add_argument("--skip-paper", action="store_true",
                        help="skip the pytest-benchmark paper workloads")
    parser.add_argument("--rounds", type=int, default=None,
                        help="override timed rounds per workload")
    parser.add_argument("--out-dir", type=Path, default=REPO_ROOT,
                        help="directory for the BENCH_*.json files")
    args = parser.parse_args(argv)

    environment = collect_environment(REPO_ROOT)
    mode = "quick" if args.quick else "full"
    rounds = args.rounds if args.rounds is not None else (3 if args.quick else 5)

    # -- kernels --------------------------------------------------------------
    grid = QUICK_KERNEL_GRID if args.quick else DEFAULT_KERNEL_GRID
    print(f"[bench] kernel microbench ({mode}): grid={list(grid)}, rounds={rounds}")
    kernel_records, kernel_summary = kernel_microbench(grid=grid, rounds=rounds)
    kernels_path = args.out_dir / "BENCH_kernels.json"
    write_bench_report(kernels_path, kernel_records, environment,
                       extra={"mode": mode, "summary": kernel_summary})
    for cell, speedup in kernel_summary["speedups"].items():
        print(f"[bench]   packed vs unpacked {cell}: {speedup:.1f}x")
    for cell, by_threads in kernel_summary["threaded_speedups"].items():
        for label, speedup in by_threads.items():
            print(f"[bench]   threaded packed ({label}) vs serial {cell}: "
                  f"{speedup:.2f}x")
    cell = kernel_summary["retrieval_cell"]
    print(f"[bench]   narrow packed kernel {cell['workload']}: "
          f"{cell['median_s'] * 1e3:.2f} ms, "
          f"{cell['speedup_vs_serial']:.2f}x vs serial "
          f"{cell['serial_median_s'] * 1e3:.2f} ms (recorded, not gated)")
    for label, speedup in kernel_summary["worker_scaling"].items():
        print(f"[bench]   process engine ({label}) vs serial: {speedup:.2f}x")
    print(f"[bench] wrote {kernels_path}")

    # -- end to end -----------------------------------------------------------
    print(f"[bench] end-to-end workloads ({mode})")
    e2e_records = e2e_benchmarks(quick=args.quick, rounds=rounds)
    print(f"[bench] serving workloads ({mode})")
    serve_records, serve_summary = serve_benchmarks(quick=args.quick)
    e2e_records.extend(serve_records)
    print(f"[bench] sharded serving workloads ({mode})")
    shard_records, shard_summary = shard_benchmarks(quick=args.quick)
    e2e_records.extend(shard_records)
    print(f"[bench] executor scaling workloads ({mode})")
    executor_records, executor_summary = executor_benchmarks(quick=args.quick)
    e2e_records.extend(executor_records)
    print(f"[bench] retrieval workloads ({mode})")
    retrieval_records, retrieval_summary = retrieval_benchmarks(quick=args.quick)
    e2e_records.extend(retrieval_records)
    print(f"[bench] network overhead workloads ({mode})")
    net_records, net_summary = net_benchmarks(quick=args.quick)
    e2e_records.extend(net_records)
    print(f"[bench] observability overhead workloads ({mode})")
    obs_records, obs_summary = obs_benchmarks(quick=args.quick)
    e2e_records.extend(obs_records)
    if not args.skip_paper:
        files = list(QUICK_PAPER_FILES) if args.quick else None
        max_time = 0.2 if args.quick else 0.5
        print(f"[bench] paper workloads via pytest-benchmark "
              f"({'subset' if files else 'all'})")
        e2e_records.extend(run_paper_benchmarks(REPO_ROOT, files=files,
                                                max_time_s=max_time))
    e2e_path = args.out_dir / "BENCH_e2e.json"
    write_bench_report(e2e_path, e2e_records, environment,
                       extra={"mode": mode, "serve": serve_summary,
                              "shard": shard_summary,
                              "executor": executor_summary,
                              "retrieval": retrieval_summary,
                              "net": net_summary,
                              "obs": obs_summary})
    for record in e2e_records:
        if record.group in ("e2e", "serve"):
            print(f"[bench]   {record.name}: median {record.median_s * 1e3:.2f} ms")
    for name, rps in serve_summary["throughput_rps"].items():
        print(f"[bench]   serve throughput {name}: {rps:,.0f} req/s")
    print(f"[bench]   serve zipf cache hit rate: "
          f"{serve_summary['zipf_cache_hit_rate']:.2f}")
    for name, rps in shard_summary["scaling_throughput_rps"].items():
        print(f"[bench]   shard scaling {name}: {rps:,.0f} req/s")
    for name, rps in shard_summary["throughput_rps"].items():
        print(f"[bench]   shard throughput {name}: {rps:,.0f} req/s")
    for name, qps in executor_summary["throughput_qps"].items():
        print(f"[bench]   executor scaling {name}: {qps:,.0f} q/s")
    for name, speedup in retrieval_summary["speedups"].items():
        print(f"[bench]   retrieval partial vs full gather {name}: "
              f"{speedup:.1f}x")
    for op, factor in net_summary["remote_vs_inproc"].items():
        print(f"[bench]   net remote vs in-process {op}: {factor:.1f}x")
    # Report-only: tracing overhead trajectory (the gate is `make trace-smoke`).
    print(f"[bench]   obs tracing overhead: "
          f"{obs_summary['overhead_pct']:+.2f}% "
          f"({obs_summary['spans_per_request']:.1f} spans/request)")
    print(f"[bench] wrote {e2e_path}")

    # -- acceptance gates -----------------------------------------------------
    failed = False
    for suite, summary in (("kernel", kernel_summary),
                           ("serve", serve_summary),
                           ("shard", shard_summary),
                           ("retrieval", retrieval_summary)):
        gate = summary.get("acceptance")
        if gate is None:  # the kernel grid may omit the acceptance cell
            continue
        print(f"[bench] {suite} acceptance {gate['workload']}: "
              f"{gate['speedup']:.1f}x "
              f"(required >= {gate['min_required_speedup']}x) -> "
              f"{'PASS' if gate['passed'] else 'FAIL'}")
        failed = failed or not gate["passed"]
    executor_acceptance = executor_summary["acceptance"]
    verdict = "PASS" if executor_acceptance["passed"] else "FAIL"
    if "skipped" in executor_acceptance:
        print(f"[bench] executor acceptance {executor_acceptance['workload']}: "
              f"speedup gate skipped ({executor_acceptance['skipped']}, "
              f"{executor_acceptance['cores']} core(s)); parity "
              f"{executor_acceptance['parity_ratio']:.2f}x "
              f"(allowed <= {executor_acceptance['max_allowed_ratio']}x) "
              f"-> {verdict}")
    else:
        print(f"[bench] executor acceptance {executor_acceptance['workload']}: "
              f"processes vs threads {executor_acceptance['speedup']:.2f}x "
              f"(required >= "
              f"{executor_acceptance['min_required_speedup']}x) -> {verdict}")
    failed = failed or not executor_acceptance["passed"]
    net_acceptance = net_summary["acceptance"]
    verdict = "PASS" if net_acceptance["passed"] else "FAIL"
    print(f"[bench] net acceptance {net_acceptance['workload']}: "
          f"{net_acceptance['factor']:.1f}x "
          f"(allowed <= {net_acceptance['max_allowed_factor']}x) -> {verdict}")
    failed = failed or not net_acceptance["passed"]
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
