"""Benchmark harness: the machinery behind ``make bench`` and BENCH_*.json.

Every PR leaves a perf trail: ``scripts/bench.py`` (wired to ``make bench``)
runs two suites and writes one machine-readable JSON file per suite at the
repository root:

* ``BENCH_kernels.json`` -- microbenchmarks of the Hamming kernels: the
  packed XOR+popcount kernel (:func:`repro.bitops.packed_hamming_matrix`)
  versus the legacy +-1 GEMM path
  (:func:`repro.core.hashing.hamming_distance_matrix_unpacked`) across a
  rows x hash-length grid, plus the packing cost itself.
* ``BENCH_e2e.json`` -- end-to-end workloads: approximate inference through
  the DeepCAM backend, bit-level CAM batch search, batch hashing, the
  serving/sharding suites, the retrieval partial-vs-full-gather curve, and
  (unless skipped) the pytest-benchmark timings of the paper-figure
  workloads under ``benchmarks/``.

Each file carries the environment (commit, timestamp, versions) so future
PRs can diff their numbers against this baseline.  Records report the
*median* wall-clock of several rounds -- medians are robust to the odd
scheduler hiccup that ruins means on shared CI machines.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.bitops import (
    HAVE_BITWISE_COUNT,
    KERNEL_BLOCK_ROWS,
    accumulator_dtype,
    pack_bits,
    packed_hamming_matrix,
    usable_cpus,
)
from repro.core.hashing import hamming_distance_matrix_unpacked

#: Schema version of the BENCH_*.json files; bump when the layout changes.
BENCH_SCHEMA_VERSION = 1

#: The acceptance workload the packed kernel is gated on: a 2048x2048
#: distance matrix at 128-bit signatures must be >= 5x faster than the
#: legacy GEMM path.
ACCEPTANCE_WORKLOAD: tuple[int, int] = (2048, 128)
ACCEPTANCE_MIN_SPEEDUP: float = 5.0

#: The serving acceptance gate: on a 1000-request uniform load, the
#: micro-batcher at ``max_batch=64`` must reach >= 5x the throughput of
#: batch-size-1 serving on the same engine.
SERVE_ACCEPTANCE_REQUESTS: int = 1000
SERVE_ACCEPTANCE_MAX_BATCH: int = 64
SERVE_ACCEPTANCE_MIN_SPEEDUP: float = 5.0

#: Engine geometry of the serving benchmark (shared with the acceptance
#: test so BENCH_e2e.json and the test measure the same workload).
SERVE_BENCH_ENGINE: dict[str, int] = {
    "classes": 32, "input_dim": 256, "hash_length": 512,
}

#: Worker counts of the process-engine kernel scaling curve
#: (``kernel/scaling/workers=N`` on the acceptance workload).
KERNEL_SCALING_WORKERS: tuple[int, ...] = (1, 2, 4, 8)

#: Shard counts of the scaling curve recorded by :func:`shard_benchmarks`.
SHARD_SCALING_COUNTS: tuple[int, ...] = (1, 2, 4, 8)

#: Direct-search workload of the executor scaling curve
#: (``shard/scaling/executor={inline,threads,processes}``): deliberately
#: word-heavy (8192-bit rows) so the popcount kernel dominates the
#: per-search fan-out overhead -- the regime the process engine exists
#: for.  On a tiny cluster the pipe/pickle overhead would swamp the
#: comparison and measure the plumbing instead of the engines.
EXECUTOR_BENCH_WORKLOAD: dict[str, int] = {
    "rows": 2048, "word_bits": 8192, "shards": 4, "batch": 64,
}
#: Cores below which the processes-vs-threads speedup gate is skipped
#: (recorded as ``skipped: single-core``) and replaced by the parity band.
EXECUTOR_MIN_CORES: int = 4
#: Acceptance on >= EXECUTOR_MIN_CORES cores: processes >= 1.5x threads.
EXECUTOR_ACCEPTANCE_MIN_SPEEDUP: float = 1.5
#: Acceptance below EXECUTOR_MIN_CORES cores: the three engines must stay
#: within this factor of each other (no engine may regress the search).
EXECUTOR_PARITY_MAX_RATIO: float = 1.3

#: Engine geometry of the shard scaling curve (256 prototype rows spread
#: across 1/2/4/8 shards, served over the same 1000-request uniform load).
SHARD_BENCH_ENGINE: dict[str, int] = {
    "classes": 256, "input_dim": 64, "hash_length": 512,
}

#: The sharding acceptance workload: 2048 prototype rows at 1024-bit
#: signatures -- far beyond one array's capacity (the paper evaluates
#: 64-512 rows per array).  The replica-routed cluster (16 resident shards
#: of 128 rows, 2 replicas, least-loaded routing) is compared against the
#: honest single-engine alternative: one 128-row array time-multiplexed
#: over the row set, paying a full segment rewrite per segment per batch.
SHARD_ACCEPTANCE_WORKLOAD: dict[str, int] = {
    "rows": 2048, "capacity": 128, "input_dim": 64, "hash_length": 1024,
    "max_batch": 8, "num_replicas": 2, "num_workers": 2,
}
SHARD_ACCEPTANCE_REQUESTS: int = 1000
SHARD_ACCEPTANCE_MIN_SPEEDUP: float = 1.5

#: The retrieval acceptance workload: a 16384-row cluster (4 shards) at
#: 256-bit signatures, batches of 64 queries asking for the 16 nearest
#: rows.  The top-k partial gather must reach >= 2x the throughput of the
#: full-gather-then-sort path (digitise every row, gather all of them,
#: argsort) on the same cluster -- results asserted bit-identical first.
RETRIEVAL_ACCEPTANCE_WORKLOAD: dict[str, int] = {
    "rows": 16384, "k": 16, "shards": 4, "word_bits": 256, "batch": 64,
}
RETRIEVAL_ACCEPTANCE_MIN_SPEEDUP: float = 2.0

#: k values of the partial-vs-full gather curve (the acceptance k included).
RETRIEVAL_CURVE_KS: tuple[int, ...] = (4, 16, 64)

#: The retrieval-shaped kernel cell: few queries against many rows, the
#: shape of a top-k search over a large index (the square grid below never
#: has it).  Timed with the narrow ``out=`` counts the fused top-k path
#: uses; recorded, not gated.
KERNEL_RETRIEVAL_CELL: dict[str, int] = {
    "queries": 16, "rows": 131072, "hash_length": 256,
}

#: (rows, hash_length) grid of the kernel microbench.
DEFAULT_KERNEL_GRID: tuple[tuple[int, int], ...] = (
    (256, 128),
    (256, 1024),
    (1024, 256),
    (2048, 128),
    (2048, 1024),
)
QUICK_KERNEL_GRID: tuple[tuple[int, int], ...] = (
    (256, 128),
    (512, 256),
    (2048, 128),
)

#: Benchmark files under ``benchmarks/`` that are kernel microbenchmarks,
#: not paper-figure reproductions; the paper sweep skips them.
NON_PAPER_BENCH_FILES: tuple[str, ...] = (
    "benchmarks/test_bench_kernel_popcount.py",
    "benchmarks/test_bench_cam_microbench.py",
)


@dataclass(frozen=True)
class BenchRecord:
    """Median wall-clock of one benchmark workload.

    Attributes
    ----------
    name:
        Unique benchmark id, e.g. ``"kernel/packed/rows=2048,k=128"``.
    group:
        Suite the record belongs to (``"kernel"``, ``"e2e"``, ``"paper"``).
    params:
        Workload parameters (rows, hash length, batch size, ...).
    median_s / mean_s / std_s / min_s:
        Wall-clock statistics over ``rounds`` repetitions, in seconds.
    rounds:
        Number of timed repetitions.
    """

    name: str
    group: str
    params: Mapping[str, Any]
    median_s: float
    mean_s: float
    std_s: float
    min_s: float
    rounds: int


def time_callable(fn: Callable[[], Any], rounds: int = 5,
                  warmup: int = 1) -> list[float]:
    """Wall-clock ``fn`` ``rounds`` times (after ``warmup`` unrecorded runs)."""
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    for _ in range(warmup):
        fn()
    times: list[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def record_from_times(name: str, group: str, params: Mapping[str, Any],
                      times: Sequence[float]) -> BenchRecord:
    """Fold raw wall-clock samples into a :class:`BenchRecord`."""
    samples = np.asarray(list(times), dtype=np.float64)
    if samples.size == 0:
        raise ValueError("at least one timing sample is required")
    return BenchRecord(
        name=name,
        group=group,
        params=dict(params),
        median_s=float(np.median(samples)),
        mean_s=float(samples.mean()),
        std_s=float(samples.std()),
        min_s=float(samples.min()),
        rounds=int(samples.size),
    )


def benchmark_callable(name: str, group: str, params: Mapping[str, Any],
                       fn: Callable[[], Any], rounds: int = 5,
                       warmup: int = 1) -> BenchRecord:
    """Time ``fn`` and fold the samples into a record in one call."""
    return record_from_times(name, group, params,
                             time_callable(fn, rounds=rounds, warmup=warmup))


def collect_environment(repo_root: str | Path | None = None) -> dict[str, Any]:
    """Commit, timestamp and library versions stamped into every BENCH file."""
    root = Path(repo_root) if repo_root is not None else Path.cwd()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "have_bitwise_count": HAVE_BITWISE_COUNT,
    }


def write_bench_report(path: str | Path, records: Sequence[BenchRecord],
                       environment: Mapping[str, Any] | None = None,
                       extra: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """Write a BENCH_*.json report; returns the written document."""
    document: dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "environment": dict(environment) if environment is not None
        else collect_environment(),
        "benchmarks": [asdict(record) for record in records],
    }
    if extra:
        document.update({key: value for key, value in extra.items()
                         if key not in document})
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def _floor_gate(workload: str, speedup: float, floor: float,
                **detail: Any) -> dict[str, Any]:
    """Acceptance verdict of a speedup floor: passes at ``speedup >= floor``."""
    return {"workload": workload, **detail, "speedup": speedup,
            "min_required_speedup": floor, "passed": speedup >= floor}


# -- kernel microbench ---------------------------------------------------------


def kernel_microbench(grid: Sequence[tuple[int, int]] = DEFAULT_KERNEL_GRID,
                      rounds: int = 5,
                      seed: int = 0,
                      thread_counts: Sequence[int] | None = None,
                      ) -> tuple[list[BenchRecord], dict[str, Any]]:
    """Packed vs unpacked Hamming kernel across a rows x hash-length grid.

    For every ``(rows, k)`` cell the same random signature sets are pushed
    through the legacy +-1 GEMM path and the packed XOR+popcount kernel
    (operands pre-packed -- packed words are the pipeline's native currency,
    and the packing cost is reported as its own record).  The two kernels
    are asserted bit-identical on every cell before timing.

    The default kernel spans the usable CPUs, so every "vs serial" figure
    is taken against an explicit ``num_threads=1`` record.
    ``thread_counts`` additionally times the kernel capped at each
    requested worker count (``packed_hamming_matrix(..., num_threads=n)``)
    on the cells that span more than one row block (a square cell of one
    block is also one tile, so it never splits); ``None`` picks one count
    from the machine (up to 4 workers).  Capped results are asserted
    identical to the serial kernel and their speedup over the
    ``kernel/packed_popcount_serial`` record is reported per cell --
    expect ~1x on single-core boxes.

    The :data:`KERNEL_RETRIEVAL_CELL` record
    (``kernel/packed_popcount_narrow/queries=16,rows=131072,k=256``) times
    the retrieval shape on every run, by default and with
    ``num_threads=1``; ``retrieval_cell`` reports both medians and the
    default-vs-serial ratio (the column-tile split).

    The execution-plane scaling curve rides along: the acceptance workload
    also runs through the process engine at each of
    :data:`KERNEL_SCALING_WORKERS` workers (``kernel/scaling/workers=N``,
    results asserted bit-identical to the serial kernel first), so every
    BENCH_kernels.json carries the true-parallel trajectory next to the
    GIL-bound one.

    Returns
    -------
    (records, summary):
        ``records`` holds one record per (kernel, cell); ``summary`` maps
        ``"rows=R,k=K"`` to the measured speedup, plus the acceptance
        verdict for the 2048 x 2048, k=128 workload, the per-cell
        ``threaded_speedups`` and the process-engine ``worker_scaling``.
    """
    if thread_counts is None:
        thread_counts = (max(2, min(4, usable_cpus())),)
    rng = np.random.default_rng(seed)
    records: list[BenchRecord] = []
    speedups: dict[str, float] = {}
    threaded_speedups: dict[str, dict[str, float]] = {}
    acceptance: dict[str, Any] | None = None

    for rows, k in grid:
        bits_a = rng.integers(0, 2, size=(rows, k), dtype=np.uint8)
        bits_b = rng.integers(0, 2, size=(rows, k), dtype=np.uint8)
        packed_a = pack_bits(bits_a)
        packed_b = pack_bits(bits_b)

        reference = hamming_distance_matrix_unpacked(bits_a, bits_b)
        packed_result = packed_hamming_matrix(packed_a, packed_b)
        if not np.array_equal(reference, packed_result):
            raise AssertionError(
                f"packed kernel diverged from GEMM reference at rows={rows}, k={k}"
            )

        params = {"rows_a": rows, "rows_b": rows, "hash_length": k}
        cell = f"rows={rows},k={k}"
        unpacked_record = benchmark_callable(
            f"kernel/unpacked_gemm/{cell}", "kernel", params,
            lambda a=bits_a, b=bits_b: hamming_distance_matrix_unpacked(a, b),
            rounds=rounds)
        packed_record = benchmark_callable(
            f"kernel/packed_popcount/{cell}", "kernel", params,
            lambda a=packed_a, b=packed_b: packed_hamming_matrix(a, b),
            rounds=rounds)
        pack_record = benchmark_callable(
            f"kernel/pack_bits/{cell}", "kernel", params,
            lambda a=bits_a: pack_bits(a), rounds=rounds)
        records.extend((unpacked_record, packed_record, pack_record))

        # Capped records only where the split actually engages (a single
        # row block of a square cell is one tile); timing the inline path
        # as "threaded" would misreport ~1.0x as a null result.
        cell_thread_counts = thread_counts if rows > KERNEL_BLOCK_ROWS else ()
        if cell_thread_counts:
            serial_record = benchmark_callable(
                f"kernel/packed_popcount_serial/{cell}", "kernel",
                {**params, "num_threads": 1},
                lambda a=packed_a, b=packed_b:
                    packed_hamming_matrix(a, b, num_threads=1),
                rounds=rounds)
            records.append(serial_record)
        for workers in cell_thread_counts:
            threaded_result = packed_hamming_matrix(packed_a, packed_b,
                                                    num_threads=workers)
            if not np.array_equal(packed_result, threaded_result):
                raise AssertionError(
                    f"threaded kernel ({workers} threads) diverged from "
                    f"serial at rows={rows}, k={k}"
                )
            threaded_record = benchmark_callable(
                f"kernel/packed_popcount_threads={workers}/{cell}", "kernel",
                {**params, "num_threads": workers},
                lambda a=packed_a, b=packed_b, w=workers:
                    packed_hamming_matrix(a, b, num_threads=w),
                rounds=rounds)
            records.append(threaded_record)
            threaded_speedups.setdefault(cell, {})[f"threads={workers}"] = (
                serial_record.median_s / max(threaded_record.median_s, 1e-12))

        speedup = unpacked_record.median_s / max(packed_record.median_s, 1e-12)
        speedups[cell] = speedup
        if (rows, k) == ACCEPTANCE_WORKLOAD:
            acceptance = _floor_gate(
                cell, speedup, ACCEPTANCE_MIN_SPEEDUP,
                unpacked_median_s=unpacked_record.median_s,
                packed_median_s=packed_record.median_s)

    # -- retrieval-shaped cell ---------------------------------------------------
    queries, rows, k = (KERNEL_RETRIEVAL_CELL[key]
                        for key in ("queries", "rows", "hash_length"))
    bits_q = rng.integers(0, 2, size=(queries, k), dtype=np.uint8)
    bits_r = rng.integers(0, 2, size=(rows, k), dtype=np.uint8)
    packed_q, packed_r = pack_bits(bits_q), pack_bits(bits_r)
    narrow = np.empty((queries, rows), dtype=accumulator_dtype(packed_q.shape[1]))
    packed_hamming_matrix(packed_q, packed_r, out=narrow)
    # Spot-check the first rows only: the GEMM reference over all of them
    # would hold a 131072-row +-1 matrix.
    head = slice(0, 1024)
    if not np.array_equal(
            narrow[:, head], hamming_distance_matrix_unpacked(bits_q, bits_r[head])):
        raise AssertionError("narrow packed kernel diverged from GEMM reference "
                             "on the retrieval cell")
    retrieval_cell = f"queries={queries},rows={rows},k={k}"
    retrieval_params = {"rows_a": queries, "rows_b": rows, "hash_length": k,
                        "out_dtype": str(narrow.dtype)}
    retrieval_record = benchmark_callable(
        f"kernel/packed_popcount_narrow/{retrieval_cell}", "kernel",
        retrieval_params,
        lambda: packed_hamming_matrix(packed_q, packed_r, out=narrow),
        rounds=rounds)
    retrieval_serial = benchmark_callable(
        f"kernel/packed_popcount_narrow_serial/{retrieval_cell}", "kernel",
        {**retrieval_params, "num_threads": 1},
        lambda: packed_hamming_matrix(packed_q, packed_r, num_threads=1,
                                      out=narrow),
        rounds=rounds)
    records.extend((retrieval_record, retrieval_serial))

    # -- execution-plane worker scaling ----------------------------------------
    # The process engine at 1/2/4/8 workers on the acceptance workload
    # (kernel/scaling/workers=N), against the serial packed kernel: the
    # store is published once and split into split_rows spans, the call
    # a fused search on the process engine makes.  Expect ~1x on
    # single-core boxes and near-linear wins where cores exist.
    from repro.exec import resolve_executor, split_rows
    from repro.shard.pipeline import FUSED_SPAN_MIN_ROWS

    rows, k = ACCEPTANCE_WORKLOAD
    scale_a = pack_bits(rng.integers(0, 2, size=(rows, k), dtype=np.uint8))
    scale_b = pack_bits(rng.integers(0, 2, size=(rows, k), dtype=np.uint8))
    serial_record = benchmark_callable(
        "kernel/scaling/serial", "kernel",
        {"rows_a": rows, "rows_b": rows, "hash_length": k},
        lambda: packed_hamming_matrix(scale_a, scale_b, num_threads=1),
        rounds=rounds)
    records.append(serial_record)
    serial_result = packed_hamming_matrix(scale_a, scale_b, num_threads=1)
    worker_scaling: dict[str, float] = {}
    for workers in KERNEL_SCALING_WORKERS:
        engine = resolve_executor("processes", workers=workers,
                                  fallback=False)
        handle = engine.publish(scale_b)
        spans = split_rows(rows, workers,
                           min_rows=min(rows, FUSED_SPAN_MIN_ROWS))

        def spanned(e=engine, h=handle, s=spans):
            return np.concatenate(e.hamming_fanout(scale_a, h, s), axis=1)

        try:
            if not np.array_equal(spanned(), serial_result):
                raise AssertionError(
                    f"process engine ({workers} workers) diverged from the "
                    f"serial kernel at rows={rows}, k={k}")
            record = benchmark_callable(
                f"kernel/scaling/workers={workers}", "kernel",
                {"rows_a": rows, "rows_b": rows, "hash_length": k,
                 "executor": "processes", "workers": workers},
                spanned, rounds=rounds)
        finally:
            handle.retire()
            engine.close()
        records.append(record)
        worker_scaling[f"workers={workers}"] = (
            serial_record.median_s / max(record.median_s, 1e-12))

    summary: dict[str, Any] = {"speedups": speedups,
                               "threaded_speedups": threaded_speedups,
                               "thread_counts": list(thread_counts),
                               "worker_scaling": worker_scaling,
                               "retrieval_cell": {
                                   "workload": retrieval_cell,
                                   "median_s": retrieval_record.median_s,
                                   "serial_median_s": retrieval_serial.median_s,
                                   "speedup_vs_serial": (
                                       retrieval_serial.median_s
                                       / max(retrieval_record.median_s, 1e-12)),
                                   "gated": False},
                               "cores": usable_cpus()}
    if acceptance is not None:
        summary["acceptance"] = acceptance
    return records, summary


# -- end-to-end workloads ------------------------------------------------------


def _deepcam_inference_workload(quick: bool) -> tuple[Callable[[], Any], dict[str, Any]]:
    from repro.api import deepcam
    from repro.nn.models.lenet import build_lenet5

    batch = 2 if quick else 8
    rng = np.random.default_rng(0)
    model = build_lenet5(seed=0)
    images = rng.standard_normal((batch, 1, 32, 32))
    backend = deepcam(rows=64, hash_length=256)
    params = {"model": "lenet5", "batch": batch, "hash_length": 256, "rows": 64}
    return (lambda: backend.infer(model, images)), params


def _cam_search_workload(quick: bool) -> tuple[Callable[[], Any], dict[str, Any]]:
    from repro.cam.dynamic import DynamicCam, DynamicCamConfig

    queries_n = 64 if quick else 256
    rng = np.random.default_rng(0)
    cam = DynamicCam(DynamicCamConfig(rows=64))
    cam.configure_word_bits(1024)
    cam.write_rows(rng.integers(0, 2, size=(64, 1024), dtype=np.uint8))
    queries = rng.integers(0, 2, size=(queries_n, 1024), dtype=np.uint8)
    params = {"rows": 64, "word_bits": 1024, "queries": queries_n}
    return (lambda: cam.search_batch(queries)), params


def _hashing_workload(quick: bool) -> tuple[Callable[[], Any], dict[str, Any]]:
    from repro.core.hashing import RandomProjectionHasher

    batch = 256 if quick else 1024
    rng = np.random.default_rng(0)
    hasher = RandomProjectionHasher(input_dim=576, hash_length=512, seed=0)
    matrix = rng.standard_normal((batch, 576))
    params = {"batch": batch, "input_dim": 576, "hash_length": 512}
    return (lambda: hasher.hash_batch_packed(matrix)), params


def e2e_benchmarks(quick: bool = False, rounds: int | None = None) -> list[BenchRecord]:
    """End-to-end workloads of the packed pipeline (inference, CAM, hashing)."""
    effective_rounds = rounds if rounds is not None else (3 if quick else 5)
    workloads = {
        "e2e/deepcam_infer_lenet5": _deepcam_inference_workload,
        "e2e/dynamic_cam_search_batch": _cam_search_workload,
        "e2e/hash_batch_packed": _hashing_workload,
    }
    records = []
    for name, factory in workloads.items():
        fn, params = factory(quick)
        records.append(benchmark_callable(name, "e2e", params, fn,
                                          rounds=effective_rounds))
    return records


# -- serving workloads ---------------------------------------------------------


#: What :func:`serve_window` returns: ``(seconds, responses, stats)``.
ServeWindow = tuple[float, list[Any], dict[str, Any]]


def serve_window(engine: Any, queries: np.ndarray, config: Any,
                 tracer: Any = None) -> ServeWindow:
    """Serve ``queries`` through a fresh server over ``engine``; time the window.

    The one serving loop of ``make bench`` and ``make trace-smoke``: the
    window runs from the first submit to the last resolved result, so
    server construction and shutdown stay out of "serving throughput".
    Whatever happens inside, the server is stopped (draining), its stats
    are read, and then ``tracer`` (when given) is shut down.  The caller
    owns ``engine`` and closes it.  Returns ``(seconds, responses, stats)``.
    """
    from repro.serve import MicroBatchServer

    server = MicroBatchServer(engine, config=config, tracer=tracer).start()
    try:
        start = time.perf_counter()
        futures = [server.submit(query) for query in queries]
        for future in futures:
            future.result(timeout=300.0)
        seconds = time.perf_counter() - start
    finally:
        server.stop(drain=True)
        stats = server.stats()
        if tracer is not None:
            tracer.shutdown()
    return seconds, [future.result() for future in futures], stats


def _serve_run_seconds(max_batch: int, queries: np.ndarray,
                       cache_capacity: int = 0) -> ServeWindow:
    """One serving window on a fresh :data:`SERVE_BENCH_ENGINE` demo engine."""
    from repro.serve import ServeConfig, build_demo_engine

    return serve_window(build_demo_engine(**SERVE_BENCH_ENGINE), queries,
                        ServeConfig(max_batch=max_batch, max_wait_ms=5.0,
                                    queue_depth=len(queries),
                                    cache_capacity=cache_capacity))


def serve_benchmarks(total_requests: int = SERVE_ACCEPTANCE_REQUESTS,
                     max_batch: int = SERVE_ACCEPTANCE_MAX_BATCH,
                     quick: bool = False, rounds: int | None = None,
                     seed: int = 0) -> tuple[list[BenchRecord], dict[str, Any]]:
    """Serving throughput suite: micro-batched vs batch-1, plus Zipf caching.

    Three workloads on the shared demo CAM-pipeline engine
    (:data:`SERVE_BENCH_ENGINE`), all over the same 1000-request uniform
    load (``quick`` trims rounds, not the load -- short loads under-fill
    the batcher and would misstate the speedup):

    * ``serve/microbatch`` -- the uniform load served at ``max_batch``;
    * ``serve/serial`` -- the same load at ``max_batch=1`` (the baseline
      the acceptance gate divides by);
    * ``serve/zipf_cached`` -- Zipf-skewed repeats with the
      packed-signature cache on, exercising the hit path.

    Records time the serving window only (:func:`serve_window`).  Returns
    ``(records, summary)``; the summary carries the throughputs, the
    measured speedup and the pass/fail acceptance verdict
    (>= :data:`SERVE_ACCEPTANCE_MIN_SPEEDUP`), which ``scripts/bench.py``
    folds into ``BENCH_e2e.json``.
    """
    requests = total_requests
    effective_rounds = rounds if rounds is not None else (2 if quick else 3)
    rng = np.random.default_rng(seed)
    input_dim = SERVE_BENCH_ENGINE["input_dim"]
    uniform = rng.standard_normal((requests, input_dim))
    pool = rng.standard_normal((max(32, requests // 8), input_dim))
    zipf_queries = pool[rng.zipf(1.3, size=requests) % pool.shape[0]]

    params = {"requests": requests, **SERVE_BENCH_ENGINE}
    records: list[BenchRecord] = []
    # (name, extra params, max_batch, load, cache capacity, untimed warmups)
    for name, extra, batch, load, cache, warmup in (
            (f"serve/microbatch/max_batch={max_batch}",
             {"max_batch": max_batch}, max_batch, uniform, 0, 1),
            ("serve/serial/max_batch=1", {"max_batch": 1}, 1, uniform, 0, 0),
            (f"serve/zipf_cached/max_batch={max_batch}",
             {"max_batch": max_batch, "pool": int(pool.shape[0]),
              "cache": True},
             max_batch, zipf_queries, pool.shape[0] * 2, 1)):
        seconds, _, stats = zip(*[_serve_run_seconds(batch, load, cache)
                                  for _ in range(warmup + effective_rounds)])
        records.append(record_from_times(name, "serve", {**params, **extra},
                                         seconds[warmup:]))
    batched_record, serial_record, zipf_record = records

    throughput_batched = requests / batched_record.median_s
    throughput_serial = requests / serial_record.median_s
    speedup = throughput_batched / max(throughput_serial, 1e-12)
    summary: dict[str, Any] = {
        "requests": requests,
        "engine": dict(SERVE_BENCH_ENGINE),
        "throughput_rps": {
            f"microbatch_{max_batch}": throughput_batched,
            "serial_1": throughput_serial,
            f"zipf_cached_{max_batch}": requests / zipf_record.median_s,
        },
        "zipf_cache_hit_rate": stats[-1]["cache"]["hit_rate"],  # zipf ran last
        "acceptance": _floor_gate(f"uniform_{requests}_requests", speedup,
                                  SERVE_ACCEPTANCE_MIN_SPEEDUP,
                                  max_batch=max_batch),
    }
    return records, summary


# -- sharded serving workloads -------------------------------------------------


def _engine_serve_seconds(engine: Any, queries: np.ndarray, max_batch: int,
                          num_workers: int = 1) -> ServeWindow:
    """One serving window of ``queries`` over the caller's ``engine``, cache off."""
    from repro.serve import ServeConfig

    return serve_window(engine, queries, ServeConfig(
        max_batch=max_batch, max_wait_ms=5.0, queue_depth=len(queries),
        num_workers=num_workers, cache_capacity=0))


def shard_benchmarks(total_requests: int = SHARD_ACCEPTANCE_REQUESTS,
                     quick: bool = False, rounds: int | None = None,
                     seed: int = 0) -> tuple[list[BenchRecord], dict[str, Any]]:
    """Shard-count scaling curve plus the replica-routed acceptance pair.

    Two suites over 1000-request uniform loads (``quick`` trims rounds,
    never the load):

    * ``shard/scaling/shards=N`` -- the :data:`SHARD_BENCH_ENGINE` demo
      cluster served at 1/2/4/8 shards: the curve that tracks what the
      cluster bookkeeping costs while the rows would still fit one array
      (a few percent per shard on this workload);
    * ``shard/replica_routed`` vs ``shard/single_engine_multiplexed`` --
      the :data:`SHARD_ACCEPTANCE_WORKLOAD` row set, which does *not* fit
      one array: the resident, replica-routed cluster against a single
      capacity-limited array that must page row segments in and out every
      batch.  The acceptance gate requires the cluster to be
      >= :data:`SHARD_ACCEPTANCE_MIN_SPEEDUP` x faster; both engines'
      responses are asserted bit-identical first, so the comparison
      isolates throughput.

    Returns ``(records, summary)``; ``scripts/bench.py`` folds the summary
    into ``BENCH_e2e.json`` under ``"shard"``.
    """
    from repro.shard import (
        ShardedEngine,
        TimeMultiplexedCamEngine,
        build_demo_sharded_engine,
    )

    effective_rounds = rounds if rounds is not None else (2 if quick else 3)
    rng = np.random.default_rng(seed)
    records: list[BenchRecord] = []

    # -- scaling curve --------------------------------------------------------
    scaling_queries = rng.standard_normal(
        (total_requests, SHARD_BENCH_ENGINE["input_dim"]))
    scaling_rps: dict[str, float] = {}
    for num_shards in SHARD_SCALING_COUNTS:
        engine = build_demo_sharded_engine(**SHARD_BENCH_ENGINE,
                                           num_shards=num_shards)
        seconds = [_engine_serve_seconds(engine, scaling_queries, 32)[0]
                   for _ in range(1 + effective_rounds)]
        engine.close()
        record = record_from_times(
            f"shard/scaling/shards={num_shards}", "serve",
            {**SHARD_BENCH_ENGINE, "requests": total_requests,
             "num_shards": num_shards, "max_batch": 32}, seconds[1:])
        records.append(record)
        scaling_rps[f"shards={num_shards}"] = total_requests / record.median_s

    # -- replica-routed vs time-multiplexed single engine ---------------------
    workload = SHARD_ACCEPTANCE_WORKLOAD
    prototypes = rng.standard_normal((workload["rows"], workload["input_dim"]))
    queries = rng.standard_normal((total_requests, workload["input_dim"]))
    num_shards = workload["rows"] // workload["capacity"]
    sharded = ShardedEngine(
        prototypes, num_shards=num_shards,
        num_replicas=workload["num_replicas"], routing="least_loaded",
        hash_length=workload["hash_length"], seed=seed + 1)
    multiplexed = TimeMultiplexedCamEngine(
        prototypes, capacity=workload["capacity"],
        hash_length=workload["hash_length"], seed=seed + 1)

    # Same answers first, then throughput: the gate compares work, not math.
    probe = queries[:64]
    reference = multiplexed.execute(multiplexed.prepare(probe))
    if not np.array_equal(sharded.execute(sharded.prepare(probe)), reference):
        raise AssertionError(
            "sharded responses diverged from the single-engine baseline")

    params = {**workload, "requests": total_requests, "num_shards": num_shards}
    routed_s = [_engine_serve_seconds(sharded, queries, workload["max_batch"],
                                      num_workers=workload["num_workers"])[0]
                for _ in range(1 + effective_rounds)]
    router = sharded.stats()["shards"]["router"]
    sharded.close()
    multiplexed_s = [
        _engine_serve_seconds(multiplexed, queries, workload["max_batch"])[0]
        for _ in range(effective_rounds)]
    routed_record = record_from_times(
        "shard/replica_routed", "serve", {**params, "routing": "least_loaded"},
        routed_s[1:])
    multiplexed_record = record_from_times(
        "shard/single_engine_multiplexed", "serve", params, multiplexed_s)
    records.extend((routed_record, multiplexed_record))

    throughput_routed = total_requests / routed_record.median_s
    throughput_single = total_requests / multiplexed_record.median_s
    speedup = throughput_routed / max(throughput_single, 1e-12)
    summary: dict[str, Any] = {
        "requests": total_requests,
        "scaling_engine": dict(SHARD_BENCH_ENGINE),
        "scaling_throughput_rps": scaling_rps,
        "acceptance_workload": dict(workload),
        "throughput_rps": {
            "replica_routed": throughput_routed,
            "single_engine_multiplexed": throughput_single,
        },
        "segment_rewrites_per_batch": (
            multiplexed.stats()["multiplexing"]["segments"]),
        "router": router,
        "acceptance": _floor_gate(
            f"uniform_{total_requests}_requests_{workload['rows']}_rows",
            speedup, SHARD_ACCEPTANCE_MIN_SPEEDUP),
    }
    return records, summary


# -- execution-plane workloads ---------------------------------------------------


def executor_benchmarks(quick: bool = False, rounds: int | None = None,
                        seed: int = 0) -> tuple[list[BenchRecord], dict[str, Any]]:
    """Executor scaling curve: the same cluster search on all three engines.

    The :data:`EXECUTOR_BENCH_WORKLOAD` cluster (2048 rows of 8192-bit
    words across 4 shards) answers the same 64-query packed batch under
    ``executor=inline``, ``threads`` and ``processes``
    (``shard/scaling/executor=NAME``), with every engine's counts asserted
    bit-identical to the first before any timing -- the executor is a pure
    substitution, so the curve isolates throughput.

    The acceptance gate adapts to the machine:

    * on >= :data:`EXECUTOR_MIN_CORES` cores, the process engine must be
      >= :data:`EXECUTOR_ACCEPTANCE_MIN_SPEEDUP` x faster than threads
      (true parallelism must actually buy something);
    * below that the speedup is unmeasurable, so the verdict records
      ``"skipped": "single-core"`` and instead requires the three engines
      to stay within :data:`EXECUTOR_PARITY_MAX_RATIO` x of each other --
      the plane must never *cost* a serial box its throughput.

    Returns ``(records, summary)``; ``scripts/bench.py`` folds the summary
    into ``BENCH_e2e.json`` under ``"executor"``.
    """
    from repro.exec import EXECUTOR_NAMES
    from repro.shard import ShardedCamPipeline

    workload = EXECUTOR_BENCH_WORKLOAD
    effective_rounds = rounds if rounds is not None else (2 if quick else 3)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(workload["rows"], workload["word_bits"]),
                        dtype=np.uint8)
    queries = pack_bits(rng.integers(
        0, 2, size=(workload["batch"], workload["word_bits"]),
        dtype=np.uint8))

    records: list[BenchRecord] = []
    medians: dict[str, float] = {}
    throughput_qps: dict[str, float] = {}
    reference: np.ndarray | None = None
    for name in EXECUTOR_NAMES:
        pipeline = ShardedCamPipeline(
            total_rows=workload["rows"], word_bits=workload["word_bits"],
            num_shards=workload["shards"], executor=name)
        try:
            pipeline.write_rows(bits)
            counts, _, _ = pipeline.search_batch_packed(queries)
            if reference is None:
                reference = counts
            elif not np.array_equal(counts, reference):
                raise AssertionError(
                    f"executor={name} diverged from {EXECUTOR_NAMES[0]} on "
                    f"the scaling workload")
            record = benchmark_callable(
                f"shard/scaling/executor={name}", "shard",
                {**workload, "executor": name},
                lambda p=pipeline: p.search_batch_packed(queries),
                rounds=effective_rounds)
        finally:
            pipeline.close()
        records.append(record)
        medians[name] = record.median_s
        throughput_qps[name] = workload["batch"] / record.median_s

    cell = (f"rows={workload['rows']},word_bits={workload['word_bits']},"
            f"shards={workload['shards']}")
    cores = os.cpu_count() or 1
    if cores >= EXECUTOR_MIN_CORES:
        acceptance = _floor_gate(
            cell, medians["threads"] / max(medians["processes"], 1e-12),
            EXECUTOR_ACCEPTANCE_MIN_SPEEDUP, cores=cores)
    else:
        parity = max(medians.values()) / max(min(medians.values()), 1e-12)
        acceptance = {
            "workload": cell,
            "cores": cores,
            "skipped": "single-core",
            "parity_ratio": parity,
            "max_allowed_ratio": EXECUTOR_PARITY_MAX_RATIO,
            "passed": parity <= EXECUTOR_PARITY_MAX_RATIO,
        }
    summary: dict[str, Any] = {
        "workload": dict(workload),
        "medians_s": medians,
        "throughput_qps": throughput_qps,
        "acceptance": acceptance,
    }
    return records, summary


# -- retrieval workloads -------------------------------------------------------


def build_retrieval_workload(rows: int, word_bits: int, shards: int,
                             batch: int, seed: int = 0) -> tuple[Any, np.ndarray]:
    """A populated sharded cluster plus one packed query batch.

    Shared by :func:`retrieval_benchmarks` and the acceptance test so the
    recorded numbers and the asserted gate measure the same workload.
    """
    from repro.shard import ShardedCamPipeline

    rng = np.random.default_rng(seed)
    pipeline = ShardedCamPipeline(total_rows=rows, word_bits=word_bits,
                                  num_shards=shards)
    pipeline.write_rows(rng.integers(0, 2, size=(rows, word_bits),
                                     dtype=np.uint8))
    queries = pack_bits(rng.integers(0, 2, size=(batch, word_bits),
                                     dtype=np.uint8))
    return pipeline, queries


def retrieval_benchmarks(quick: bool = False, rounds: int | None = None,
                         seed: int = 0) -> tuple[list[BenchRecord], dict[str, Any]]:
    """Partial-gather vs full-gather-then-sort curve on the retrieval cluster.

    For every ``k`` in :data:`RETRIEVAL_CURVE_KS` (``quick`` trims the
    curve to the acceptance ``k``, never the workload), the
    :data:`RETRIEVAL_ACCEPTANCE_WORKLOAD` cluster answers the same packed
    query batch twice:

    * ``retrieval/partial_gather`` -- the native top-k path
      (``ShardedCamPipeline.topk_packed``): per-shard selection on raw
      mismatch counts, ``k x shards`` gathered values per query, only the
      survivors digitised;
    * ``retrieval/full_gather_sort`` -- the sort-after-the-fact baseline
      (:func:`repro.retrieval.topk_via_full_search`): digitise and gather
      every row, then argsort.

    Both paths are asserted bit-identical (indices and distances) before
    any timing.  Returns ``(records, summary)``; the summary carries the
    per-k throughputs and speedups, the gather-traffic reduction and the
    acceptance verdict (>= :data:`RETRIEVAL_ACCEPTANCE_MIN_SPEEDUP` x at
    the acceptance ``k``), which ``scripts/bench.py`` folds into
    ``BENCH_e2e.json`` under ``"retrieval"``.
    """
    from repro.retrieval import topk_via_full_search

    workload = RETRIEVAL_ACCEPTANCE_WORKLOAD
    effective_rounds = rounds if rounds is not None else (3 if quick else 5)
    # The acceptance k is always measured, whatever the curve is edited to
    # -- the summary's "acceptance" entry must exist unconditionally.
    curve = ((workload["k"],) if quick
             else tuple(dict.fromkeys((*RETRIEVAL_CURVE_KS, workload["k"]))))
    pipeline, queries = build_retrieval_workload(
        workload["rows"], workload["word_bits"], workload["shards"],
        workload["batch"], seed=seed)
    batch = int(queries.shape[0])

    records: list[BenchRecord] = []
    throughput_qps: dict[str, float] = {}
    speedups: dict[str, float] = {}
    gathered_values: dict[str, dict[str, int]] = {}
    acceptance: dict[str, Any] | None = None
    for k in curve:
        partial = pipeline.topk_packed(queries, k)
        full_indices, full_distances = topk_via_full_search(pipeline, queries,
                                                            k)
        if not (np.array_equal(partial.indices, full_indices)
                and np.array_equal(partial.distances, full_distances)):
            raise AssertionError(
                f"partial gather diverged from full-gather-sort at k={k}")

        cell = (f"rows={workload['rows']},k={k},shards={workload['shards']}")
        params = {**workload, "k": k}
        partial_record = benchmark_callable(
            f"retrieval/partial_gather/{cell}", "retrieval", params,
            lambda k=k: pipeline.topk_packed(queries, k),
            rounds=effective_rounds)
        full_record = benchmark_callable(
            f"retrieval/full_gather_sort/{cell}", "retrieval", params,
            lambda k=k: topk_via_full_search(pipeline, queries, k),
            rounds=effective_rounds)
        records.extend((partial_record, full_record))

        speedup = full_record.median_s / max(partial_record.median_s, 1e-12)
        speedups[f"k={k}"] = speedup
        throughput_qps[f"partial_gather_k={k}"] = batch / partial_record.median_s
        throughput_qps[f"full_gather_sort_k={k}"] = batch / full_record.median_s
        gathered_values[f"k={k}"] = {
            "partial": int(partial.gathered_values),
            "full": batch * workload["rows"],
        }
        if k == workload["k"]:
            acceptance = _floor_gate(
                cell, speedup, RETRIEVAL_ACCEPTANCE_MIN_SPEEDUP,
                partial_median_s=partial_record.median_s,
                full_median_s=full_record.median_s)

    summary: dict[str, Any] = {
        "workload": dict(workload),
        "throughput_qps": throughput_qps,
        "speedups": speedups,
        "gathered_values": gathered_values,
    }
    if acceptance is not None:
        summary["acceptance"] = acceptance
    return records, summary


# -- network transparency ------------------------------------------------------

#: Engine geometry of the remote-vs-in-process overhead record.
NET_BENCH_ENGINE: dict[str, int] = {
    "classes": 64, "input_dim": 128, "hash_length": 256,
}
#: Ceiling on the loopback wire tax (remote median / in-process median,
#: worst operation).  Healthy loopback measures ~1.2-1.5x (quick) and
#: ~1.8-2.5x (full) on a 2-core VM; a response stalled on the client's
#: delayed ACK (Nagle on the server socket) measures ~17-20x (quick) and
#: ~40-49x (full) on the same VM.
NET_MAX_REMOTE_VS_INPROC: float = 8.0


def net_benchmarks(quick: bool = False, rounds: int | None = None,
                   seed: int = 0) -> tuple[list[BenchRecord], dict[str, Any]]:
    """Remote :class:`~repro.net.client.NetClient` vs in-process serving.

    The same classify and top-k batches run twice against identically
    seeded demo engines -- once through an in-process
    :class:`~repro.serve.client.ServeClient`, once over loopback HTTP
    through a serve-plane :class:`~repro.net.server.NetServer` -- with the
    responses asserted bit-identical before any timing.  The summary's
    ``remote_vs_inproc`` entries record the wire's overhead factor
    (remote median / in-process median) per operation, and its
    ``acceptance`` verdict requires the worst of them to stay
    <= :data:`NET_MAX_REMOTE_VS_INPROC` -- a ceiling far above loopback
    noise that still catches a per-response stall on the wire.
    ``scripts/bench.py`` folds the summary into ``BENCH_e2e.json`` under
    ``"net"`` and fails ``make bench`` when the ceiling is broken.
    """
    from repro.net.client import NetClient
    from repro.net.server import NetServer
    from repro.serve import ServeClient, build_demo_engine, demo_queries

    effective_rounds = rounds if rounds is not None else (3 if quick else 5)
    batch = 16 if quick else 64
    k = 8
    geometry = NET_BENCH_ENGINE
    params = {**geometry, "batch": batch, "k": k}

    records: list[BenchRecord] = []
    overhead: dict[str, float] = {}
    throughput_rps: dict[str, float] = {}
    with ServeClient(build_demo_engine(seed=seed, **geometry)) as inproc:
        queries = demo_queries(inproc.server.engine, batch, seed=seed)
        with NetServer(engine=build_demo_engine(seed=seed, **geometry)) as server:
            with NetClient(server.base_url) as remote:
                if not np.array_equal(remote.infer_many(queries),
                                      inproc.infer_many(queries)):
                    raise AssertionError(
                        "remote classify diverged from in-process serving")
                remote_topk = remote.topk_many(queries, k)
                local_topk = inproc.topk_many(queries, k)
                if not (np.array_equal(remote_topk[0], local_topk[0])
                        and np.array_equal(remote_topk[1], local_topk[1])):
                    raise AssertionError(
                        "remote top-k diverged from in-process serving")

                cell = f"batch={batch}"
                pairs = {
                    "classify": (lambda: inproc.infer_many(queries),
                                 lambda: remote.infer_many(queries)),
                    f"topk_k={k}": (lambda: inproc.topk_many(queries, k),
                                    lambda: remote.topk_many(queries, k)),
                }
                for op, (local_fn, remote_fn) in pairs.items():
                    local_record = benchmark_callable(
                        f"net/inproc/{op}/{cell}", "net", params, local_fn,
                        rounds=effective_rounds)
                    remote_record = benchmark_callable(
                        f"net/remote/{op}/{cell}", "net", params, remote_fn,
                        rounds=effective_rounds)
                    records.extend((local_record, remote_record))
                    overhead[op] = (remote_record.median_s
                                    / max(local_record.median_s, 1e-12))
                    throughput_rps[f"inproc_{op}"] = (
                        batch / local_record.median_s)
                    throughput_rps[f"remote_{op}"] = (
                        batch / remote_record.median_s)

    worst_op = max(overhead, key=overhead.__getitem__)
    summary: dict[str, Any] = {
        "workload": dict(params),
        "remote_vs_inproc": overhead,
        "throughput_rps": throughput_rps,
        "verified_bit_identical": True,
        "acceptance": {
            "workload": f"net/remote_vs_inproc/{worst_op}/batch={batch}",
            "factor": overhead[worst_op],
            "max_allowed_factor": NET_MAX_REMOTE_VS_INPROC,
            "passed": overhead[worst_op] <= NET_MAX_REMOTE_VS_INPROC,
        },
    }
    return records, summary


# -- observability overhead ----------------------------------------------------

#: Engine geometry of the traced-vs-untraced serving pair.  Deliberately
#: compute-heavy (large CAM, sharded, no cache hits): span bookkeeping is a
#: fixed few microseconds per request, so it is measured against requests
#: that do real work -- the regime tracing must be cheap in (same reasoning
#: as ``scripts/trace_smoke.py``).
OBS_BENCH_ENGINE: dict[str, int] = {
    "classes": 2048, "input_dim": 256, "hash_length": 1024, "num_shards": 2,
}


def obs_benchmarks(total_requests: int = 400, max_batch: int = 64,
                   quick: bool = False, rounds: int | None = None,
                   seed: int = 0) -> tuple[list[BenchRecord], dict[str, Any]]:
    """Tracing overhead: the same serving load untraced vs fully traced.

    The :data:`OBS_BENCH_ENGINE` sharded demo cluster serves an identical
    uniform load twice per round -- once with ``tracer=None`` and once with
    a ``sample_rate=1.0`` tracer exporting every span in memory -- and the
    summary's ``overhead_pct`` compares the medians (``quick`` trims
    rounds, never the load).  Runs are interleaved per round so machine
    drift hits both sides equally.  Report-only: ``scripts/bench.py``
    folds the summary into ``BENCH_e2e.json`` under ``"obs"`` with no
    acceptance gate attached -- the <5% gate lives in ``make trace-smoke``;
    this entry tracks the trajectory of the number across PRs.
    """
    from repro.obs import InMemoryExporter, Tracer
    from repro.serve import ServeConfig
    from repro.shard import build_demo_sharded_engine

    effective_rounds = rounds if rounds is not None else (2 if quick else 3)
    rng = np.random.default_rng(seed)
    queries = rng.standard_normal((total_requests,
                                   OBS_BENCH_ENGINE["input_dim"]))
    params = {"requests": total_requests, "max_batch": max_batch,
              **OBS_BENCH_ENGINE}
    config = ServeConfig(max_batch=max_batch, max_wait_ms=2.0,
                         queue_depth=total_requests, cache_capacity=0)

    def window(traced: bool) -> tuple[float, dict[str, Any]]:
        engine = build_demo_sharded_engine(seed=seed, **OBS_BENCH_ENGINE)
        try:
            seconds, _, stats = serve_window(
                engine, queries, config,
                tracer=Tracer(exporters=[InMemoryExporter()]) if traced
                else None)
        finally:
            engine.close()
        return seconds, stats

    window(traced=False)  # warmup
    untraced_s: list[float] = []
    traced_s: list[float] = []
    traced_stats: dict[str, Any] = {}
    for _ in range(effective_rounds):
        untraced_s.append(window(traced=False)[0])
        elapsed, traced_stats = window(traced=True)
        traced_s.append(elapsed)

    untraced_record = record_from_times(
        f"obs/untraced/max_batch={max_batch}", "obs",
        {**params, "traced": False}, untraced_s)
    traced_record = record_from_times(
        f"obs/traced/max_batch={max_batch}", "obs",
        {**params, "traced": True}, traced_s)

    obs_counters = traced_stats.get("obs", {})
    spans_ended = int(obs_counters.get("spans_ended", 0))
    overhead_pct = 100.0 * (traced_record.median_s - untraced_record.median_s
                            ) / max(untraced_record.median_s, 1e-12)
    summary: dict[str, Any] = {
        "workload": dict(params),
        "overhead_pct": overhead_pct,
        "throughput_rps": {
            "untraced": total_requests / untraced_record.median_s,
            "traced": total_requests / traced_record.median_s,
        },
        "spans_per_request": spans_ended / max(total_requests, 1),
        "spans_dropped": int(obs_counters.get("export_dropped", 0)),
        "report_only": True,
    }
    return [untraced_record, traced_record], summary


# -- paper-figure workloads (pytest-benchmark) ---------------------------------


def run_paper_benchmarks(repo_root: str | Path,
                         files: Sequence[str] | None = None,
                         max_time_s: float = 0.5,
                         timeout_s: float = 1800.0) -> list[BenchRecord]:
    """Run the ``benchmarks/`` pytest-benchmark suite and fold in its stats.

    Parameters
    ----------
    repo_root:
        Repository root (the directory holding ``benchmarks/``).
    files:
        Benchmark files to run, relative to the root; defaults to the whole
        directory.
    max_time_s:
        Per-benchmark time cap handed to pytest-benchmark.
    """
    root = Path(repo_root)
    report_path = root / ".bench_paper_report.json"
    if files:
        targets = [str(root / f) for f in files]
        ignores: list[str] = []
    else:
        targets = [str(root / "benchmarks")]
        # Non-paper microbenchmarks are excluded from the whole-directory
        # sweep: their trajectory already lives in BENCH_kernels.json and
        # they would pollute the "paper" group.
        ignores = [f"--ignore={root / f}" for f in NON_PAPER_BENCH_FILES]
    command = [
        sys.executable, "-m", "pytest", *targets, *ignores,
        "--benchmark-only", "-q", "-p", "no:cacheprovider",
        "--benchmark-min-rounds=1", f"--benchmark-max-time={max_time_s}",
        f"--benchmark-json={report_path}",
    ]
    env_path = str(root / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = env_path + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        completed = subprocess.run(command, cwd=root, capture_output=True,
                                   text=True, timeout=timeout_s, env=env)
        if completed.returncode != 0 or not report_path.exists():
            raise RuntimeError(
                "paper benchmark run failed:\n" + completed.stdout[-2000:]
                + completed.stderr[-2000:]
            )
        raw = json.loads(report_path.read_text())
    finally:
        report_path.unlink(missing_ok=True)

    records = []
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        records.append(BenchRecord(
            name=f"paper/{bench['name']}",
            group="paper",
            params={"fullname": bench.get("fullname", bench["name"])},
            median_s=float(stats["median"]),
            mean_s=float(stats["mean"]),
            std_s=float(stats["stddev"]),
            min_s=float(stats["min"]),
            rounds=int(stats["rounds"]),
        ))
    return records
