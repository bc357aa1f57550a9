"""Tests for the benchmark harness behind ``make bench``."""

import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.api.bench import (
    ACCEPTANCE_MIN_SPEEDUP,
    BENCH_SCHEMA_VERSION,
    BenchRecord,
    EXECUTOR_ACCEPTANCE_MIN_SPEEDUP,
    NET_MAX_REMOTE_VS_INPROC,
    RETRIEVAL_ACCEPTANCE_MIN_SPEEDUP,
    SERVE_ACCEPTANCE_MIN_SPEEDUP,
    SHARD_ACCEPTANCE_MIN_SPEEDUP,
    _floor_gate,
    benchmark_callable,
    collect_environment,
    e2e_benchmarks,
    kernel_microbench,
    net_benchmarks,
    record_from_times,
    serve_benchmarks,
    serve_window,
    time_callable,
    write_bench_report,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestTiming:
    def test_time_callable_counts_rounds(self):
        calls = []
        times = time_callable(lambda: calls.append(1), rounds=4, warmup=2)
        assert len(times) == 4
        assert len(calls) == 6  # warmup runs execute but are not timed
        assert all(t >= 0.0 for t in times)

    def test_time_callable_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, rounds=0)

    def test_record_statistics(self):
        record = record_from_times("x", "kernel", {"k": 1}, [0.2, 0.1, 0.4])
        assert record.median_s == pytest.approx(0.2)
        assert record.min_s == pytest.approx(0.1)
        assert record.rounds == 3

    def test_record_requires_samples(self):
        with pytest.raises(ValueError):
            record_from_times("x", "kernel", {}, [])

    def test_benchmark_callable_roundtrip(self):
        record = benchmark_callable("y", "e2e", {"n": 2}, lambda: sum(range(10)),
                                    rounds=2, warmup=0)
        assert record.name == "y"
        assert record.rounds == 2


class TestReports:
    def test_environment_fields(self):
        env = collect_environment(REPO_ROOT)
        assert set(env) >= {"commit", "timestamp", "python", "numpy",
                            "platform", "have_bitwise_count"}
        assert env["numpy"] == np.__version__

    def test_write_bench_report_json_roundtrip(self, tmp_path):
        record = BenchRecord(name="a", group="kernel", params={"k": 128},
                             median_s=0.1, mean_s=0.1, std_s=0.0, min_s=0.1,
                             rounds=3)
        path = tmp_path / "BENCH_test.json"
        document = write_bench_report(path, [record], {"commit": "abc"},
                                      extra={"mode": "quick"})
        loaded = json.loads(path.read_text())
        assert loaded == document
        assert loaded["schema_version"] == BENCH_SCHEMA_VERSION
        assert loaded["mode"] == "quick"
        assert loaded["benchmarks"][0]["name"] == "a"
        assert loaded["environment"]["commit"] == "abc"


class TestFloorGate:
    def test_passes_at_the_floor_and_fails_just_below(self):
        assert _floor_gate("w", 5.0, 5.0)["passed"] is True
        assert _floor_gate("w", math.nextafter(5.0, 0.0), 5.0)["passed"] is False

    #: The five floor gates of ``make bench``: floor constant, the detail
    #: each call site passes, and the exact key set of the gate it reports.
    FLOOR_GATES = {
        "kernel": (ACCEPTANCE_MIN_SPEEDUP,
                   {"unpacked_median_s": 2.0, "packed_median_s": 0.5},
                   {"unpacked_median_s", "packed_median_s"}),
        "serve": (SERVE_ACCEPTANCE_MIN_SPEEDUP, {"max_batch": 64},
                  {"max_batch"}),
        "shard": (SHARD_ACCEPTANCE_MIN_SPEEDUP, {}, set()),
        "executor": (EXECUTOR_ACCEPTANCE_MIN_SPEEDUP, {"cores": 4},
                     {"cores"}),
        "retrieval": (RETRIEVAL_ACCEPTANCE_MIN_SPEEDUP,
                      {"partial_median_s": 0.1, "full_median_s": 0.4},
                      {"partial_median_s", "full_median_s"}),
    }

    @pytest.mark.parametrize("suite", sorted(FLOOR_GATES))
    def test_key_set_is_the_suite_gate_key_set(self, suite):
        floor, detail, detail_keys = self.FLOOR_GATES[suite]
        gate = _floor_gate(f"{suite}_cell", floor * 1.5, floor, **detail)
        assert set(gate) == {"workload", "speedup", "min_required_speedup",
                             "passed"} | detail_keys
        assert gate["workload"] == f"{suite}_cell"
        assert gate["min_required_speedup"] == floor
        assert gate["passed"] is True
        assert all(gate[key] == value for key, value in detail.items())


class _FailingEngine:
    """Every batch fails in ``execute``."""

    name = "failing"
    output_dim = 1

    def prepare(self, queries):
        from repro.serve import PreparedBatch
        return PreparedBatch(queries=np.asarray(queries, dtype=np.float64))

    def execute(self, prepared):
        raise RuntimeError("engine failed")


class TestServeWindow:
    def test_failure_reraises_and_releases_server_and_tracer(self):
        from repro.obs import InMemoryExporter, Tracer
        from repro.serve import ServeConfig

        before = set(threading.enumerate())
        tracer = Tracer(exporters=[InMemoryExporter()])
        config = ServeConfig(max_batch=4, max_wait_ms=1.0, cache_capacity=0)
        with pytest.raises(RuntimeError, match="engine failed"):
            serve_window(_FailingEngine(), np.ones((8, 4)), config, tracer)
        assert tracer.snapshot()["spans_ended"] > 0  # the exporter had work
        leftover = [thread.name for thread in threading.enumerate()
                    if thread not in before]
        assert not [name for name in leftover
                    if name.startswith("repro-serve-")
                    or name == "repro-obs-export"], leftover

    def test_returns_seconds_responses_and_stats(self):
        from repro.serve import ServeConfig, build_demo_engine

        engine = build_demo_engine(classes=4, input_dim=8, hash_length=64)
        queries = np.random.default_rng(0).standard_normal((6, 8))
        seconds, responses, stats = serve_window(
            engine, queries, ServeConfig(max_batch=4, cache_capacity=0))
        assert seconds > 0.0
        assert np.array_equal(np.stack(responses),
                              engine.execute(engine.prepare(queries)))
        assert stats["requests"]["completed"] == 6


class TestSuites:
    def test_kernel_microbench_tiny_grid(self):
        records, summary = kernel_microbench(grid=((32, 16), (2048, 128)),
                                             rounds=1)
        names = {record.name for record in records}
        assert "kernel/packed_popcount/rows=32,k=16" in names
        assert "kernel/unpacked_gemm/rows=2048,k=128" in names
        assert summary["speedups"].keys() == {"rows=32,k=16", "rows=2048,k=128"}
        acceptance = summary["acceptance"]
        assert acceptance["workload"] == "rows=2048,k=128"
        assert acceptance["speedup"] > 0.0
        # The retrieval-shaped cell is recorded on every run, never gated.
        assert ("kernel/packed_popcount_narrow/queries=16,rows=131072,k=256"
                in names)
        assert summary["retrieval_cell"]["gated"] is False
        assert summary["retrieval_cell"]["median_s"] > 0.0
        # ... and again capped at one thread, for the default-vs-serial ratio.
        assert ("kernel/packed_popcount_narrow_serial/"
                "queries=16,rows=131072,k=256" in names)
        assert summary["retrieval_cell"]["speedup_vs_serial"] > 0.0

    def test_e2e_suite_runs_quickly(self):
        records = e2e_benchmarks(quick=True, rounds=1)
        assert {record.group for record in records} == {"e2e"}
        assert len(records) == 3
        assert all(record.median_s >= 0.0 for record in records)

    def test_kernel_microbench_threaded_records(self):
        records, summary = kernel_microbench(grid=((1024, 64),), rounds=1,
                                             thread_counts=(2,))
        names = {record.name for record in records}
        assert "kernel/packed_popcount_threads=2/rows=1024,k=64" in names
        # Speedups are against an explicit serial record, not the default
        # kernel (which spans the CPUs itself).
        assert "kernel/packed_popcount_serial/rows=1024,k=64" in names
        assert summary["thread_counts"] == [2]
        cell_speedups = summary["threaded_speedups"]["rows=1024,k=64"]
        assert cell_speedups["threads=2"] > 0.0

    def test_serve_suite_records_and_acceptance_fields(self):
        records, summary = serve_benchmarks(total_requests=300, quick=False,
                                            rounds=1)
        names = {record.name for record in records}
        assert names == {
            "serve/microbatch/max_batch=64",
            "serve/serial/max_batch=1",
            "serve/zipf_cached/max_batch=64",
        }
        assert all(record.group == "serve" for record in records)
        acceptance = summary["acceptance"]
        assert set(acceptance) == {"workload", "max_batch", "speedup",
                                   "min_required_speedup", "passed"}
        assert summary["throughput_rps"]["microbatch_64"] > 0
        assert 0.0 <= summary["zipf_cache_hit_rate"] <= 1.0

    def test_net_suite_gates_the_worst_wire_tax(self):
        records, summary = net_benchmarks(quick=True, rounds=1)
        assert {record.name for record in records} == {
            "net/inproc/classify/batch=16", "net/remote/classify/batch=16",
            "net/inproc/topk_k=8/batch=16", "net/remote/topk_k=8/batch=16",
        }
        acceptance = summary["acceptance"]
        assert set(acceptance) == {"workload", "factor",
                                   "max_allowed_factor", "passed"}
        assert acceptance["factor"] == max(
            summary["remote_vs_inproc"].values())
        assert acceptance["max_allowed_factor"] == NET_MAX_REMOTE_VS_INPROC
        assert acceptance["passed"] == (
            acceptance["factor"] <= NET_MAX_REMOTE_VS_INPROC)

    def test_serve_suite_is_json_serializable(self, tmp_path):
        records, summary = serve_benchmarks(total_requests=120, rounds=1)
        document = write_bench_report(tmp_path / "BENCH_serve.json", records,
                                      {"commit": "abc"},
                                      extra={"serve": summary})
        assert json.loads((tmp_path / "BENCH_serve.json").read_text()) == document

    def test_threaded_records_skip_single_block_cells(self):
        from repro.bitops import KERNEL_BLOCK_ROWS
        records, summary = kernel_microbench(
            grid=((64, 32), (KERNEL_BLOCK_ROWS * 2, 32)), rounds=1,
            thread_counts=(2,))
        threaded = [record.name for record in records
                    if "packed_popcount_threads" in record.name]
        # Only the multi-block cell engages threading; the single-block
        # cell must not report a bogus ~1.0x "threaded" null result.
        assert threaded == [
            f"kernel/packed_popcount_threads=2/rows={KERNEL_BLOCK_ROWS * 2},k=32"]
        assert list(summary["threaded_speedups"]) == [
            f"rows={KERNEL_BLOCK_ROWS * 2},k=32"]
