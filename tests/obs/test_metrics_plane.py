"""The metrics plane end to end: serve instruments, exemplars, span
links for cache provenance, and the shard/exec counters that land in the
process default registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import FallbackExecutor, InlineExecutor, WorkerCrashError
from repro.obs import (
    InMemoryExporter,
    MetricsRegistry,
    Tracer,
    build_run_trees,
    configure_registry,
    default_registry,
)
from repro.serve import MicroBatchServer, ServeConfig, build_demo_engine
from repro.shard import build_demo_sharded_engine

GEOMETRY = dict(classes=16, input_dim=32, hash_length=128)


@pytest.fixture
def fresh_default_registry():
    """Swap in a fresh process default registry; restore the original."""
    original = default_registry()
    registry = configure_registry(MetricsRegistry())
    try:
        yield registry
    finally:
        configure_registry(original)


def _serve_traced(engine, queries, cache_capacity=0, max_batch=8):
    sink = InMemoryExporter()
    tracer = Tracer(exporters=[sink], sample_rate=1.0,
                    flush_interval_s=0.01)
    config = ServeConfig(max_batch=max_batch, max_wait_ms=2.0,
                         cache_capacity=cache_capacity)
    server = MicroBatchServer(engine, config=config, tracer=tracer)
    with server:
        futures = [server.submit(query) for query in queries]
        results = [future.result(timeout=60.0) for future in futures]
        metrics = server.metrics
    assert tracer.shutdown()
    return np.stack(results), metrics, sink


class TestServeInstruments:
    def test_conventional_instrument_names_exist(self, rng):
        queries = rng.standard_normal((8, GEOMETRY["input_dim"]))
        _, metrics, _ = _serve_traced(build_demo_engine(seed=0, **GEOMETRY),
                                      queries, cache_capacity=8)
        registry = metrics.registry
        for name in ("serve_requests_enqueued", "serve_requests_completed",
                     "serve_requests_failed", "serve_cache_hits",
                     "serve_cache_misses", "serve_batches"):
            assert registry.get(name) is not None, name
        assert registry.get("serve_requests_completed").value == 8
        latency = registry.get("serve_request_latency_ms")
        assert latency is not None and latency.count == 8
        assert registry.get("serve_batch_service_ms").count > 0
        assert registry.get("serve_queue_depth") is not None

    def test_snapshot_shape_is_unchanged(self, rng):
        queries = rng.standard_normal((4, GEOMETRY["input_dim"]))
        _, metrics, _ = _serve_traced(build_demo_engine(seed=0, **GEOMETRY),
                                      queries)
        snap = metrics.snapshot()
        # The legacy dashboard contract: same keys as before the plane.
        for key in ("requests", "latency_ms", "service_ms", "batch_wait_ms",
                    "batches", "queue_depth", "throughput_rps", "elapsed_s",
                    "cache", "shards"):
            assert key in snap, key
        assert snap["requests"]["completed"] == 4
        assert isinstance(snap["requests"]["completed"], int)
        assert set(snap["requests"]) == {"enqueued", "completed", "rejected",
                                         "failed"}
        assert snap["latency_ms"]["p50"] >= 0.0

    def test_external_registry_is_used(self, rng):
        registry = MetricsRegistry()
        config = ServeConfig(max_batch=2, max_wait_ms=1.0)
        engine = build_demo_engine(seed=0, **GEOMETRY)
        with MicroBatchServer(engine, config=config,
                              registry=registry) as server:
            server.submit(
                rng.standard_normal(GEOMETRY["input_dim"])).result(60.0)
            assert server.metrics.registry is registry
        assert registry.get("serve_requests_completed").value == 1


class TestLatencyExemplars:
    def test_exemplars_name_exported_request_traces(self, rng):
        queries = rng.standard_normal((8, GEOMETRY["input_dim"]))
        _, metrics, sink = _serve_traced(
            build_demo_engine(seed=0, **GEOMETRY), queries)
        latency = metrics.registry.get("serve_request_latency_ms")
        exemplars = [e for e in latency.exemplars() if e is not None]
        assert exemplars
        request_traces = {span["trace_id"] for span in sink.spans()
                          if span["name"] == "request"}
        for exemplar in exemplars:
            assert exemplar.trace_id in request_traces

    def test_p99_exemplar_reconstructs_a_run_tree(self, rng):
        queries = rng.standard_normal((8, GEOMETRY["input_dim"]))
        _, metrics, sink = _serve_traced(
            build_demo_engine(seed=0, **GEOMETRY), queries)
        latency = metrics.registry.get("serve_request_latency_ms")
        _, exemplar = latency.percentile_bucket(99.0)
        assert exemplar is not None
        trees = [tree for tree in build_run_trees(sink.spans())
                 if tree.root.span["trace_id"] == exemplar.trace_id]
        assert len(trees) == 1
        assert trees[0].root.name == "request"

    def test_untraced_server_records_no_exemplars(self, rng):
        config = ServeConfig(max_batch=2, max_wait_ms=1.0)
        engine = build_demo_engine(seed=0, **GEOMETRY)
        with MicroBatchServer(engine, config=config) as server:
            server.submit(
                rng.standard_normal(GEOMETRY["input_dim"])).result(60.0)
            latency = server.metrics.registry.get("serve_request_latency_ms")
        assert latency.count == 1
        assert all(e is None for e in latency.exemplars())


class TestCacheHitSpanLinks:
    def test_hit_span_links_to_producing_trace(self, rng):
        engine = build_demo_engine(seed=0, **GEOMETRY)
        one = rng.standard_normal(GEOMETRY["input_dim"])
        sink = InMemoryExporter()
        tracer = Tracer(exporters=[sink], sample_rate=1.0,
                        flush_interval_s=0.01)
        config = ServeConfig(max_batch=1, max_wait_ms=0.5, cache_capacity=8)
        with MicroBatchServer(engine, config=config, tracer=tracer) as server:
            first = server.submit(one).result(timeout=60.0)
            second = server.submit(one).result(timeout=60.0)
        assert tracer.shutdown()
        assert np.array_equal(first, second)
        requests = [span for span in sink.spans()
                    if span["name"] == "request"]
        assert len(requests) == 2
        miss, hit = sorted(requests,
                           key=lambda s: s["attributes"]["cache.hit"])
        assert miss["attributes"]["cache.hit"] is False
        assert "link.trace_id" not in miss["attributes"]
        # The hit names the trace that computed (and wrote) the answer.
        assert hit["attributes"]["cache.hit"] is True
        assert hit["attributes"]["link.trace_id"] == miss["trace_id"]


class TestShardFanoutCounters:
    def test_fanout_counters_land_in_default_registry(
            self, rng, fresh_default_registry):
        engine = build_demo_sharded_engine(seed=0, num_shards=2, **GEOMETRY)
        queries = rng.standard_normal((6, GEOMETRY["input_dim"]))
        config = ServeConfig(max_batch=6, max_wait_ms=2.0)
        with MicroBatchServer(engine, config=config) as server:
            futures = [server.submit(query) for query in queries]
            for future in futures:
                future.result(timeout=60.0)
        fanouts = [ins for ins in fresh_default_registry.instruments()
                   if ins.name == "shard_fanouts"]
        assert fanouts, "no shard_fanouts counter registered"
        assert sum(ins.value for ins in fanouts) > 0
        counted = [ins for ins in fresh_default_registry.instruments()
                   if ins.name == "shard_fanout_queries"]
        assert sum(ins.value for ins in counted) == 6
        # The fan-out mode travels as a label.
        assert all(dict(ins.labels).get("mode") for ins in fanouts)


class TestExecCrashCounters:
    def test_contained_crash_increments_counters(self, rng,
                                                 fresh_default_registry):
        class CrashingPrimary(InlineExecutor):
            name = "processes"

            def hamming_fanout(self, queries, storage, selectors):
                raise WorkerCrashError("injected")

        engine = FallbackExecutor(CrashingPrimary(), InlineExecutor())
        a = rng.integers(0, 2 ** 63, size=(4, 2), dtype=np.uint64)
        b = rng.integers(0, 2 ** 63, size=(16, 2), dtype=np.uint64)
        (result,) = engine.hamming_fanout(a, b, [(0, 16)])
        assert result.shape == (4, 16)
        labels = {"engine": "processes"}
        crashes = fresh_default_registry.get("exec_worker_crashes", labels)
        fallbacks = fresh_default_registry.get("exec_fallback_batches",
                                               labels)
        assert crashes is not None and crashes.value == 1
        assert fallbacks is not None and fallbacks.value == 1
