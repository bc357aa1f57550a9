"""Serve-plane tracing end to end: run trees, transparency, isolation.

The oracle throughout: a traced server must answer bit-identically to an
untraced one on the same engine geometry and seed -- observability adds
spans, never arithmetic.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.exec import EXECUTOR_ENV
from repro.obs import (
    InMemoryExporter,
    TailSampler,
    Tracer,
    build_run_trees,
    stage_table,
    verify_run_trees,
)
from repro.serve import (
    MicroBatchServer,
    QueueFullError,
    ServeConfig,
    build_demo_engine,
)
from repro.shard import build_demo_sharded_engine

GEOMETRY = dict(classes=16, input_dim=32, hash_length=128)
REQUESTS = 24


def serve(engine, queries, tracer=None, cache_capacity=0, observers=(),
          max_batch=8):
    config = ServeConfig(max_batch=max_batch, max_wait_ms=2.0,
                         cache_capacity=cache_capacity)
    server = MicroBatchServer(engine, config=config, observers=observers,
                              tracer=tracer)
    with server:
        futures = [server.submit(query) for query in queries]
        results = [future.result(timeout=60.0) for future in futures]
    if tracer is not None:
        assert tracer.flush()
    return np.stack(results)


@pytest.fixture
def queries(rng):
    return rng.standard_normal((REQUESTS, GEOMETRY["input_dim"]))


class TestRunTrees:
    def test_every_request_reconstructs_exactly_once(self, queries, make_tracer):
        tracer, sink = make_tracer()
        serve(build_demo_engine(seed=0, **GEOMETRY), queries, tracer)
        trees = build_run_trees(sink.spans())
        ok, problems = verify_run_trees(trees, expected_requests=REQUESTS)
        assert ok, problems

    def test_sharded_lifecycle_stages_present(self, queries, make_tracer):
        tracer, sink = make_tracer()
        engine = build_demo_sharded_engine(seed=0, num_shards=2, **GEOMETRY)
        serve(engine, queries, tracer, cache_capacity=REQUESTS)
        trees = build_run_trees(sink.spans())
        ok, problems = verify_run_trees(trees, expected_requests=REQUESTS)
        assert ok, problems
        table = stage_table(trees)
        for stage in ("enqueue", "batch", "prepare", "cache_lookup",
                      "execute", "fanout", "shard_search", "gather",
                      "digitise", "cache_write", "reply"):
            assert table[stage]["max_ms"] > 0.0, stage

    def test_cache_hits_attributed_and_skip_execute(self, rng, make_tracer):
        tracer, sink = make_tracer()
        engine = build_demo_engine(seed=0, **GEOMETRY)
        one = rng.standard_normal(GEOMETRY["input_dim"])
        config = ServeConfig(max_batch=1, max_wait_ms=0.5, cache_capacity=8)
        with MicroBatchServer(engine, config=config, tracer=tracer) as server:
            first = server.submit(one).result(timeout=60.0)
            second = server.submit(one).result(timeout=60.0)
        assert tracer.flush()
        assert np.array_equal(first, second)
        trees = build_run_trees(sink.spans())
        assert len(trees) == 2
        hits = [tree.root.span["attributes"].get("cache.hit")
                for tree in trees]
        assert hits == [False, True]
        hit_tree = trees[1]
        assert hit_tree.stage_ms()["execute"] == 0.0
        assert hit_tree.stage_ms()["cache_lookup"] > 0.0

    def test_batch_membership_matches_declared_size(self, queries, make_tracer):
        tracer, sink = make_tracer()
        serve(build_demo_engine(seed=0, **GEOMETRY), queries, tracer,
              max_batch=REQUESTS)
        trees = build_run_trees(sink.spans())
        by_batch: dict[str, int] = {}
        for tree in trees:
            by_batch[tree.batch_id] = by_batch.get(tree.batch_id, 0) + 1
        for tree in trees:
            declared = tree.batch.span["attributes"]["batch.size"]
            assert by_batch[tree.batch_id] == declared


class TestTransparency:
    def test_traced_answers_bit_identical(self, queries, make_tracer):
        untraced = serve(build_demo_sharded_engine(seed=0, num_shards=2,
                                                   **GEOMETRY), queries)
        tracer, _ = make_tracer()
        traced = serve(build_demo_sharded_engine(seed=0, num_shards=2,
                                                 **GEOMETRY), queries, tracer)
        assert np.array_equal(untraced, traced)

    def test_sampled_out_requests_still_answer(self, queries, make_tracer):
        tracer, sink = make_tracer(sample_rate=0.0)
        reference = serve(build_demo_engine(seed=0, **GEOMETRY), queries)
        answers = serve(build_demo_engine(seed=0, **GEOMETRY), queries,
                        tracer)
        assert np.array_equal(reference, answers)
        assert sink.spans() == []
        assert tracer.snapshot()["spans_ended"] > 0


class TestIsolation:
    def test_raising_observer_breaks_nothing(self, queries, capsys, make_tracer):
        class ExplodingObserver:
            def request_enqueued(self, depth):
                raise RuntimeError("observer bug")

            def batch_collected(self, size, waited_ms, depth):
                raise RuntimeError("observer bug")

        tracer, sink = make_tracer()
        reference = serve(build_demo_engine(seed=0, **GEOMETRY), queries)
        answers = serve(build_demo_engine(seed=0, **GEOMETRY), queries,
                        tracer, observers=(ExplodingObserver(),))
        assert np.array_equal(reference, answers)
        trees = build_run_trees(sink.spans())
        ok, problems = verify_run_trees(trees, expected_requests=REQUESTS)
        assert ok, problems
        assert "ExplodingObserver" in capsys.readouterr().err

    def test_engine_failure_exports_error_spans(self, rng, make_tracer):
        class BrokenEngine:
            name = "broken"
            input_dim = 8

            def prepare(self, samples):
                raise RuntimeError("engine exploded")

            def execute(self, prepared):  # pragma: no cover -- never reached
                raise AssertionError

        tracer, sink = make_tracer(sample_rate=0.0)  # errors must override
        config = ServeConfig(max_batch=4, max_wait_ms=0.5)
        with MicroBatchServer(BrokenEngine(), config=config,
                              tracer=tracer) as server:
            future = server.submit(rng.standard_normal(8))
            with pytest.raises(RuntimeError, match="engine exploded"):
                future.result(timeout=60.0)
        assert tracer.flush()
        exported = sink.spans()
        names = {span["name"] for span in exported
                 if span["status"] == "error"}
        assert "request" in names
        assert tracer.errors > 0


class TestProcessExecutorPropagation:
    def test_fanout_span_names_the_processes_executor(self, rng, monkeypatch,
                                                      make_tracer):
        monkeypatch.setenv(EXECUTOR_ENV, "processes")
        tracer, sink = make_tracer()
        engine = build_demo_sharded_engine(seed=0, num_shards=2, **GEOMETRY)
        try:
            queries = rng.standard_normal((8, GEOMETRY["input_dim"]))
            serve(engine, queries, tracer)
        finally:
            close = getattr(engine, "close", None)
            if callable(close):
                close()
        trees = build_run_trees(sink.spans())
        ok, problems = verify_run_trees(trees, expected_requests=8)
        assert ok, problems
        fanouts = [span for span in sink.spans() if span["name"] == "fanout"]
        assert fanouts
        for fanout in fanouts:
            assert fanout["attributes"]["executor"] == "processes"
        # The fan-out stages stay in the batch's own trace.
        batch_traces = {span["trace_id"] for span in sink.spans()
                        if span["name"] == "batch"}
        assert all(fanout["trace_id"] in batch_traces for fanout in fanouts)


    def test_fanout_span_names_the_default_kernel_without_an_engine(
            self, rng, monkeypatch, make_tracer):
        # No engine configured: the fused kernel runs with its default
        # CPU split, which is not the inline engine.
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        tracer, sink = make_tracer()
        engine = build_demo_sharded_engine(seed=0, num_shards=2, **GEOMETRY)
        try:
            serve(engine, rng.standard_normal((8, GEOMETRY["input_dim"])),
                  tracer)
        finally:
            engine.close()
        fanouts = [span for span in sink.spans() if span["name"] == "fanout"]
        assert fanouts
        for fanout in fanouts:
            assert fanout["attributes"]["mode"] == "fused"
            assert fanout["attributes"]["executor"] == "default"


class _GateEngine:
    """Wraps an engine so execute() blocks until released (abort tests)."""

    def __init__(self, inner):
        self._inner = inner
        self.gate = threading.Event()
        self.started = threading.Event()
        self.name = inner.name
        self.input_dim = inner.input_dim
        self.output_dim = inner.output_dim

    def prepare(self, queries):
        return self._inner.prepare(queries)

    def execute(self, prepared):
        self.started.set()
        assert self.gate.wait(30)
        return self._inner.execute(prepared)


class TestRejectionSpanLifecycle:
    """Every refused request must close its spans -- rejected or aborted
    requests used to leave open roots that sat in the tail buffer until
    the trace-timeout sweep."""

    def test_queue_full_rejection_ends_request_spans(self, rng, make_tracer):
        tracer, sink = make_tracer()
        engine = build_demo_engine(seed=0, **GEOMETRY)
        config = ServeConfig(max_batch=4, queue_depth=2, full_policy="reject",
                             poll_timeout_ms=10_000.0, cache_capacity=0)
        server = MicroBatchServer(engine, config=config, tracer=tracer)
        server._running = True  # submit guard only; workers stay down
        try:
            queries = rng.standard_normal((3, GEOMETRY["input_dim"]))
            server.submit(queries[0])
            server.submit(queries[1])
            with pytest.raises(QueueFullError):
                server.submit(queries[2])
            assert tracer.flush()
            exported = sink.spans()
            rejected = [span for span in exported
                        if span["name"] == "request"
                        and span["status"] == "error"]
            assert len(rejected) == 1  # root span exported = it was ended
            enqueues = [span for span in exported
                        if span["name"] == "enqueue"]
            assert any(span["trace_id"] == rejected[0]["trace_id"]
                       for span in enqueues)
        finally:
            server._running = False
            server._flush_queue(RuntimeError("test teardown"))

    def test_abort_stop_leaves_no_open_roots_in_the_tail_buffer(self, rng):
        sink = InMemoryExporter()
        tail = TailSampler([sink], flush_interval_s=0.005)
        tracer = Tracer(sample_rate=0.0, tail_sampler=tail)
        engine = _GateEngine(build_demo_engine(seed=0, **GEOMETRY))
        config = ServeConfig(max_batch=1, max_wait_ms=0.0, queue_depth=16,
                             num_workers=1, poll_timeout_ms=5.0,
                             cache_capacity=0)
        queries = rng.standard_normal((5, GEOMETRY["input_dim"]))
        server = MicroBatchServer(engine, config=config, tracer=tracer)
        server.start()
        blocker = server.submit(queries[0])
        assert engine.started.wait(30)  # worker is inside execute()
        aborted = [server.submit(query) for query in queries[1:]]
        releaser = threading.Timer(0.1, engine.gate.set)
        releaser.start()
        try:
            server.stop(drain=False)
        finally:
            releaser.cancel()
            engine.gate.set()
        assert blocker.result(30).shape == (GEOMETRY["classes"],)
        for future in aborted:
            with pytest.raises(RuntimeError, match="stopped"):
                future.result(5)
        assert tail.drain(10)
        snap = tail.snapshot()
        # Every root arrived at the tail (5 request roots + the blocker's
        # batch root): the aborted requests' spans were ended, not leaked
        # to the trace-timeout sweep.
        assert snap["roots_seen"] == len(queries) + 1
        assert snap["buffered_traces"] == 0
        assert snap["timed_out_traces"] == 0
        assert tracer.shutdown(10)  # stops the tail sampler too
