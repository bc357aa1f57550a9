"""Trace propagation across the wire and the net observability surfaces.

Two layers: socket-free :class:`NetApp` routing (the ``X-Repro-Trace``
header parenting contract, the ``/v1/metrics`` content negotiation and
``/v1/trace``), then a live loopback cluster where one client call must
stitch client, serve plane and remote shard servers into shared traces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitops import pack_bits
from repro.net import protocol
from repro.net.client import NetClient
from repro.net.cluster import LocalShardCluster
from repro.net.remote import build_demo_remote_engine
from repro.net.server import NetApp, NetServer
from repro.obs import (
    CONTENT_TYPE_PROMETHEUS,
    TRACE_HEADER,
    configure,
)
from repro.serve import build_demo_engine

GEOMETRY = dict(classes=16, input_dim=32, hash_length=128)
JSON = protocol.CONTENT_TYPE_JSON


def classify_frame(rng, n=2):
    queries = rng.standard_normal((n, GEOMETRY["input_dim"]))
    return protocol.encode_classify_request(queries)


def post(app, path, frame, headers=None):
    merged = {"Content-Type": protocol.CONTENT_TYPE_FRAME, **(headers or {})}
    status, _, _ = app.handle("POST", path, merged, frame)
    assert status == 200
    return status


@pytest.fixture
def app_and_sink(make_tracer):
    tracer, sink = make_tracer()
    app = NetApp(engine=build_demo_engine(seed=0, **GEOMETRY), tracer=tracer)
    try:
        yield app, tracer, sink
    finally:
        app.close()


class TestHeaderPropagation:
    CONTEXT = "1-aaaaaaaaaaaaaaaa-bbbbbbbbbbbbbbbb-01"

    def by_name(self, sink):
        spans = {}
        for span in sink.spans():
            spans.setdefault(span["name"], []).append(span)
        return spans

    def test_rpc_span_parents_under_the_wire_context(self, rng, app_and_sink):
        app, tracer, sink = app_and_sink
        post(app, "/v1/classify", classify_frame(rng),
             headers={TRACE_HEADER.lower(): self.CONTEXT})
        assert tracer.flush()
        (rpc,) = self.by_name(sink)["rpc.classify"]
        assert rpc["trace_id"] == "aaaaaaaaaaaaaaaa"
        assert rpc["parent_id"] == "bbbbbbbbbbbbbbbb"
        # The per-sample request spans join the caller's trace through it.
        for request in self.by_name(sink)["request"]:
            assert request["trace_id"] == "aaaaaaaaaaaaaaaa"
            assert request["parent_id"] == rpc["span_id"]

    def test_topk_rpc_span_joins_too(self, rng, app_and_sink):
        app, tracer, sink = app_and_sink
        frame = protocol.encode(
            "topk.request",
            samples=rng.standard_normal((2, GEOMETRY["input_dim"])), k=3)
        post(app, "/v1/topk", frame,
             headers={TRACE_HEADER.lower(): self.CONTEXT})
        assert tracer.flush()
        (rpc,) = self.by_name(sink)["rpc.topk"]
        assert rpc["trace_id"] == "aaaaaaaaaaaaaaaa"

    def test_malformed_header_starts_a_fresh_trace(self, rng, app_and_sink):
        app, tracer, sink = app_and_sink
        post(app, "/v1/classify", classify_frame(rng),
             headers={TRACE_HEADER.lower(): "not-a-trace-context"})
        assert tracer.flush()
        spans = self.by_name(sink)
        # Served fine; the rpc span roots a fresh trace of its own (the
        # malformed context is discarded, never an error).
        (rpc,) = spans["rpc.classify"]
        assert rpc["parent_id"] is None
        assert rpc["trace_id"] != "aaaaaaaaaaaaaaaa"
        for request in spans["request"]:
            assert request["trace_id"] == rpc["trace_id"]

    def test_shard_surface_joins_the_trace(self, rng, make_tracer):
        tracer, sink = make_tracer()
        app = NetApp(shard_rows=8, word_bits=128, tracer=tracer)
        try:
            bits = rng.integers(0, 2, size=(8, 128)).astype(np.uint8)
            post(app, "/v1/shard/write",
                 protocol.encode("shard_write.request", bits=bits,
                                 start_row=0,
                                 global_ids=np.arange(8, dtype=np.int64),
                                 id_bound=8),
                 headers={TRACE_HEADER.lower(): self.CONTEXT})
            queries = rng.integers(0, 2, size=(3, 128)).astype(np.uint8)
            post(app, "/v1/shard/search",
                 protocol.encode("shard_search.request",
                                 packed=pack_bits(queries)),
                 headers={TRACE_HEADER.lower(): self.CONTEXT})
        finally:
            app.close()
        assert tracer.flush()
        names = {span["name"]: span for span in sink.spans()}
        assert names["rpc.shard_write"]["trace_id"] == "aaaaaaaaaaaaaaaa"
        assert names["rpc.shard_search"]["trace_id"] == "aaaaaaaaaaaaaaaa"
        tracer.shutdown()


class TestObservabilitySurfaces:
    def test_metrics_default_is_prometheus_text(self, rng, app_and_sink):
        app, _, _ = app_and_sink
        post(app, "/v1/classify", classify_frame(rng))
        status, content_type, body = app.handle("GET", "/v1/metrics", {}, b"")
        assert status == 200
        assert content_type == CONTENT_TYPE_PROMETHEUS
        text = body.decode("utf-8")
        assert "# TYPE repro_net_requests gauge" in text
        assert "repro_serve_latency_ms_p50" in text
        # The tracer's counters ride along (under the serve section, where
        # the owned MicroBatchServer already folds its tracer snapshot).
        assert "obs_spans_started" in text

    def test_metrics_json_under_accept(self, app_and_sink):
        app, _, _ = app_and_sink
        status, content_type, body = app.handle(
            "GET", "/v1/metrics", {"accept": JSON}, b"")
        assert status == 200
        assert content_type == JSON
        document = protocol.parse_response(protocol.loads(body))
        assert document["net"]["requests"] >= 1
        assert "obs" in document or "obs" in document["serve"]

    def test_trace_endpoint_returns_recent_spans(self, rng, app_and_sink):
        app, tracer, _ = app_and_sink
        post(app, "/v1/classify", classify_frame(rng))
        assert tracer.flush()
        status, content_type, body = app.handle("GET", "/v1/trace", {}, b"")
        assert status == 200
        assert content_type == JSON
        document = protocol.parse_response(protocol.loads(body))
        assert document["enabled"] is True
        assert document["obs"]["spans_started"] > 0
        assert {span["name"] for span in document["spans"]} >= {
            "request", "enqueue", "reply"}

    def test_trace_endpoint_with_tracing_off(self):
        app = NetApp(engine=build_demo_engine(seed=0, **GEOMETRY),
                     tracer=None)
        try:
            assert app.tracer is None  # no default tracer configured
            status, _, body = app.handle("GET", "/v1/trace", {}, b"")
        finally:
            app.close()
        assert status == 200
        document = protocol.parse_response(protocol.loads(body))
        assert document == {"enabled": False, "spans": []}


class TestLiveClusterPropagation:
    """One client call stitches client, serve plane and shard servers."""

    def test_one_trace_per_client_call_across_three_processes_worth(
            self, rng, make_tracer):
        tracer, sink = make_tracer()
        # The process-default tracer: the serve-plane NetApp, the shard
        # servers inside LocalShardCluster and the NetClient all pick it
        # up, exactly like one traced deployment would.
        configure(tracer)
        try:
            with LocalShardCluster(total_rows=GEOMETRY["classes"],
                                   word_bits=GEOMETRY["hash_length"],
                                   num_shards=2, num_replicas=1) as cluster:
                engine = build_demo_remote_engine(cluster.endpoints, seed=0,
                                                  **GEOMETRY)
                with NetServer(engine=engine) as server:
                    with NetClient(server.base_url) as client:
                        queries = rng.standard_normal(
                            (4, GEOMETRY["input_dim"]))
                        client.infer_many(queries)
        finally:
            configure(None)
        assert tracer.flush()
        spans = sink.spans()
        by_name: dict[str, list] = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)

        # Client -> serve plane: one trace from the client.classify span
        # down through the rpc span to every request span.
        (client_span,) = by_name["client.classify"]
        (rpc,) = by_name["rpc.classify"]
        assert rpc["trace_id"] == client_span["trace_id"]
        assert rpc["parent_id"] == client_span["span_id"]
        assert len(by_name["request"]) == 4
        for request in by_name["request"]:
            assert request["trace_id"] == client_span["trace_id"]

        # Serve plane -> shard servers: the rpc.shard_search spans the
        # shard servers opened join the micro-batch's trace (the fan-out
        # runs under the batch's execute span, not the request's).
        batch_traces = {span["trace_id"] for span in by_name["batch"]}
        shard_rpcs = by_name["rpc.shard_search"]
        assert shard_rpcs
        for shard_rpc in shard_rpcs:
            assert shard_rpc["trace_id"] in batch_traces
            assert shard_rpc["parent_id"] is not None
        tracer.shutdown()
