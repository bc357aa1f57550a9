"""The /v1/slo route, NetClient.slo(), and the OpenMetrics exposition
appended to /v1/metrics."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.net import protocol
from repro.net.async_client import AsyncNetClient
from repro.net.client import NetClient
from repro.net.server import NetApp, NetServer
from repro.obs import SloSpec
from repro.serve import build_demo_engine, demo_queries

GEOMETRY = dict(classes=8, input_dim=32, hash_length=128)
JSON = protocol.CONTENT_TYPE_JSON

TIGHT = SloSpec(name="tight", latency_p99_ms=1e-6)
LOOSE = SloSpec(name="loose", latency_p99_ms=1e9, error_rate_max=0.99)


def unwrap(response):
    status, content_type, body = response
    assert status == 200 and content_type == JSON
    return protocol.parse_response(protocol.loads(body))


def classify(app, n=4):
    queries = demo_queries(app.server.engine, n)
    status, _, _ = app.handle("POST", "/v1/classify",
                              {"Content-Type": protocol.CONTENT_TYPE_FRAME},
                              protocol.encode_classify_request(queries))
    assert status == 200


class TestSloRoute:
    def test_disabled_without_specs(self):
        app = NetApp(engine=build_demo_engine(**GEOMETRY))
        try:
            result = unwrap(app.handle("GET", "/v1/slo"))
            assert result == {"enabled": False, "specs": []}
        finally:
            app.close()

    def test_specs_need_a_serve_surface(self):
        with pytest.raises(ValueError, match="serve"):
            NetApp(shard_rows=8, word_bits=128, slo_specs=[TIGHT])

    def test_tight_breaches_loose_passes(self):
        app = NetApp(engine=build_demo_engine(**GEOMETRY),
                     slo_specs=[TIGHT, LOOSE])
        try:
            classify(app)
            result = unwrap(app.handle("GET", "/v1/slo"))
            assert result["enabled"] is True
            assert result["status"] == "breach"
            by_name = {spec["name"]: spec["status"]
                       for spec in result["specs"]}
            assert by_name["tight"] == "breach"
            assert by_name["loose"] == "ok"
        finally:
            app.close()

    def test_report_carries_the_spec_and_burn(self):
        app = NetApp(engine=build_demo_engine(**GEOMETRY),
                     slo_specs=[LOOSE])
        try:
            classify(app)
            result = unwrap(app.handle("GET", "/v1/slo"))
            (spec,) = result["specs"]
            assert spec["spec"]["latency_p99_ms"] == 1e9
            for objective in spec["objectives"]:
                assert set(objective["windows"]) == {"short", "long"}
                for window in objective["windows"].values():
                    assert "burn" in window and "budget" in window
        finally:
            app.close()


class TestMetricsExposition:
    def test_json_metrics_include_instruments(self):
        app = NetApp(engine=build_demo_engine(**GEOMETRY))
        try:
            classify(app)
            result = unwrap(app.handle("GET", "/v1/metrics",
                                       {"Accept": JSON}))
            assert "instruments" in result
            merged = {}
            for registry in result["instruments"].values():
                merged.update(registry)
            latency = merged["serve_request_latency_ms"]
            assert latency["type"] == "histogram"
            assert latency["count"] == 4
        finally:
            app.close()

    def test_text_metrics_append_openmetrics(self):
        app = NetApp(engine=build_demo_engine(**GEOMETRY))
        try:
            classify(app)
            status, content_type, body = app.handle("GET", "/v1/metrics")
            assert status == 200
            from repro.obs import CONTENT_TYPE_PROMETHEUS
            assert content_type == CONTENT_TYPE_PROMETHEUS
            text = body.decode("utf-8")
            # Legacy flattened gauges stay first (locked wire format)...
            assert "# TYPE repro_net_requests gauge" in text
            # ...then the typed instruments in OpenMetrics syntax.
            assert "# TYPE repro_serve_request_latency_ms histogram" in text
            assert 'repro_serve_request_latency_ms_bucket{le="' in text
            assert "repro_serve_requests_completed_total 4" in text
            # One terminating EOF, at the very end.
            assert text.count("# EOF") == 1
            assert text.rstrip().endswith("# EOF")
        finally:
            app.close()

    def test_exemplars_render_when_traced(self):
        from repro.obs import InMemoryExporter, Tracer

        tracer = Tracer(exporters=[InMemoryExporter()], sample_rate=1.0,
                        flush_interval_s=0.01)
        app = NetApp(engine=build_demo_engine(**GEOMETRY), tracer=tracer)
        try:
            classify(app)
            assert tracer.flush()
            _, _, body = app.handle("GET", "/v1/metrics")
            text = body.decode("utf-8")
            assert " # {trace_id=" in text
        finally:
            app.close()
            tracer.shutdown()


class TestClientSlo:
    def test_sync_and_async_clients_fetch_slo(self):
        with NetServer(engine=build_demo_engine(**GEOMETRY),
                       slo_specs=[LOOSE]) as server:
            with NetClient(server.base_url) as client:
                queries = demo_queries(server.app.server.engine, 3)
                client.infer_many(np.asarray(queries))
                report = client.slo()
                assert report["enabled"] is True
                assert report["status"] in ("ok", "no_data")

            async def fetch():
                async with AsyncNetClient(server.base_url) as client:
                    return await client.slo()

            report = asyncio.run(fetch())
            assert report["enabled"] is True

    def test_client_slo_when_disabled(self):
        with NetServer(engine=build_demo_engine(**GEOMETRY)) as server:
            with NetClient(server.base_url) as client:
                assert client.slo() == {"enabled": False, "specs": []}
