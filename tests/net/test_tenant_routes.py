"""Tenant identity over the wire: header carry, 429 mapping, retry hints.

Socket-free throughout: ``NetApp.handle`` exercises the routing and the
scripted transport pins the retry layer's reaction to ``Retry-After``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.net import protocol
from repro.net.client import NetClient
from repro.net.server import NetApp
from repro.net.transport import (
    RetryPolicy,
    RetryingTransport,
    TransportResponse,
)
from repro.serve import TenantPolicy, TenantRegistry, build_demo_engine, demo_queries

GEOMETRY = dict(classes=8, input_dim=32, hash_length=128)
JSON = protocol.CONTENT_TYPE_JSON


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class ScriptedTransport:
    """Replays a script of responses and records every attempt."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def send_once(self, method, path, body=b"", headers=None):
        self.calls.append((method, path, bytes(body), dict(headers or {})))
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step

    def close(self):
        pass

    def stats(self):
        return {}


def ok_response(payload=None):
    return TransportResponse(
        status=200,
        headers={"content-type": JSON},
        body=protocol.dumps(protocol.ok_envelope(payload or {})),
    )


def rate_limited_response(retry_after_s=None, header=None):
    headers = {"content-type": JSON}
    if header is not None:
        headers["retry-after"] = header
    return TransportResponse(
        status=429,
        headers=headers,
        body=protocol.dumps(protocol.error_envelope(
            "rate_limited", "slow down", retry_after_s=retry_after_s)),
    )


def classify_frame(engine, count=1, seed=0):
    queries = demo_queries(engine, count, seed=seed)
    return protocol.encode_classify_request(queries)


class TestTenantRoutes:
    @pytest.fixture
    def app(self):
        clock = FakeClock()
        registry = TenantRegistry(clock=clock)
        registry.register("flood", TenantPolicy(rate=5.0, burst=1.0))
        app = NetApp(engine=build_demo_engine(**GEOMETRY), tenancy=registry)
        app.clock = clock  # test handle
        try:
            yield app
        finally:
            app.close()

    def post(self, app, frame, tenant=None):
        headers = {"Content-Type": protocol.CONTENT_TYPE_FRAME}
        if tenant is not None:
            headers[protocol.TENANT_HEADER] = tenant
        return app.handle("POST", "/v1/classify", headers, frame)

    def test_tenant_header_attributes_the_request(self, app):
        frame = classify_frame(app.server.engine)
        status, _, _ = self.post(app, frame, tenant="acme")
        assert status == 200
        tenants = app.server.stats()["tenants"]
        assert tenants["acme"]["admitted"] == 1
        assert tenants["acme"]["completed"] == 1

    def test_over_rate_maps_to_429_with_a_retry_hint(self, app):
        frame = classify_frame(app.server.engine)
        assert self.post(app, frame, tenant="flood")[0] == 200
        status, content_type, body = self.post(app, frame, tenant="flood")
        assert status == 429 and content_type == JSON
        with pytest.raises(protocol.WireError) as excinfo:
            protocol.parse_response(protocol.loads(body))
        assert excinfo.value.code == "rate_limited"
        assert excinfo.value.retry_after_s == pytest.approx(0.2)
        # The hint is honest: advancing the bucket clock readmits.
        app.clock.advance(0.2)
        assert self.post(app, frame, tenant="flood")[0] == 200

    def test_missing_header_books_under_the_default_tenant(self, app):
        frame = classify_frame(app.server.engine)
        assert self.post(app, frame)[0] == 200
        assert app.server.stats()["tenants"]["default"]["admitted"] == 1

    def test_tenanted_answers_stay_bit_identical(self, app):
        queries = demo_queries(app.server.engine, 4, seed=3)
        frame = protocol.encode_classify_request(queries)
        status, _, body = self.post(app, frame, tenant="acme")
        assert status == 200
        remote = protocol.decode_classify_response(body)
        reference_engine = build_demo_engine(**GEOMETRY)
        expected = reference_engine.execute(reference_engine.prepare(queries))
        assert np.array_equal(remote, expected)


class TestProtocolRetryAfter:
    def test_error_envelope_round_trips_the_hint(self):
        document = protocol.error_envelope("rate_limited", "slow down",
                                           retry_after_s=1.5)
        with pytest.raises(protocol.WireError) as excinfo:
            protocol.parse_response(document)
        assert excinfo.value.retry_after_s == 1.5

    def test_error_envelope_without_hint_parses_to_none(self):
        document = protocol.error_envelope("bad_request", "nope")
        with pytest.raises(protocol.WireError) as excinfo:
            protocol.parse_response(document)
        assert excinfo.value.retry_after_s is None

    def test_rate_codes_map_to_429(self):
        assert protocol.ERROR_STATUS["rate_limited"] == 429
        assert protocol.ERROR_STATUS["quota_exceeded"] == 429


class TestClientTenantHeader:
    def make_client(self, script, **kwargs):
        inner = ScriptedTransport(script)
        client = NetClient(transport=inner, **kwargs)
        return client, inner

    def test_client_stamps_the_tenant_header(self):
        client, inner = self.make_client([ok_response({"status": "ok"})],
                                         tenant="acme")
        client.healthz()
        assert inner.calls[0][3][protocol.TENANT_HEADER] == "acme"

    def test_untenanted_client_sends_no_header(self):
        client, inner = self.make_client([ok_response({"status": "ok"})])
        client.healthz()
        assert protocol.TENANT_HEADER not in inner.calls[0][3]


class TestRetryHonoursRetryAfter:
    def make(self, script):
        inner = ScriptedTransport(script)
        sleeps = []
        transport = RetryingTransport(
            inner,
            policy=RetryPolicy(base_delay_s=0.001, max_delay_s=0.05),
            rng=random.Random(0),
            sleep=sleeps.append,
        )
        return transport, inner, sleeps

    def test_retry_after_header_floors_the_backoff_delay(self):
        transport, inner, sleeps = self.make(
            [rate_limited_response(header="0.040"), ok_response()])
        response = transport.send("POST", "/v1/classify", b"{}")
        assert response.status == 200 and len(inner.calls) == 2
        # Jittered delay from these knobs is ~0.003; the server's hint wins.
        assert sleeps[0] >= 0.040

    def test_envelope_hint_is_the_header_fallback(self):
        transport, inner, sleeps = self.make(
            [rate_limited_response(retry_after_s=0.030), ok_response()])
        response = transport.send("POST", "/v1/classify", b"{}")
        assert response.status == 200
        assert sleeps[0] >= 0.030

    def test_hint_is_capped_by_the_policy_ceiling(self):
        transport, inner, sleeps = self.make(
            [rate_limited_response(header="9999"), ok_response()])
        transport.send("POST", "/v1/classify", b"{}")
        assert sleeps[0] == pytest.approx(0.05)  # max_delay_s wins
