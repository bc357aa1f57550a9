"""NetApp routing (socket-free), live NetServer loopback, and both clients.

The bit-identity oracle throughout: a remote answer must ``array_equal``
what an in-process ``ServeClient`` on an identically-seeded engine
returns -- the network layer adds transport, never arithmetic.
"""

from __future__ import annotations

import asyncio
import socket

import numpy as np
import pytest

from repro.bitops import pack_bits
from repro.net import protocol
from repro.net.client import NetClient
from repro.net.async_client import AsyncNetClient
from repro.net.server import IDEMPOTENCY_CACHE_SIZE, NetApp, NetServer
from repro.net.transport import IDEMPOTENCY_HEADER
from repro.serve import ServeClient, build_demo_engine, demo_queries

GEOMETRY = dict(classes=8, input_dim=32, hash_length=128)

JSON = protocol.CONTENT_TYPE_JSON
FRAME = protocol.CONTENT_TYPE_FRAME


def post(app, path, envelope, content_type=JSON, headers=None):
    merged = {"Content-Type": content_type, **(headers or {})}
    return app.handle("POST", path, merged, protocol.dumps(envelope))


def unwrap(response):
    status, content_type, body = response
    assert content_type == JSON
    document = protocol.loads(body)
    if status == 200:
        return protocol.parse_response(document)
    with pytest.raises(protocol.WireError) as excinfo:
        protocol.parse_response(document)
    assert excinfo.value.status == status
    return excinfo.value


class TestNetAppConstruction:
    def test_exactly_one_surface(self):
        with pytest.raises(ValueError):
            NetApp()
        with pytest.raises(ValueError):
            NetApp(engine=build_demo_engine(**GEOMETRY), shard_rows=8,
                   word_bits=128)

    def test_shard_geometry_goes_together(self):
        with pytest.raises(ValueError):
            NetApp(shard_rows=8)

    def test_timeout_validated(self):
        with pytest.raises(ValueError):
            NetApp(shard_rows=8, word_bits=128, timeout_s=0)


class TestServePlaneRoutes:
    @pytest.fixture
    def app(self):
        app = NetApp(engine=build_demo_engine(**GEOMETRY))
        try:
            yield app
        finally:
            app.close()

    def test_healthz(self, app):
        result = unwrap(app.handle("GET", "/v1/healthz"))
        assert result["plane"] == "serve" and result["status"] == "ok"

    def test_metrics_has_net_and_serve_sections(self, app):
        result = unwrap(app.handle("GET", "/v1/metrics",
                                   {"Accept": protocol.CONTENT_TYPE_JSON}))
        assert result["net"]["requests"] >= 1
        assert "latency_ms" in result["serve"]

    def test_classify_matches_inprocess(self, app):
        queries = demo_queries(app.server.engine, 4)
        envelope = protocol.request_envelope(
            "classify", protocol.encode_classify_request(queries))
        remote = protocol.decode_classify_response(
            unwrap(post(app, "/v1/classify", envelope)))
        with ServeClient(build_demo_engine(**GEOMETRY)) as reference:
            expected = reference.infer_many(queries)
        assert np.array_equal(remote, expected)

    def test_classify_empty_batch(self, app):
        envelope = protocol.request_envelope(
            "classify", protocol.encode_classify_request(
                np.empty((0, GEOMETRY["input_dim"]))))
        logits = protocol.decode_classify_response(
            unwrap(post(app, "/v1/classify", envelope)))
        assert logits.shape == (0, GEOMETRY["classes"])

    def test_topk_matches_inprocess(self, app):
        queries = demo_queries(app.server.engine, 3)
        envelope = protocol.request_envelope(
            "topk", protocol.encode_topk_request(queries, 4))
        rows = protocol.decode_topk_response(
            unwrap(post(app, "/v1/topk", envelope)))
        with ServeClient(build_demo_engine(**GEOMETRY)) as reference:
            indices, distances = reference.topk_many(queries, 4)
        assert np.array_equal(rows[:, :4].astype(np.int64), indices)
        assert np.array_equal(rows[:, 4:].astype(np.int64), distances)

    def test_unknown_route_is_404(self, app):
        error = unwrap(app.handle("GET", "/v1/nonsense"))
        assert error.code == "not_found"

    def test_wrong_method_is_405(self, app):
        error = unwrap(app.handle("GET", "/v1/classify"))
        assert error.code == "method_not_allowed"

    def test_wrong_media_type_is_415(self, app):
        response = app.handle("POST", "/v1/classify",
                              {"Content-Type": "text/plain"}, b"hi")
        assert unwrap(response).code == "unsupported_media"

    def test_malformed_body_is_bad_request(self, app):
        response = app.handle("POST", "/v1/classify",
                              {"Content-Type": JSON}, b"{broken")
        assert unwrap(response).code == "bad_request"

    def test_version_mismatch_is_unsupported_version(self, app):
        envelope = protocol.request_envelope("classify", {})
        envelope["v"] = 99
        assert unwrap(post(app, "/v1/classify", envelope)).code == (
            "unsupported_version")

    def test_stopped_server_is_shutting_down(self, app):
        queries = demo_queries(app.server.engine, 1)
        app.server.stop(drain=True)
        envelope = protocol.request_envelope(
            "classify", protocol.encode_classify_request(queries))
        error = unwrap(post(app, "/v1/classify", envelope))
        assert error.code == "shutting_down" and error.status == 503

    def test_shard_routes_absent_on_serve_plane(self, app):
        error = unwrap(app.handle("GET", "/v1/shard/info"))
        assert error.code == "not_found"


class TestShardPlaneRoutes:
    @pytest.fixture
    def app(self):
        return NetApp(shard_rows=8, word_bits=128)

    @pytest.fixture
    def loaded(self, app, rng):
        bits = rng.integers(0, 2, size=(8, 128)).astype(np.uint8)
        envelope = protocol.request_envelope(
            "shard_write", protocol.encode_shard_write_request(
                bits, 0, np.arange(8, dtype=np.int64), 8))
        unwrap(post(app, "/v1/shard/write", envelope))
        return app, bits

    def packed_queries(self, app, rng, n=3):
        bits = rng.integers(0, 2, size=(n, 128)).astype(np.uint8)
        return pack_bits(bits), bits

    def test_healthz_and_info(self, app):
        assert unwrap(app.handle("GET", "/v1/healthz"))["plane"] == "shard"
        info = unwrap(app.handle("GET", "/v1/shard/info"))
        assert info["rows"] == 8 and info["word_bits"] == 128

    def test_write_then_search_json(self, loaded, rng):
        app, bits = loaded
        packed, query_bits = self.packed_queries(app, rng)
        envelope = protocol.request_envelope(
            "shard_search", protocol.encode_shard_search_request(packed))
        counts, energy, latency = protocol.decode_shard_search_response(
            unwrap(post(app, "/v1/shard/search", envelope)))
        expected = (query_bits[:, None, :] != bits[None, :, :]).sum(axis=2)
        assert np.array_equal(counts, expected)
        assert energy > 0 and latency > 0

    def test_search_frame_round_trip(self, loaded, rng):
        app, bits = loaded
        packed, query_bits = self.packed_queries(app, rng)
        frame = protocol.encode_array_frame("shard_search", packed)
        status, content_type, body = app.handle(
            "POST", "/v1/shard/search", {"Content-Type": FRAME}, frame)
        assert status == 200 and content_type == FRAME
        counts, header = protocol.decode_array_frame(
            body, kind="shard_counts", dtype="int64", ndim=2)
        expected = (query_bits[:, None, :] != bits[None, :, :]).sum(axis=2)
        assert np.array_equal(counts, expected)
        assert header["energy_pj"] > 0

    def test_topk_json_and_frame_agree(self, loaded, rng):
        app, _ = loaded
        packed, _ = self.packed_queries(app, rng)
        envelope = protocol.request_envelope(
            "shard_topk", protocol.encode_shard_topk_request(packed, 3))
        indices, raw, _, _ = protocol.decode_shard_topk_response(
            unwrap(post(app, "/v1/shard/topk", envelope)))
        frame = protocol.encode_array_frame("shard_topk", packed,
                                            extra={"k": 3})
        status, content_type, body = app.handle(
            "POST", "/v1/shard/topk", {"Content-Type": FRAME}, frame)
        assert status == 200 and content_type == FRAME
        stacked, _ = protocol.decode_array_frame(
            body, kind="shard_candidates", dtype="int64", ndim=3)
        assert np.array_equal(stacked[0], indices)
        assert np.array_equal(stacked[1], raw)

    def test_topk_returns_global_ids(self, app, rng):
        # Placement offset 100..107: the candidates must come back in
        # global ids, not local row numbers.
        bits = rng.integers(0, 2, size=(8, 128)).astype(np.uint8)
        envelope = protocol.request_envelope(
            "shard_write", protocol.encode_shard_write_request(
                bits, 0, np.arange(100, 108, dtype=np.int64), 200))
        unwrap(post(app, "/v1/shard/write", envelope))
        packed, _ = self.packed_queries(app, rng, n=1)
        request = protocol.request_envelope(
            "shard_topk", protocol.encode_shard_topk_request(packed, 8))
        indices, _, _, _ = protocol.decode_shard_topk_response(
            unwrap(post(app, "/v1/shard/topk", request)))
        assert set(indices.ravel()) <= set(range(100, 108))

    def test_topk_frame_requires_k(self, loaded, rng):
        app, _ = loaded
        packed, _ = self.packed_queries(app, rng)
        frame = protocol.encode_array_frame("shard_topk", packed)
        response = app.handle("POST", "/v1/shard/topk",
                              {"Content-Type": FRAME}, frame)
        assert unwrap(response).code == "bad_request"

    def test_write_replay_is_idempotent(self, app, rng):
        bits = rng.integers(0, 2, size=(4, 128)).astype(np.uint8)
        envelope = protocol.request_envelope(
            "shard_write", protocol.encode_shard_write_request(
                bits, 0, np.arange(4, dtype=np.int64), 8))
        headers = {IDEMPOTENCY_HEADER: "write-1"}
        first = unwrap(post(app, "/v1/shard/write", envelope,
                            headers=headers))
        again = unwrap(post(app, "/v1/shard/write", envelope,
                            headers=headers))
        assert again == first
        # Replay answered from the cache: one write, not two.
        assert app.shard.info()["writes"] == 1
        assert app.stats()["replayed"] == 1

    def test_distinct_keys_both_execute(self, app, rng):
        bits = rng.integers(0, 2, size=(4, 128)).astype(np.uint8)
        for row, key in ((0, "a"), (4, "b")):
            envelope = protocol.request_envelope(
                "shard_write", protocol.encode_shard_write_request(
                    bits, row, np.arange(row, row + 4, dtype=np.int64), 8))
            unwrap(post(app, "/v1/shard/write", envelope,
                        headers={IDEMPOTENCY_HEADER: key}))
        assert app.shard.info()["writes"] == 2

    def test_idempotency_cache_is_bounded(self, app, rng):
        bits = rng.integers(0, 2, size=(1, 128)).astype(np.uint8)
        for index in range(IDEMPOTENCY_CACHE_SIZE + 16):
            envelope = protocol.request_envelope(
                "shard_write", protocol.encode_shard_write_request(
                    bits, 0, np.zeros(1, dtype=np.int64), 8))
            unwrap(post(app, "/v1/shard/write", envelope,
                        headers={IDEMPOTENCY_HEADER: f"key-{index}"}))
        assert len(app._idempotent) == IDEMPOTENCY_CACHE_SIZE

    def test_serve_routes_absent_on_shard_plane(self, app):
        envelope = protocol.request_envelope("classify", {})
        assert unwrap(post(app, "/v1/classify", envelope)).code == "not_found"


class TestNetServerLifecycle:
    def test_start_stop_and_base_url(self):
        server = NetServer(shard_rows=4, word_bits=128)
        with pytest.raises(RuntimeError):
            server.base_url
        server.start()
        assert server.running and server.base_url.startswith("http://127.0.0.1:")
        with pytest.raises(RuntimeError):
            server.start()
        server.stop()
        assert not server.running

    def test_context_manager_owns_micro_batch_server(self):
        with NetServer(engine=build_demo_engine(**GEOMETRY)) as server:
            micro = server.app.server
            assert micro.running
        assert not micro.running

    def test_stats_passthrough(self):
        with NetServer(shard_rows=4, word_bits=128) as server:
            with NetClient(server.base_url) as client:
                client.healthz()
            assert server.stats()["requests"] >= 1


def raw_exchange(base_url, request, timeout_s=5.0):
    """Send raw request bytes; read until the server closes the socket."""
    host, port = base_url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=timeout_s) as sock:
        sock.settimeout(timeout_s)
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestHandlerSocket:
    @pytest.mark.parametrize("length", ["abc", "-1", "1.5"])
    def test_malformed_content_length_is_bad_request_then_close(self, length):
        with NetServer(shard_rows=4, word_bits=128) as server:
            request = (f"POST /v1/shard/search HTTP/1.1\r\n"
                       f"Host: localhost\r\n"
                       f"Content-Type: {JSON}\r\n"
                       f"Content-Length: {length}\r\n\r\n").encode()
            # Returns only once the server closes the connection; a
            # handler stuck reading the body would hit the timeout.
            reply = raw_exchange(server.base_url, request)
        head, _, body = reply.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        assert status_line.split()[1] == "400"
        assert "connection: close" in (line.lower() for line in header_lines)
        with pytest.raises(protocol.WireError) as excinfo:
            protocol.parse_response(protocol.loads(body))
        assert excinfo.value.code == "bad_request"
        assert length in excinfo.value.message

    def test_accepted_connections_disable_nagle(self):
        # Nagle on the accepted socket stalls every response on the
        # client's delayed ACK; the option itself is the deterministic
        # witness (no wall-clock bound).
        with NetServer(engine=build_demo_engine(**GEOMETRY)) as server:
            with NetClient(server.base_url) as client:
                client.infer_many(demo_queries(server.app.server.engine, 2))
                httpd = server._httpd
                with httpd._connections_lock:
                    connections = list(httpd._connections)
                assert connections
                for connection in connections:
                    assert connection.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


class TestNetClientLoopback:
    @pytest.fixture
    def serve_server(self):
        with NetServer(engine=build_demo_engine(**GEOMETRY)) as server:
            yield server

    def test_requires_exactly_one_of_url_or_transport(self):
        with pytest.raises(ValueError):
            NetClient()

    def test_infer_bit_identical_to_inprocess(self, serve_server):
        queries = demo_queries(serve_server.app.server.engine, 5)
        with ServeClient(build_demo_engine(**GEOMETRY)) as reference:
            expected = reference.infer_many(queries)
            single = reference.infer(queries[0])
        with NetClient(serve_server.base_url) as client:
            assert np.array_equal(client.infer_many(queries), expected)
            assert np.array_equal(client.infer(queries[0]), single)

    def test_topk_bit_identical_to_inprocess(self, serve_server):
        queries = demo_queries(serve_server.app.server.engine, 4)
        with ServeClient(build_demo_engine(**GEOMETRY)) as reference:
            expected_i, expected_d = reference.topk_many(queries, 3)
        with NetClient(serve_server.base_url) as client:
            indices, distances = client.topk_many(queries, 3)
            assert np.array_equal(indices, expected_i)
            assert np.array_equal(distances, expected_d)
            one_i, one_d = client.topk(queries[0], 3)
            assert np.array_equal(one_i, expected_i[0])
            assert np.array_equal(one_d, expected_d[0])

    def test_healthz_metrics_stats(self, serve_server):
        with NetClient(serve_server.base_url) as client:
            assert client.healthz()["plane"] == "serve"
            metrics = client.metrics()
            assert metrics["net"]["requests"] >= 1
            stats = client.stats()
            assert stats["retry"]["requests"] >= 2
            assert stats["requests"] >= 2  # pooled transport counter

    def test_server_errors_surface_as_wire_errors(self, serve_server):
        with NetClient(serve_server.base_url) as client:
            with pytest.raises(protocol.WireError) as excinfo:
                client._call("GET", "/v1/nonsense")
            assert excinfo.value.code == "not_found"


class TestAsyncNetClientLoopback:
    def test_matches_sync_client(self):
        with NetServer(engine=build_demo_engine(**GEOMETRY)) as server:
            queries = demo_queries(server.app.server.engine, 3)
            with NetClient(server.base_url) as sync_client:
                expected_logits = sync_client.infer_many(queries)
                expected_i, expected_d = sync_client.topk_many(queries, 3)

            async def scenario():
                async with AsyncNetClient(server.base_url) as client:
                    logits = await client.infer_many(queries)
                    one = await client.infer(queries[0])
                    indices, distances = await client.topk_many(queries, 3)
                    one_i, one_d = await client.topk(queries[0], 3)
                    health = await client.healthz()
                    metrics = await client.metrics()
                    stats = client.stats()
                return (logits, one, indices, distances, one_i, one_d,
                        health, metrics, stats)

            (logits, one, indices, distances, one_i, one_d, health, metrics,
             stats) = asyncio.run(scenario())
            assert np.array_equal(logits, expected_logits)
            assert np.array_equal(one, expected_logits[0])
            assert np.array_equal(indices, expected_i)
            assert np.array_equal(distances, expected_d)
            assert np.array_equal(one_i, expected_i[0])
            assert np.array_equal(one_d, expected_d[0])
            assert health["plane"] == "serve"
            assert metrics["net"]["requests"] >= 1
            assert stats["retry"]["requests"] >= 1

    def test_concurrent_requests_on_one_client(self):
        with NetServer(engine=build_demo_engine(**GEOMETRY)) as server:
            queries = demo_queries(server.app.server.engine, 6)
            with ServeClient(build_demo_engine(**GEOMETRY)) as reference:
                expected = reference.infer_many(queries)

            async def scenario():
                async with AsyncNetClient(server.base_url) as client:
                    rows = await asyncio.gather(
                        *(client.infer(query) for query in queries))
                return np.stack(rows)

            assert np.array_equal(asyncio.run(scenario()), expected)
