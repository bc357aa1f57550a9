"""NetApp routing (socket-free), live NetServer loopback, and both clients.

The bit-identity oracle throughout: a remote answer must ``array_equal``
what an in-process ``ServeClient`` on an identically-seeded engine
returns -- the network layer adds transport, never arithmetic.
"""

from __future__ import annotations

import asyncio
import base64
import socket
import struct

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


def post(app, path, frame, content_type=FRAME, headers=None):
    merged = {"Content-Type": content_type, **(headers or {})}
    return app.handle("POST", path, merged, frame)


def answer(response, kind):
    """The fields of a frame route's successful answer."""
    status, content_type, body = response
    assert status == 200 and content_type == FRAME
    return protocol.decode(f"{kind}.response", body)


def with_header(frame, **changes):
    """``frame`` re-assembled with header fields replaced or dropped."""
    (head_len,) = struct.unpack_from("<I", frame, 4)
    header = protocol.loads(frame[8: 8 + head_len])
    for name, value in changes.items():
        if value is None:
            header.pop(name)
        else:
            header[name] = value
    head = protocol.dumps(header)
    return b"".join((frame[:4], struct.pack("<I", len(head)), head,
                     frame[8 + head_len:]))


def v1_search_frame(packed):
    """A shard search frame exactly as a protocol-1 peer sent it."""
    head = protocol.dumps({"v": 1, "kind": "shard_search", "dtype": "uint64",
                           "shape": list(packed.shape)})
    return b"".join((b"RPN1", struct.pack("<I", len(head)), head,
                     struct.pack("<I", packed.nbytes), packed.tobytes()))


def v1_json_body(kind, **arrays):
    """A protocol-1 JSON request envelope with base64 array fields."""
    payload = {name: {"dtype": array.dtype.name, "shape": list(array.shape),
                      "encoding": "b64",
                      "data": base64.b64encode(array.tobytes()).decode()}
               for name, array in arrays.items()}
    return protocol.dumps({"v": 1, "kind": kind, "payload": payload})


def write_frame(bits, start_row, global_ids, id_bound):
    return protocol.encode("shard_write.request", bits=bits,
                           start_row=start_row, global_ids=global_ids,
                           id_bound=id_bound)


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
        remote = answer(post(app, "/v1/classify",
                             protocol.encode_classify_request(queries)),
                        "classify")["logits"]
        with ServeClient(build_demo_engine(**GEOMETRY)) as reference:
            expected = reference.infer_many(queries)
        assert np.array_equal(remote, expected)

    def test_classify_empty_batch(self, app):
        frame = protocol.encode_classify_request(
            np.empty((0, GEOMETRY["input_dim"])))
        logits = answer(post(app, "/v1/classify", frame),
                        "classify")["logits"]
        assert logits.shape == (0, GEOMETRY["classes"])

    def test_topk_matches_inprocess(self, app):
        queries = demo_queries(app.server.engine, 3)
        frame = protocol.encode("topk.request", samples=queries, k=4)
        rows = answer(post(app, "/v1/topk", frame), "topk")["rows"]
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

    @pytest.mark.parametrize("path, body", [
        ("/v1/classify", v1_json_body("classify", samples=np.zeros((1, 32)))),
        ("/v1/topk", v1_json_body("topk", samples=np.zeros((1, 32)))),
    ], ids=["classify", "topk"])
    def test_json_body_is_unsupported_media(self, app, path, body):
        response = app.handle("POST", path, {"Content-Type": JSON}, body)
        error = unwrap(response)
        assert error.code == "unsupported_media" and error.status == 415

    def test_malformed_body_is_bad_request(self, app):
        response = post(app, "/v1/classify", b"{broken")
        assert unwrap(response).code == "bad_request"

    def test_frame_of_another_kind_is_bad_request(self, app):
        frame = protocol.encode("topk.request", samples=np.zeros((1, 32)), k=1)
        assert unwrap(post(app, "/v1/classify", frame)).code == "bad_request"

    def test_version_mismatch_is_unsupported_version(self, app):
        frame = with_header(protocol.encode_classify_request(
            np.zeros((1, GEOMETRY["input_dim"]))), v=99)
        assert unwrap(post(app, "/v1/classify", frame)).code == (
            "unsupported_version")

    def test_stopped_server_is_shutting_down(self, app):
        queries = demo_queries(app.server.engine, 1)
        app.server.stop(drain=True)
        error = unwrap(post(app, "/v1/classify",
                            protocol.encode_classify_request(queries)))
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
        written = answer(post(app, "/v1/shard/write",
                              write_frame(bits, 0, np.arange(8), 8)),
                         "shard_write")
        assert written["rows_written"] == 8 and written["energy_pj"] > 0
        return app, bits

    def packed_queries(self, app, rng, n=3):
        bits = rng.integers(0, 2, size=(n, 128)).astype(np.uint8)
        return pack_bits(bits), bits

    def test_healthz_and_info(self, app):
        assert unwrap(app.handle("GET", "/v1/healthz"))["plane"] == "shard"
        info = unwrap(app.handle("GET", "/v1/shard/info"))
        assert info["rows"] == 8 and info["word_bits"] == 128

    def test_write_then_search(self, loaded, rng):
        app, bits = loaded
        packed, query_bits = self.packed_queries(app, rng)
        result = answer(post(app, "/v1/shard/search", protocol.encode(
            "shard_search.request", packed=packed)), "shard_search")
        expected = (query_bits[:, None, :] != bits[None, :, :]).sum(axis=2)
        assert np.array_equal(result["counts"], expected)
        assert result["energy_pj"] > 0 and result["latency_cycles"] > 0

    def test_topk_candidates_match_search(self, loaded, rng):
        app, bits = loaded
        packed, query_bits = self.packed_queries(app, rng)
        result = answer(post(app, "/v1/shard/topk", protocol.encode(
            "shard_topk.request", packed=packed, k=3)), "shard_topk")
        expected = (query_bits[:, None, :] != bits[None, :, :]).sum(axis=2)
        order = np.argsort(expected, axis=1, kind="stable")[:, :3]
        assert np.array_equal(result["indices"], order)
        assert np.array_equal(result["raw"],
                              np.take_along_axis(expected, order, axis=1))

    def test_topk_returns_global_ids(self, app, rng):
        # Placement offset 100..107: the candidates must come back in
        # global ids, not local row numbers.
        bits = rng.integers(0, 2, size=(8, 128)).astype(np.uint8)
        answer(post(app, "/v1/shard/write",
                    write_frame(bits, 0, np.arange(100, 108), 200)),
               "shard_write")
        packed, _ = self.packed_queries(app, rng, n=1)
        indices = answer(post(app, "/v1/shard/topk", protocol.encode(
            "shard_topk.request", packed=packed, k=8)),
            "shard_topk")["indices"]
        assert set(indices.ravel()) <= set(range(100, 108))

    def test_topk_frame_requires_k(self, loaded, rng):
        app, _ = loaded
        packed, _ = self.packed_queries(app, rng)
        frame = with_header(protocol.encode(
            "shard_topk.request", packed=packed, k=3), k=None)
        response = post(app, "/v1/shard/topk", frame)
        assert unwrap(response).code == "bad_request"

    @pytest.mark.parametrize("path, body", [
        ("/v1/shard/write", v1_json_body(
            "shard_write", bits=np.zeros((1, 128), dtype=np.uint8),
            global_ids=np.zeros(1, dtype=np.int64))),
        ("/v1/shard/search", v1_json_body(
            "shard_search", packed=np.zeros((1, 2), dtype=np.uint64))),
        ("/v1/shard/topk", v1_json_body(
            "shard_topk", packed=np.zeros((1, 2), dtype=np.uint64))),
    ], ids=["write", "search", "topk"])
    def test_json_body_is_unsupported_media(self, app, path, body):
        response = app.handle("POST", path, {"Content-Type": JSON}, body)
        error = unwrap(response)
        assert error.code == "unsupported_media" and error.status == 415

    def test_v1_frame_is_unsupported_version(self, loaded, rng):
        app, _ = loaded
        packed, _ = self.packed_queries(app, rng)
        response = post(app, "/v1/shard/search", v1_search_frame(packed))
        assert unwrap(response).code == "unsupported_version"

    def test_write_replay_is_idempotent(self, app, rng):
        bits = rng.integers(0, 2, size=(4, 128)).astype(np.uint8)
        frame = write_frame(bits, 0, np.arange(4), 8)
        headers = {IDEMPOTENCY_HEADER: "write-1"}
        first = answer(post(app, "/v1/shard/write", frame, headers=headers),
                       "shard_write")
        again = answer(post(app, "/v1/shard/write", frame, headers=headers),
                       "shard_write")
        assert again == first
        # Replay answered from the cache: one write, not two.
        assert app.shard.info()["writes"] == 1
        assert app.stats()["replayed"] == 1

    def test_distinct_keys_both_execute(self, app, rng):
        bits = rng.integers(0, 2, size=(4, 128)).astype(np.uint8)
        for row, key in ((0, "a"), (4, "b")):
            frame = write_frame(bits, row, np.arange(row, row + 4), 8)
            answer(post(app, "/v1/shard/write", frame,
                        headers={IDEMPOTENCY_HEADER: key}), "shard_write")
        assert app.shard.info()["writes"] == 2

    def test_idempotency_cache_is_bounded(self, app, rng):
        bits = rng.integers(0, 2, size=(1, 128)).astype(np.uint8)
        for index in range(IDEMPOTENCY_CACHE_SIZE + 16):
            answer(post(app, "/v1/shard/write",
                        write_frame(bits, 0, np.zeros(1), 8),
                        headers={IDEMPOTENCY_HEADER: f"key-{index}"}),
                   "shard_write")
        assert len(app._idempotent) == IDEMPOTENCY_CACHE_SIZE

    def test_serve_routes_absent_on_shard_plane(self, app):
        frame = protocol.encode_classify_request(np.zeros((1, 128)))
        assert unwrap(post(app, "/v1/classify", frame)).code == "not_found"


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

    def test_frame_route_errors_surface_as_wire_errors(self, serve_server):
        # A frame route answers its failure with a JSON error envelope.
        wrong_width = np.zeros((2, GEOMETRY["input_dim"] + 1))
        with NetClient(serve_server.base_url) as client:
            with pytest.raises(protocol.WireError) as excinfo:
                client.infer_many(wrong_width)
            assert excinfo.value.code == "bad_request"
            assert excinfo.value.status == 400


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
