"""Transport-layer tests: retry/backoff determinism, fault injection, pooling.

The retry tests never sleep for real: ``RetryingTransport`` takes an
injected rng and sleep, so attempt counts and the exact jittered delay
sequence are pinned, not sampled.
"""

from __future__ import annotations

import random
import socket
import threading

import pytest

from repro.net import protocol
from repro.net.server import NetServer
from repro.net.transport import (
    IDEMPOTENCY_HEADER,
    ConnectError,
    FlakyConfig,
    FlakyTransport,
    HttpTransport,
    RetryBudgetExhausted,
    RetryPolicy,
    RetryingTransport,
    TransportError,
    TransportResponse,
)


def ok_response(status: int = 200) -> TransportResponse:
    return TransportResponse(
        status=status,
        headers={"content-type": protocol.CONTENT_TYPE_JSON},
        body=protocol.dumps(protocol.ok_envelope({})),
    )


class ScriptedTransport:
    """Replays a script of responses/exceptions and records every attempt."""

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
        return {"scripted_calls": len(self.calls)}


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=0.5, max_delay_s=0.1)
        with pytest.raises(ValueError):
            RetryPolicy(budget_s=-1.0)

    def test_next_delay_decorrelated_jitter(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=1.0)
        rng = random.Random(7)
        reference = random.Random(7)
        delay = policy.base_delay_s
        for _ in range(6):
            expected = min(1.0, reference.uniform(0.1, max(0.1, 3.0 * delay)))
            delay = policy.next_delay(delay, rng)
            assert delay == expected
            assert 0.1 <= delay <= 1.0


class TestRetryingTransport:
    def make(self, script, **policy_kw):
        inner = ScriptedTransport(script)
        sleeps = []
        transport = RetryingTransport(
            inner,
            policy=RetryPolicy(**{"base_delay_s": 0.01, "max_delay_s": 0.05,
                                  **policy_kw}),
            rng=random.Random(0),
            sleep=sleeps.append,
            key_factory=lambda: "fixed-key",
        )
        return transport, inner, sleeps

    def test_success_first_attempt_no_sleep(self):
        transport, inner, sleeps = self.make([ok_response()])
        response = transport.send("POST", "/v1/classify", b"{}")
        assert response.status == 200
        assert len(inner.calls) == 1 and sleeps == []

    def test_retries_connect_errors_then_succeeds(self):
        transport, inner, sleeps = self.make(
            [ConnectError("down"), ConnectError("down"), ok_response()])
        response = transport.send("POST", "/p", b"")
        assert response.status == 200
        assert len(inner.calls) == 3 and len(sleeps) == 2
        assert transport.stats()["retry"]["retries"] == 2

    def test_retries_retryable_statuses(self):
        transport, inner, _ = self.make([ok_response(503), ok_response(429),
                                         ok_response(200)])
        assert transport.send("GET", "/p").status == 200
        assert len(inner.calls) == 3

    def test_non_retryable_status_returned_as_is(self):
        transport, inner, sleeps = self.make([ok_response(404)])
        assert transport.send("GET", "/missing").status == 404
        assert len(inner.calls) == 1 and sleeps == []

    def test_exact_attempt_count_on_exhaustion(self):
        transport, inner, sleeps = self.make(
            [ConnectError(f"down {i}") for i in range(10)], max_attempts=4)
        with pytest.raises(RetryBudgetExhausted) as excinfo:
            transport.send("POST", "/p", b"")
        assert excinfo.value.attempts == 4
        assert isinstance(excinfo.value.last_error, ConnectError)
        assert len(inner.calls) == 4 and len(sleeps) == 3
        assert transport.stats()["retry"]["exhausted"] == 1

    def test_jittered_delay_sequence_is_pinned(self):
        transport, _, sleeps = self.make(
            [ConnectError("down")] * 4, max_attempts=4,
            base_delay_s=0.01, max_delay_s=10.0)
        with pytest.raises(RetryBudgetExhausted):
            transport.send("POST", "/p", b"")
        # Recompute the decorrelated-jitter chain with the same seed.
        reference = random.Random(0)
        delay, expected = 0.01, []
        for _ in range(3):
            delay = min(10.0, reference.uniform(0.01, max(0.01, 3.0 * delay)))
            expected.append(delay)
        assert sleeps == expected

    def test_wall_clock_budget_stops_before_max_attempts(self):
        transport, inner, sleeps = self.make(
            [ConnectError("down")] * 50, max_attempts=50,
            base_delay_s=0.05, max_delay_s=0.05, budget_s=0.12)
        with pytest.raises(RetryBudgetExhausted) as excinfo:
            transport.send("POST", "/p", b"")
        # Fixed 0.05 s delays: two fit in the 0.12 s budget, the third
        # would overflow it, so exactly 3 attempts run.
        assert excinfo.value.attempts == 3
        assert len(inner.calls) == 3 and sleeps == [0.05, 0.05]

    def test_idempotency_key_stable_across_attempts(self):
        transport, inner, _ = self.make(
            [ConnectError("down"), ok_response(503), ok_response()])
        transport.send("POST", "/p", b"")
        keys = {call[3][IDEMPOTENCY_HEADER] for call in inner.calls}
        assert keys == {"fixed-key"}

    def test_caller_supplied_key_wins(self):
        transport, inner, _ = self.make([ok_response()])
        transport.send("POST", "/p", b"", idempotency_key="mine")
        assert inner.calls[0][3][IDEMPOTENCY_HEADER] == "mine"

    def test_fresh_key_per_logical_request(self):
        counter = iter(range(100))
        inner = ScriptedTransport([ok_response(), ok_response()])
        transport = RetryingTransport(
            inner, policy=RetryPolicy(), rng=random.Random(0),
            sleep=lambda _: None, key_factory=lambda: f"key-{next(counter)}")
        transport.send("POST", "/p", b"")
        transport.send("POST", "/p", b"")
        assert inner.calls[0][3][IDEMPOTENCY_HEADER] == "key-0"
        assert inner.calls[1][3][IDEMPOTENCY_HEADER] == "key-1"

    def test_send_once_is_the_retried_surface(self):
        transport, inner, _ = self.make([ConnectError("down"), ok_response()])
        assert transport.send_once("GET", "/p").status == 200
        assert len(inner.calls) == 2

    def test_stats_merge_inner(self):
        transport, _, _ = self.make([ok_response()])
        transport.send("GET", "/p")
        stats = transport.stats()
        assert stats["scripted_calls"] == 1
        assert stats["retry"]["requests"] == 1


class TestFlakyTransport:
    def test_deterministic_fault_sequence(self):
        # Same seed, same config => identical injected fault pattern.
        def run(seed):
            inner = ScriptedTransport([ok_response()] * 64)
            flaky = FlakyTransport(
                inner, FlakyConfig(drop_rate=0.3, error_rate=0.3), seed=seed)
            pattern = []
            for _ in range(32):
                try:
                    pattern.append(flaky.send_once("GET", "/p").status)
                except ConnectError:
                    pattern.append("drop")
            return pattern

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_drops_raise_connect_error(self):
        flaky = FlakyTransport(ScriptedTransport([]),
                               FlakyConfig(drop_rate=1.0), seed=0)
        with pytest.raises(ConnectError):
            flaky.send_once("GET", "/p")
        assert flaky.stats()["injected"]["dropped"] == 1

    def test_errors_return_unavailable_envelope(self):
        flaky = FlakyTransport(ScriptedTransport([]),
                               FlakyConfig(error_rate=1.0), seed=0)
        response = flaky.send_once("GET", "/p")
        assert response.status == 503
        with pytest.raises(protocol.WireError) as excinfo:
            protocol.parse_response(response.json())
        assert excinfo.value.code == "unavailable"

    def test_delays_use_injected_sleep(self):
        sleeps = []
        flaky = FlakyTransport(
            ScriptedTransport([ok_response()]),
            FlakyConfig(delay_rate=1.0, delay_s=0.5), seed=0,
            sleep=sleeps.append)
        assert flaky.send_once("GET", "/p").status == 200
        assert sleeps == [0.5]
        assert flaky.stats()["injected"]["delayed"] == 1

    def test_kill_and_revive(self):
        flaky = FlakyTransport(ScriptedTransport([ok_response()]), seed=0)
        flaky.kill()
        assert flaky.dead
        with pytest.raises(ConnectError):
            flaky.send_once("GET", "/p")
        flaky.revive()
        assert flaky.send_once("GET", "/p").status == 200

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlakyConfig(drop_rate=1.5)
        with pytest.raises(ValueError):
            FlakyConfig(delay_s=-1.0)

    def test_under_retry_layer_recovers(self):
        # The intended stacking: seeded faults below, retry loop above.
        inner = ScriptedTransport([ok_response()] * 40)
        flaky = FlakyTransport(inner, FlakyConfig(drop_rate=0.5), seed=3)
        retrying = RetryingTransport(
            flaky, policy=RetryPolicy(max_attempts=8, base_delay_s=0.001,
                                      max_delay_s=0.001),
            rng=random.Random(0), sleep=lambda _: None)
        for _ in range(10):
            assert retrying.send("GET", "/p").status == 200
        stats = retrying.stats()
        assert stats["injected"]["dropped"] > 0
        assert stats["retry"]["retries"] == stats["injected"]["dropped"]


class TestHttpTransport:
    def test_rejects_bad_urls_and_timeouts(self):
        with pytest.raises(ValueError):
            HttpTransport("ftp://host")
        with pytest.raises(ValueError):
            HttpTransport("http:///nohost")
        with pytest.raises(ValueError):
            HttpTransport("http://h", connect_timeout_s=0)

    def test_connect_error_on_unbound_port(self):
        # Reserve a port, close it, and dial it: nothing listens there.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        transport = HttpTransport(f"http://127.0.0.1:{port}",
                                  connect_timeout_s=0.5, read_timeout_s=0.5)
        with pytest.raises(ConnectError):
            transport.send_once("GET", "/v1/healthz")

    def test_keep_alive_pooling_and_stats(self, shard_server):
        transport = HttpTransport(shard_server.base_url)
        try:
            for _ in range(3):
                response = transport.send_once("GET", "/v1/healthz")
                assert response.status == 200
            stats = transport.stats()
            assert stats["requests"] == 3
            # All three rode the same pooled connection.
            assert stats["reconnects"] == 0
        finally:
            transport.close()

    def test_connections_disable_nagle(self, shard_server):
        transport = HttpTransport(shard_server.base_url)
        try:
            assert transport.send_once("GET", "/v1/healthz").status == 200
            sock = transport._conn.sock
            assert sock.getsockopt(socket.IPPROTO_TCP,
                                   socket.TCP_NODELAY) != 0
        finally:
            transport.close()

    def test_silent_reconnect_after_server_restart(self, shard_server):
        transport = HttpTransport(shard_server.base_url)
        try:
            assert transport.send_once("GET", "/v1/healthz").status == 200
            # Sever every kept-alive socket server-side; the pooled
            # connection is now stale and the next attempt must silently
            # reconnect instead of failing.
            shard_server._httpd.close_connections()
            assert transport.send_once("GET", "/v1/healthz").status == 200
            assert transport.stats()["reconnects"] == 1
        finally:
            transport.close()

    def test_thread_safety_under_contention(self, shard_server):
        transport = HttpTransport(shard_server.base_url)
        failures = []

        def worker():
            try:
                for _ in range(5):
                    if transport.send_once("GET", "/v1/healthz").status != 200:
                        failures.append("bad status")
            except Exception as error:  # pragma: no cover - failure path
                failures.append(repr(error))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        transport.close()
        assert failures == []


@pytest.fixture
def shard_server():
    """A small live shard-plane server on a loopback port."""
    server = NetServer(shard_rows=8, word_bits=256)
    server.start()
    try:
        yield server
    finally:
        server.stop()
