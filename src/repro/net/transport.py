"""The transport core of the client SDK.

One retry/pooling engine under every client-side surface: the wire seam
of the shared client core (``NetClient``, which ``AsyncNetClient`` runs
off the event loop) and ``RemoteShardTransport``.  It is split into
three layers that stack through a single-method :class:`Transport`
protocol:

* :class:`HttpTransport` -- the only layer that owns sockets.  One pooled
  ``http.client.HTTPConnection`` per transport with HTTP/1.1 keep-alive,
  a connect/read timeout split (connect bounds ``sock.connect``, read
  bounds every later recv), and one silent reconnect when a kept-alive
  connection turns out to have been closed by the peer.
* :class:`FlakyTransport` -- deterministic fault injection for tests and
  smoke runs.  It wraps any transport and, from a seeded RNG, drops
  requests (:class:`ConnectError`), delays them, or replaces responses
  with 5xx.  It sits *below* the retry layer, so injected faults exercise
  the real retry path; ``kill()`` turns it into a dead replica.
* :class:`RetryingTransport` -- the retry loop.  Retries connect errors
  and retryable statuses (429/5xx) with exponential backoff and
  decorrelated jitter (``sleep = min(cap, uniform(base, prev * 3))``),
  bounded both by ``max_attempts`` and by a wall-clock *retry budget* per
  logical request; every attempt of one logical request carries the same
  generated ``Idempotency-Key`` header so servers can deduplicate
  non-idempotent retries.  The RNG and the sleep function are injectable,
  which is how the retry tests pin exact attempt counts and delays.

All layers expose ``stats()`` and the wrappers merge their numbers, so a
client snapshot shows requests, retries, injected faults and reconnects in
one dictionary.
"""

from __future__ import annotations

import http.client
import itertools
import random
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Protocol, Tuple
from urllib.parse import urlsplit

from repro.net import protocol

#: HTTP statuses the retry layer treats as transient.
DEFAULT_RETRY_STATUSES = (429, 500, 502, 503, 504)

#: Header that keys server-side retry deduplication.
IDEMPOTENCY_HEADER = "Idempotency-Key"


class TransportError(Exception):
    """A request failed below the protocol layer (socket or transient 5xx)."""


class ConnectError(TransportError):
    """The connection could not be established (or the peer dropped it)."""


class RetryBudgetExhausted(TransportError):
    """The retry layer gave up: attempts or wall-clock budget ran out."""

    def __init__(self, message: str, attempts: int,
                 last_error: Optional[Exception] = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


@dataclass(frozen=True)
class TransportResponse:
    """One HTTP response: status, lower-cased headers, raw body."""

    status: int
    headers: Mapping[str, str]
    body: bytes

    def json(self) -> Any:
        """The body parsed as JSON (raises ``WireError`` on damage)."""
        return protocol.loads(self.body)

    def frame(self) -> bytes:
        """The body of a frame route's answer.

        Frame routes answer failures with a JSON error envelope; this
        raises the typed ``WireError`` it reports.
        """
        if self.content_type != protocol.CONTENT_TYPE_FRAME:
            protocol.parse_response(self.json())
            raise protocol.WireError(
                "bad_request", f"expected a frame, got {self.content_type!r}")
        return self.body

    @property
    def content_type(self) -> str:
        """The declared media type, parameters stripped."""
        return self.headers.get("content-type", "").split(";")[0].strip()


@dataclass(frozen=True)
class RetryPolicy:
    """Retry shape of one logical request.

    ``budget_s`` bounds the *total* time a logical request may spend in
    backoff sleeps; once spent, the next would-be retry raises
    :class:`RetryBudgetExhausted` instead of sleeping.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    budget_s: float = 10.0
    retry_statuses: Tuple[int, ...] = DEFAULT_RETRY_STATUSES

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ValueError(
                "need 0 <= base_delay_s <= max_delay_s, got "
                f"{self.base_delay_s} / {self.max_delay_s}")
        if self.budget_s < 0:
            raise ValueError("budget_s must be >= 0")

    def next_delay(self, previous_s: float, rng: random.Random) -> float:
        """Decorrelated-jitter backoff: ``min(cap, U(base, 3 * prev))``."""
        low = self.base_delay_s
        high = max(low, 3.0 * previous_s)
        return min(self.max_delay_s, rng.uniform(low, high))


class Transport(Protocol):
    """One-attempt request sender; the retry layer stacks on top."""

    def send_once(self, method: str, path: str, body: bytes = b"",
                  headers: Optional[Mapping[str, str]] = None
                  ) -> TransportResponse:
        """Send one request attempt; raises :class:`TransportError`."""
        ...

    def close(self) -> None:
        """Release pooled connections."""
        ...

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot."""
        ...


class HttpTransport:
    """Pooled keep-alive HTTP/1.1 sender for one base URL.

    Thread-safe: one underlying connection guarded by a lock (callers that
    want request-level parallelism hold one transport per thread or per
    client; the shard fan-out does exactly that).
    """

    def __init__(self, base_url: str, connect_timeout_s: float = 5.0,
                 read_timeout_s: float = 30.0) -> None:
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(
                f"base_url must be http://host[:port], got {base_url!r}")
        if connect_timeout_s <= 0 or read_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        self.base_url = base_url.rstrip("/")
        self.host = parts.hostname
        self.port = parts.port if parts.port is not None else 80
        self.connect_timeout_s = float(connect_timeout_s)
        self.read_timeout_s = float(read_timeout_s)
        self._lock = threading.Lock()
        self._conn: Optional[http.client.HTTPConnection] = None
        self._requests = 0
        self._reconnects = 0

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.connect_timeout_s)
        try:
            conn.connect()
        except OSError as error:
            conn.close()
            raise ConnectError(
                f"cannot connect to {self.host}:{self.port}: {error}"
            ) from error
        # Connected: the remaining timeout governs reads, not the handshake.
        # A POST leaves as two send() calls (headers, then body); with
        # Nagle on, the body would wait out the peer's delayed ACK.
        # CPython's connect() already sets TCP_NODELAY; the transport
        # states it rather than rely on that.
        if conn.sock is not None:
            conn.sock.settimeout(self.read_timeout_s)
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def _send_on(self, conn: http.client.HTTPConnection, method: str,
                 path: str, body: bytes,
                 headers: Mapping[str, str]) -> TransportResponse:
        conn.request(method, path, body=body, headers=dict(headers))
        response = conn.getresponse()
        payload = response.read()
        return TransportResponse(
            status=response.status,
            headers={key.lower(): value
                     for key, value in response.getheaders()},
            body=payload,
        )

    def send_once(self, method: str, path: str, body: bytes = b"",
                  headers: Optional[Mapping[str, str]] = None
                  ) -> TransportResponse:
        """One attempt on the pooled connection.

        A kept-alive connection the peer already closed fails on reuse
        with an empty response or a reset; that one case gets a single
        silent reconnect (it is not a remote failure, just pool staleness)
        -- anything after that surfaces as :class:`ConnectError`.
        """
        request_headers = {"Connection": "keep-alive", **(headers or {})}
        with self._lock:
            self._requests += 1
            fresh = self._conn is None
            if self._conn is None:
                self._conn = self._connect()
            try:
                return self._send_on(self._conn, method, path, body,
                                     request_headers)
            except (http.client.BadStatusLine, http.client.CannotSendRequest,
                    BrokenPipeError, ConnectionResetError) as error:
                self._drop_connection()
                if fresh:
                    raise ConnectError(
                        f"{self.host}:{self.port} dropped the request: "
                        f"{error}") from error
                # Stale keep-alive: retry once on a fresh connection.
                self._reconnects += 1
                self._conn = self._connect()
                try:
                    return self._send_on(self._conn, method, path, body,
                                         request_headers)
                except OSError as retry_error:
                    self._drop_connection()
                    raise ConnectError(
                        f"{self.host}:{self.port} dropped the request "
                        f"after reconnect: {retry_error}") from retry_error
            except socket.timeout as error:
                self._drop_connection()
                raise TransportError(
                    f"read from {self.host}:{self.port} timed out after "
                    f"{self.read_timeout_s}s") from error
            except OSError as error:
                self._drop_connection()
                raise ConnectError(
                    f"request to {self.host}:{self.port} failed: {error}"
                ) from error

    def _drop_connection(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "base_url": self.base_url,
                "requests": self._requests,
                "reconnects": self._reconnects,
            }


@dataclass
class FlakyConfig:
    """Fault mix of a :class:`FlakyTransport` (all rates in ``[0, 1]``)."""

    drop_rate: float = 0.0
    error_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 0.0
    error_status: int = 503

    def __post_init__(self) -> None:
        for name in ("drop_rate", "error_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")


class FlakyTransport:
    """Deterministic fault injection around any transport.

    Faults are drawn from a seeded ``random.Random`` *below* the retry
    layer, so retry behaviour is exercised exactly as against a flaky
    network -- without killing processes in tier-1.  ``kill()`` makes
    every subsequent attempt a :class:`ConnectError` until ``revive()``,
    which is how the failover tests and the smoke run lose a replica.
    """

    def __init__(self, inner: Transport, config: Optional[FlakyConfig] = None,
                 seed: int = 0,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.inner = inner
        self.config = config if config is not None else FlakyConfig()
        self._rng = random.Random(seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._dead = False
        self._attempts = 0
        self._dropped = 0
        self._errored = 0
        self._delayed = 0

    def kill(self) -> None:
        """Turn the wrapped endpoint into a dead replica."""
        with self._lock:
            self._dead = True

    def revive(self) -> None:
        """Bring the wrapped endpoint back."""
        with self._lock:
            self._dead = False

    @property
    def dead(self) -> bool:
        with self._lock:
            return self._dead

    def send_once(self, method: str, path: str, body: bytes = b"",
                  headers: Optional[Mapping[str, str]] = None
                  ) -> TransportResponse:
        with self._lock:
            self._attempts += 1
            if self._dead:
                self._dropped += 1
                raise ConnectError(f"injected: endpoint is dead ({path})")
            config = self.config
            drop = self._rng.random() < config.drop_rate
            error = self._rng.random() < config.error_rate
            delay = self._rng.random() < config.delay_rate
            if drop:
                self._dropped += 1
            elif error:
                self._errored += 1
            if delay:
                self._delayed += 1
        if delay and config.delay_s > 0:
            self._sleep(config.delay_s)
        if drop:
            raise ConnectError(f"injected: dropped request ({path})")
        if error:
            return TransportResponse(
                status=config.error_status,
                headers={"content-type": protocol.CONTENT_TYPE_JSON},
                body=protocol.dumps(protocol.error_envelope(
                    "unavailable", "injected transient failure")),
            )
        return self.inner.send_once(method, path, body, headers)

    def close(self) -> None:
        self.inner.close()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            injected = {
                "attempts": self._attempts,
                "dropped": self._dropped,
                "errored": self._errored,
                "delayed": self._delayed,
                "dead": self._dead,
            }
        return {**self.inner.stats(), "injected": injected}


def _retry_after_hint(response: TransportResponse) -> Optional[float]:
    """The server's retry-after hint on a 429/5xx, if it sent one.

    Prefers the ``Retry-After`` header (decimal seconds); falls back to
    the JSON envelope's ``error.retry_after_s`` for transports that
    surface only the body (``NetApp.handle`` called directly).
    """
    header = response.headers.get("retry-after") if response.headers else None
    if header is not None:
        try:
            return max(0.0, float(header))
        except (TypeError, ValueError):
            pass
    if response.content_type == protocol.CONTENT_TYPE_JSON:
        try:
            error = protocol.loads(response.body).get("error", {})
            value = error.get("retry_after_s")
            if value is not None:
                return max(0.0, float(value))
        except Exception:  # noqa: BLE001 -- a hint, never a failure
            return None
    return None


class RetryingTransport:
    """Retries with backoff, jitter, a budget and idempotency keys.

    ``rng`` and ``sleep`` are injectable so tests can pin the jitter
    sequence and observe the exact sleeps instead of waiting them out.
    """

    def __init__(self, inner: Transport,
                 policy: Optional[RetryPolicy] = None,
                 rng: Optional[random.Random] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 key_factory: Optional[Callable[[], str]] = None) -> None:
        self.inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        self._keys = (key_factory if key_factory is not None
                      else lambda: uuid.uuid4().hex)
        self._lock = threading.Lock()
        self._requests = 0
        self._retries = 0
        self._exhausted = 0

    def send(self, method: str, path: str, body: bytes = b"",
             headers: Optional[Mapping[str, str]] = None,
             idempotency_key: Optional[str] = None) -> TransportResponse:
        """One *logical* request: retried until success or give-up.

        Every attempt carries the same ``Idempotency-Key`` (generated
        once here unless the caller supplies one), so a server that
        executed a request whose response was lost can replay its answer
        instead of re-executing.
        """
        policy = self.policy
        key = idempotency_key if idempotency_key is not None else self._keys()
        request_headers = {IDEMPOTENCY_HEADER: key, **(headers or {})}
        with self._lock:
            self._requests += 1
        slept = 0.0
        delay = policy.base_delay_s
        last_error: Optional[Exception] = None
        for attempt in itertools.count(1):
            retry_after: Optional[float] = None
            try:
                response = self.inner.send_once(method, path, body,
                                                request_headers)
            except TransportError as error:
                last_error = error
            else:
                if response.status not in policy.retry_statuses:
                    return response
                retry_after = _retry_after_hint(response)
                last_error = TransportError(
                    f"{method} {path} returned retryable status "
                    f"{response.status}")
            if attempt >= policy.max_attempts:
                with self._lock:
                    self._exhausted += 1
                raise RetryBudgetExhausted(
                    f"{method} {path} failed after {attempt} attempts: "
                    f"{last_error}", attempts=attempt, last_error=last_error)
            delay = policy.next_delay(delay, self._rng)
            if retry_after is not None:
                # A rate-limited server knows when its bucket refills;
                # sleeping less than its hint only burns attempts.  The
                # policy cap still bounds the sleep.
                delay = min(policy.max_delay_s, max(delay, retry_after))
            if slept + delay > policy.budget_s:
                with self._lock:
                    self._exhausted += 1
                raise RetryBudgetExhausted(
                    f"{method} {path} exhausted its {policy.budget_s}s retry "
                    f"budget after {attempt} attempts: {last_error}",
                    attempts=attempt, last_error=last_error)
            with self._lock:
                self._retries += 1
            self._sleep(delay)
            slept += delay
        raise AssertionError("unreachable")  # pragma: no cover

    def send_once(self, method: str, path: str, body: bytes = b"",
                  headers: Optional[Mapping[str, str]] = None
                  ) -> TransportResponse:
        """The :class:`Transport` surface (retried; name kept for stacking)."""
        return self.send(method, path, body, headers)

    def close(self) -> None:
        self.inner.close()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            retry = {
                "requests": self._requests,
                "retries": self._retries,
                "exhausted": self._exhausted,
                "max_attempts": self.policy.max_attempts,
            }
        return {**self.inner.stats(), "retry": retry}
