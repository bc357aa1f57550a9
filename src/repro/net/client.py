"""The wire client: the shared client core over the HTTP protocol.

:class:`NetClient` is a :class:`~repro.serve.client.ClientCore` -- the
same ``infer`` / ``infer_many`` / ``topk`` / ``topk_many`` semantics as
:class:`~repro.serve.client.ServeClient`, empty batches included -- whose
seam speaks HTTP to a :class:`~repro.net.server.NetServer` instead of
holding the micro-batch server in-process: one binary frame carries the
whole batch each way (:mod:`repro.net.protocol`).  One
:class:`~repro.net.transport.RetryingTransport` over one pooled
:class:`~repro.net.transport.HttpTransport` carries every call, so
the client gets keep-alive, the connect/read timeout split, retries with
decorrelated jitter, a retry budget and per-request idempotency keys
without any per-method wiring::

    from repro.net import NetClient

    with NetClient("http://127.0.0.1:8451") as client:
        logits = client.infer(my_vector)
        indices, distances = client.topk(my_vector, k=8)
        print(client.metrics()["serve"]["latency_ms"])

Pass ``transport=`` to stack differently (tests wrap the pool in a
:class:`~repro.net.transport.FlakyTransport`); pass ``seed=`` to pin the
retry jitter.
"""

from __future__ import annotations

import random
from concurrent.futures import Future
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

import numpy as np

from repro.net import protocol
from repro.obs import default_tracer, inject_headers
from repro.net.transport import (
    HttpTransport,
    RetryingTransport,
    RetryPolicy,
    Transport,
    TransportResponse,
)
from repro.serve.client import ClientCore


class NetClient(ClientCore):
    """Blocking request/response facade over a remote :class:`NetServer`.

    Parameters
    ----------
    base_url:
        ``http://host:port`` of the server.  Mutually exclusive with
        ``transport``.
    transport:
        A pre-stacked single-attempt :class:`Transport` to wrap with the
        retry layer instead (fault injection, custom pooling).
    retry:
        The :class:`RetryPolicy`; defaults are modest (4 attempts).
    connect_timeout_s / read_timeout_s:
        The SDK's two timeouts: establishing the connection vs waiting
        for the response bytes (``base_url`` mode only).
    seed:
        Seeds the retry jitter RNG; ``None`` leaves it entropy-seeded.
    tracer:
        A :class:`repro.obs.Tracer` for client-side spans.  ``None``
        falls back to the process default
        (:func:`repro.obs.configure`); with no tracer at all the client
        still forwards any ambient trace context on the wire.
    tenant:
        Tenant id carried on every request as the ``X-Repro-Tenant``
        header (multi-tenant admission on the serve plane).  ``None``
        sends no header -- the server books the traffic under its
        default tenant.  Rate-limited answers come back as HTTP 429
        with a ``Retry-After`` hint the retry layer honours.
    """

    def __init__(self, base_url: Optional[str] = None,
                 transport: Optional[Transport] = None,
                 retry: Optional[RetryPolicy] = None,
                 connect_timeout_s: float = 5.0,
                 read_timeout_s: float = 30.0,
                 seed: Optional[int] = None,
                 tracer: Any = None,
                 tenant: Optional[str] = None) -> None:
        if (base_url is None) == (transport is None):
            raise ValueError("pass exactly one of base_url or transport")
        if transport is None:
            transport = HttpTransport(base_url,
                                      connect_timeout_s=connect_timeout_s,
                                      read_timeout_s=read_timeout_s)
        super().__init__(tenant)
        rng = random.Random(seed) if seed is not None else None
        self.transport = RetryingTransport(transport, policy=retry, rng=rng)
        self.tracer = tracer if tracer is not None else default_tracer()

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release the pooled connection."""
        self.transport.close()

    # -- plumbing ----------------------------------------------------------------

    def _send(self, method: str, path: str, body: bytes = b"",
              headers: Optional[Dict[str, str]] = None) -> TransportResponse:
        """One logical request: sent (retried) under a client span.

        When tracing, the call runs under a ``client.<verb>`` span whose
        context rides the ``X-Repro-Trace`` header, so the server's
        ``rpc.*`` span (and the whole request tree behind it) shares the
        client's trace id.
        """
        headers = dict(headers or {})
        if self.tenant is not None:
            headers[protocol.TENANT_HEADER] = self.tenant
        span = (nullcontext() if self.tracer is None else self.tracer.span(
            f"client.{path.rsplit('/', 1)[-1]}",
            attributes={"method": method, "path": path}))
        with span:
            # Inside a client span the span is ambient; without a tracer
            # this forwards whatever trace context the caller runs under.
            return self.transport.send(method, path, body,
                                       inject_headers(headers))

    def _call(self, method: str, path: str,
              accept: Optional[str] = None) -> Dict[str, Any]:
        """One control request; unwraps the JSON envelope."""
        headers = {"Accept": accept} if accept is not None else None
        return protocol.parse_response(
            self._send(method, path, headers=headers).json())

    def _submit(self, batch: np.ndarray, k: Optional[int]
                ) -> tuple[List[Future], None]:
        """One frame carries the whole batch; its answer is already in."""
        headers = {"Content-Type": protocol.CONTENT_TYPE_FRAME}
        if k is None:
            # Looked up on the module per call, so tracing can wrap them.
            body = protocol.encode_classify_request(batch)
            rows = protocol.decode_classify_response(
                self._send("POST", "/v1/classify", body, headers).frame())
        else:
            body = protocol.encode("topk.request", samples=batch, k=k)
            rows = protocol.decode("topk.response", self._send(
                "POST", "/v1/topk", body, headers).frame())["rows"]
        answered: Future = Future()
        answered.set_result(rows)
        return [answered], None

    def _rows(self, results: List[np.ndarray], k: Optional[int]) -> np.ndarray:
        return results[0]

    # -- reporting ---------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """The server's liveness document."""
        return self._call("GET", "/v1/healthz")

    def metrics(self) -> Dict[str, Any]:
        """The server's metrics snapshot (net counters + serve/shard).

        Asks for the JSON envelope explicitly -- without the ``Accept``
        header the endpoint answers in Prometheus text exposition.
        """
        return self._call("GET", "/v1/metrics",
                          accept=protocol.CONTENT_TYPE_JSON)

    def trace(self) -> Dict[str, Any]:
        """The server's tracer snapshot and most recent spans."""
        return self._call("GET", "/v1/trace")

    def slo(self) -> Dict[str, Any]:
        """The server's burn-rate SLO verdicts (``enabled: false`` if none)."""
        return self._call("GET", "/v1/slo")

    def stats(self) -> Dict[str, Any]:
        """Client-side transport counters (requests, retries, reconnects)."""
        return self.transport.stats()
