"""HTTP server fronting the serving stack and the shard plane.

:class:`NetServer` is a stdlib ``ThreadingHTTPServer`` (no new
dependencies) around a :class:`NetApp`, a plain request handler that is
fully testable without sockets -- every route is a pure
``(method, path, headers, body) -> (status, content_type, body)`` call.
One server exposes one of two surfaces:

* **serve plane** (``engine=`` or ``server=``) -- fronts a
  :class:`~repro.serve.server.MicroBatchServer` exactly like
  :class:`~repro.serve.client.ServeClient` does (own the server when given
  an engine, attach when given a running server):

  - ``POST /v1/classify`` -- float64 sample batch in, logits out;
  - ``POST /v1/topk``     -- sample batch + ``k`` in, encoded top-k rows out;
  - ``GET  /v1/healthz``  -- liveness + engine name;
  - ``GET  /v1/metrics``  -- Prometheus text exposition of the full
    ``ServeMetrics``/cache/engine snapshot (the JSON envelope survives
    under ``Accept: application/json``);
  - ``GET  /v1/trace``    -- tracer counters plus the most recent spans.

* **shard plane** (``shard_rows=`` + ``word_bits=``) -- owns one
  :class:`~repro.cam.array.CamArray` plus the *global placement* the write
  requests teach it (which global row each local row stores, and the
  cluster's row-id bound), which is what lets it answer local top-k with
  global ids -- the true partial gather over the wire:

  - ``POST /v1/shard/write``  -- row block + placement (idempotent: retried
    writes replay the recorded answer instead of double-counting energy);
  - ``POST /v1/shard/search`` -- packed queries in, raw mismatch counts out;
  - ``POST /v1/shard/topk``   -- packed queries + ``k`` in, the local
    candidate set (global ids + raw counts) out;
  - ``GET  /v1/shard/info``   -- geometry handshake for attaching transports;
  - ``GET  /v1/healthz`` / ``GET /v1/metrics``.

Every POST route takes and answers one binary frame
(:func:`repro.net.protocol.encode`); a body of any other media type gets
415 ``unsupported_media``.  Errors and the GET routes answer JSON
envelopes.
"""

from __future__ import annotations

import socket
import threading
from collections import OrderedDict
from contextlib import nullcontext
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.cam.array import CamArray
from repro.cam.topk import select_topk
from repro.net import protocol
from repro.net.transport import IDEMPOTENCY_HEADER
from repro.obs import (
    CONTENT_TYPE_PROMETHEUS,
    SloEngine,
    default_registry,
    default_tracer,
    render_openmetrics,
    render_prometheus,
)
from repro.serve.batching import QueueFullError, ServeConfig
from repro.serve.client import batch_rows, submit_batch
from repro.serve.engine import InferenceEngine
from repro.serve.server import MicroBatchServer
from repro.serve.tenancy import (
    AdmissionError,
    QuotaExceededError,
    TenantRegistry,
)

#: Answers replayed for retried non-idempotent requests (per app).
IDEMPOTENCY_CACHE_SIZE = 256

#: One route's response: status, content type, body.
Response = Tuple[int, str, bytes]


class ShardState:
    """Server-side shard replica: one CAM array plus its global placement.

    The array is local (rows ``0..rows-1``); ``global_ids`` records which
    global row each local row stores and ``id_bound`` the exclusive bound
    on row ids, both learned from the write requests.  With those, the
    replica can run the same tie-broken local top-k selection the
    in-process partial gather runs, so the remote merge stays exact.
    """

    def __init__(self, rows: int, word_bits: int) -> None:
        self.array = CamArray(rows=rows, word_bits=word_bits)
        self.global_ids = np.full(rows, -1, dtype=np.int64)
        self.id_bound = 0
        self.lock = threading.Lock()
        self.searches = 0
        self.writes = 0

    def write(self, bits: np.ndarray, start_row: int, global_ids: np.ndarray,
              id_bound: int) -> float:
        """Store one row block and its placement; returns the write energy."""
        with self.lock:
            energy = self.array.write_rows(bits, start_row=start_row)
            self.global_ids[start_row: start_row + bits.shape[0]] = global_ids
            self.id_bound = max(self.id_bound, int(id_bound))
            self.writes += 1
        return float(energy)

    def search(self, packed: np.ndarray) -> Tuple[np.ndarray, float, int]:
        """Raw mismatch counts of the whole local array (full gather)."""
        with self.lock:
            self.searches += 1
            return self.array.mismatch_counts_packed(packed)

    def topk(self, packed: np.ndarray,
             k: int) -> Tuple[np.ndarray, np.ndarray, float, int]:
        """The local candidate set: ``min(k, occupancy)`` best per query."""
        with self.lock:
            self.searches += 1
            counts, energy, latency = self.array.mismatch_counts_packed(packed)
            populated = np.asarray(self.array.populated_mask)
            local_ids = self.global_ids[populated]
            id_bound = max(self.id_bound, 1)
        indices, raw = select_topk(counts[:, populated], local_ids, k,
                                   id_bound)
        return indices, raw, float(energy), int(latency)

    def info(self) -> Dict[str, Any]:
        """Geometry handshake for attaching transports."""
        with self.lock:
            return {
                "rows": int(self.array.rows),
                "word_bits": int(self.array.word_bits),
                "occupancy": int(self.array.occupancy),
                "id_bound": int(self.id_bound),
                "searches": int(self.searches),
                "writes": int(self.writes),
            }


class NetApp:
    """The socket-free request handler behind :class:`NetServer`.

    Exactly one surface per app: pass ``engine`` (owns a started
    :class:`MicroBatchServer`), ``server`` (attaches to a running one), or
    ``shard_rows`` + ``word_bits`` (owns a :class:`ShardState`).
    """

    def __init__(self, engine: Optional[InferenceEngine] = None,
                 server: Optional[MicroBatchServer] = None,
                 shard_rows: Optional[int] = None,
                 word_bits: Optional[int] = None,
                 config: Optional[ServeConfig] = None,
                 cache: Any = None,
                 observers: Iterable[Any] = (),
                 timeout_s: float = 30.0,
                 tracer: Any = None,
                 slo_specs: Iterable[Any] = (),
                 tenancy: Optional[TenantRegistry] = None) -> None:
        surfaces = sum(argument is not None
                       for argument in (engine, server, shard_rows))
        if surfaces != 1:
            raise ValueError(
                "pass exactly one of engine, server or shard_rows")
        if (shard_rows is None) != (word_bits is None):
            raise ValueError("shard_rows and word_bits go together")
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.timeout_s = float(timeout_s)
        # rpc.* server spans; the owned micro-batch server gets the same
        # tracer so request trees nest under the rpc span.  None falls
        # back to the process default (repro.obs.configure).
        self.tracer = tracer if tracer is not None else default_tracer()
        self._owns_server = engine is not None
        self.server: Optional[MicroBatchServer] = None
        self.shard: Optional[ShardState] = None
        if engine is not None:
            self.server = MicroBatchServer(engine, config=config, cache=cache,
                                           observers=observers,
                                           tracer=self.tracer,
                                           tenancy=tenancy).start()
        elif server is not None:
            if not server.running:
                raise RuntimeError("attached server is not running")
            self.server = server
        else:
            self.shard = ShardState(int(shard_rows), int(word_bits))
        # Declarative SLOs over the serve plane's instrument registry,
        # queryable at GET /v1/slo (burn-rate verdicts per objective).
        specs = tuple(slo_specs)
        if specs and self.server is None:
            raise ValueError("slo_specs need a serve surface (engine/server)")
        self.slo_engine: Optional[SloEngine] = (
            SloEngine(list(specs), self.server.metrics.registry)
            if specs else None)
        self._lock = threading.Lock()
        self._requests = 0
        self._replayed = 0
        self._idempotent: "OrderedDict[str, Response]" = OrderedDict()

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Stop the owned micro-batch server (attached ones stay up)."""
        if (self._owns_server and self.server is not None
                and self.server.running):
            self.server.stop(drain=True)

    # -- dispatch ----------------------------------------------------------------

    def handle(self, method: str, path: str,
               headers: Optional[Mapping[str, str]] = None,
               body: bytes = b"") -> Response:
        """Route one request; never raises (failures become envelopes)."""
        lowered = {key.lower(): value
                   for key, value in (headers or {}).items()}
        with self._lock:
            self._requests += 1
        key = lowered.get(IDEMPOTENCY_HEADER.lower())
        replayable = method == "POST" and path == "/v1/shard/write"
        if replayable and key:
            with self._lock:
                cached = self._idempotent.get(key)
                if cached is not None:
                    self._idempotent.move_to_end(key)
                    self._replayed += 1
                    return cached
        try:
            response = self._route(method, path, lowered, body)
        except protocol.WireError as error:
            response = self._error_response(error.code, error.message)
        except AdmissionError as error:
            # Before QueueFullError: a quota rejection is both, and must
            # travel as 429 + retry-after, not 503.
            code = ("quota_exceeded" if isinstance(error, QuotaExceededError)
                    else "rate_limited")
            response = self._error_response(
                code, str(error), retry_after_s=error.retry_after_s)
        except QueueFullError as error:
            response = self._error_response("unavailable", str(error))
        except RuntimeError as error:
            code = ("shutting_down" if "not running" in str(error)
                    or "stopped" in str(error) else "engine_error")
            response = self._error_response(code, str(error))
        except (ValueError, TypeError) as error:
            response = self._error_response("bad_request", str(error))
        except Exception as error:  # noqa: BLE001 -- the wire must answer
            response = self._error_response("internal", str(error))
        if replayable and key and response[0] == 200:
            with self._lock:
                self._idempotent[key] = response
                while len(self._idempotent) > IDEMPOTENCY_CACHE_SIZE:
                    self._idempotent.popitem(last=False)
        return response

    def _route(self, method: str, path: str, headers: Mapping[str, str],
               body: bytes) -> Response:
        gets = {
            "/v1/healthz": self._healthz,
            "/v1/metrics": self._metrics,
            "/v1/trace": self._trace,
            "/v1/slo": self._slo,
        }
        # POST path -> (frame kind, handler of the decoded request fields).
        posts = {}
        if self.server is not None:
            posts["/v1/classify"] = ("classify", self._classify)
            posts["/v1/topk"] = ("topk", self._topk)
        if self.shard is not None:
            gets["/v1/shard/info"] = self._shard_info
            posts["/v1/shard/write"] = ("shard_write", self._shard_write)
            posts["/v1/shard/search"] = ("shard_search", self._shard_search)
            posts["/v1/shard/topk"] = ("shard_topk", self._shard_topk)
        routes = {"GET": gets, "POST": posts}.get(method, {})
        if path not in routes:
            if path in gets or path in posts:
                raise protocol.WireError(
                    "method_not_allowed", f"{method} not allowed on {path}")
            raise protocol.WireError("not_found", f"no route {path}")
        if method == "GET":
            return gets[path](headers)
        content_type = headers.get("content-type", "").split(";")[0].strip()
        if content_type != protocol.CONTENT_TYPE_FRAME:
            raise protocol.WireError(
                "unsupported_media",
                f"unsupported content type {content_type!r}")
        kind, handler = posts[path]
        answer = handler(protocol.decode(f"{kind}.request", body), headers)
        return (200, protocol.CONTENT_TYPE_FRAME,
                protocol.encode(f"{kind}.response", **answer))

    def _rpc_span(self, name: str, headers: Mapping[str, str],
                  **attributes: Any):
        """A server-side rpc span parented under the wire's trace context.

        Returns a context manager; with no tracer it is a no-op (an
        incoming context still reaches the serve plane through ``submit``'s
        ``trace=`` argument).
        """
        if self.tracer is None:
            return nullcontext()
        context = protocol.parse_trace_header(
            headers.get(protocol.TRACE_HEADER.lower()))
        return self.tracer.span(name, parent=context,
                                attributes=attributes or None)

    def _ok_response(self, result: Mapping[str, Any]) -> Response:
        return (200, protocol.CONTENT_TYPE_JSON,
                protocol.dumps(protocol.ok_envelope(result)))

    def _error_response(self, code: str, message: str,
                        retry_after_s: Optional[float] = None) -> Response:
        return (protocol.error_status(code), protocol.CONTENT_TYPE_JSON,
                protocol.dumps(protocol.error_envelope(
                    code, message, retry_after_s=retry_after_s)))

    # -- shared routes -----------------------------------------------------------

    def _healthz(self, headers: Mapping[str, str]) -> Response:
        if self.shard is not None:
            return self._ok_response({"status": "ok", "plane": "shard"})
        running = self.server is not None and self.server.running
        return self._ok_response({
            "status": "ok" if running else "stopping",
            "plane": "serve",
            "engine": getattr(self.server.engine, "name", "unknown"),
            "running": running,
        })

    def _metrics_document(self) -> Dict[str, Any]:
        with self._lock:
            net = {"requests": self._requests, "replayed": self._replayed}
        if self.shard is not None:
            document: Dict[str, Any] = {"net": net, "shard": self.shard.info()}
        else:
            document = {"net": net, "serve": self.server.stats()}
        if self.tracer is not None and "obs" not in document.get("serve", {}):
            document["obs"] = self.tracer.snapshot()
        return document

    def _instrument_registries(self):
        """The instrument registries this app exposes, deduped by identity.

        The serve plane's per-server registry (request/latency/cache
        series with exemplars) plus the process-default one (shard
        fan-out / exec crash counters); a shared registry appears once.
        """
        registries = []
        if self.server is not None:
            registries.append(self.server.metrics.registry)
        shared = default_registry()
        if all(shared is not registry for registry in registries):
            registries.append(shared)
        return registries

    def _metrics(self, headers: Mapping[str, str]) -> Response:
        """Metrics snapshot: Prometheus text by default, JSON on Accept.

        ``Accept: application/json`` keeps the original envelope (what
        :meth:`NetClient.metrics` sends); anything else gets the
        Prometheus text exposition of the same document.
        """
        accept = headers.get("accept", "")
        if protocol.CONTENT_TYPE_JSON in accept:
            document = self._metrics_document()
            document["instruments"] = {
                f"registry_{index}": registry.snapshot()
                for index, registry in
                enumerate(self._instrument_registries())}
            return self._ok_response(document)
        # Legacy flattened gauges first (locked wire format), then the
        # typed instruments in OpenMetrics syntax -- histogram buckets
        # carry their trace-id exemplars -- with the single terminating
        # `# EOF` supplied by the OpenMetrics renderer.
        text = render_prometheus(self._metrics_document())
        text += render_openmetrics(*self._instrument_registries())
        return 200, CONTENT_TYPE_PROMETHEUS, text.encode("utf-8")

    def _slo(self, headers: Mapping[str, str]) -> Response:
        """Burn-rate SLO verdicts (``enabled: false`` without specs)."""
        if self.slo_engine is None:
            return self._ok_response({"enabled": False, "specs": []})
        report = self.slo_engine.evaluate()
        return self._ok_response({"enabled": True, **report})

    def _trace(self, headers: Mapping[str, str]) -> Response:
        """Tracer counters plus the most recent finished spans."""
        if self.tracer is None:
            return self._ok_response({"enabled": False, "spans": []})
        return self._ok_response({
            "enabled": True,
            "obs": self.tracer.snapshot(),
            "spans": self.tracer.recent(),
        })

    # -- serve plane -------------------------------------------------------------

    def _classify(self, request: Dict[str, Any],
                  headers: Mapping[str, str]) -> Dict[str, Any]:
        return {"logits": self._serve_batch("rpc.classify", headers,
                                            request["samples"])}

    def _topk(self, request: Dict[str, Any],
              headers: Mapping[str, str]) -> Dict[str, Any]:
        return {"rows": self._serve_batch("rpc.topk", headers,
                                          request["samples"], request["k"])}

    def _serve_batch(self, name: str, headers: Mapping[str, str],
                     samples: np.ndarray, k: Optional[int] = None
                     ) -> np.ndarray:
        """One decoded batch through the in-process client helpers.

        Runs under the ``name`` rpc span, with the wire's trace context
        and ``X-Repro-Tenant`` forwarded to every submit.
        """
        context = protocol.parse_trace_header(
            headers.get(protocol.TRACE_HEADER.lower()))
        tenant = headers.get(protocol.TENANT_HEADER.lower())
        attributes: Dict[str, Any] = {"batch": int(samples.shape[0])}
        if k is not None:
            attributes["k"] = int(k)
        if tenant is not None:
            attributes["tenant"] = tenant
        with self._rpc_span(name, headers, **attributes) as rpc:
            futures = submit_batch(self.server, samples, k,
                                   timeout=self.timeout_s,
                                   trace=rpc if rpc is not None else context,
                                   tenant=tenant)
            return batch_rows(self.server.engine,
                              [future.result(self.timeout_s)
                               for future in futures], k)

    # -- shard plane -------------------------------------------------------------

    def _shard_info(self, headers: Mapping[str, str]) -> Response:
        return self._ok_response(self.shard.info())

    def _shard_write(self, request: Dict[str, Any],
                     headers: Mapping[str, str]) -> Dict[str, Any]:
        rows = int(request["bits"].shape[0])
        with self._rpc_span("rpc.shard_write", headers, rows=rows):
            energy = self.shard.write(request["bits"], request["start_row"],
                                      request["global_ids"],
                                      request["id_bound"])
        return {"energy_pj": energy, "rows_written": rows}

    def _shard_search(self, request: Dict[str, Any],
                      headers: Mapping[str, str]) -> Dict[str, Any]:
        packed = request["packed"]
        with self._rpc_span("rpc.shard_search", headers,
                            queries=int(packed.shape[0])):
            counts, energy, latency = self.shard.search(packed)
        return {"counts": counts, "energy_pj": energy,
                "latency_cycles": latency}

    def _shard_topk(self, request: Dict[str, Any],
                    headers: Mapping[str, str]) -> Dict[str, Any]:
        packed, k = request["packed"], request["k"]
        with self._rpc_span("rpc.shard_topk", headers,
                            queries=int(packed.shape[0]), k=k):
            indices, raw, energy, latency = self.shard.topk(packed, k)
        return {"indices": indices, "raw": raw, "energy_pj": energy,
                "latency_cycles": latency}

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Request counters plus the fronted surface's snapshot."""
        with self._lock:
            base: Dict[str, Any] = {"requests": self._requests,
                                    "replayed": self._replayed}
        if self.shard is not None:
            base["shard"] = self.shard.info()
        elif self.server is not None:
            base["serve"] = self.server.stats()
        return base


class _Handler(BaseHTTPRequestHandler):
    """Thin socket adapter: reads the body, delegates to the app."""

    protocol_version = "HTTP/1.1"  # keep-alive for the pooled clients
    # TCP_NODELAY on every accepted socket (StreamRequestHandler.setup).
    # The headers and the body leave in two send() calls; with Nagle on,
    # the body waits out the client's delayed ACK (~40 ms per response).
    disable_nagle_algorithm = True
    app: NetApp  # bound by NetServer via a subclass attribute

    def _dispatch(self) -> None:
        raw_length = self.headers.get("Content-Length", "") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown, so the stream cannot be
            # resynchronised: answer, then drop the connection.
            self._reply(self.app._error_response(
                "bad_request", f"malformed Content-Length {raw_length!r}"),
                close=True)
            return
        body = self.rfile.read(length) if length else b""
        self._reply(self.app.handle(
            self.command, self.path, dict(self.headers.items()), body))

    def _reply(self, response: Response, close: bool = False) -> None:
        status, content_type, payload = response
        self.send_response(status)
        if close:
            self.send_header("Connection", "close")  # sets close_connection
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if status == 429:
            # Surface the envelope's retry hint as a real Retry-After
            # header (decimal seconds) for header-only HTTP clients.
            try:
                error = protocol.loads(payload).get("error", {})
                retry_after = error.get("retry_after_s")
                if retry_after is not None:
                    self.send_header(protocol.RETRY_AFTER_HEADER,
                                     f"{float(retry_after):.3f}")
            except Exception:  # noqa: BLE001 -- a hint, never a failure
                pass
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 -- BaseHTTPRequestHandler contract
        self._dispatch()

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch()

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the app keeps its own counters; stderr stays quiet


class _TrackingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that can sever its kept-alive connections.

    ``shutdown()`` only stops the accept loop; handler threads blocked on
    the next request of a kept-alive connection would keep answering a
    "killed" replica.  This server tracks every accepted socket so
    :meth:`close_connections` can shut them down -- a kill then looks like
    a real node loss to pooled clients (reset / refused), which is what
    the failover machinery must see.
    """

    daemon_threads = True
    block_on_close = False

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._connections: set = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Forcibly shut down every open client connection."""
        with self._connections_lock:
            connections = list(self._connections)
            self._connections.clear()
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class NetServer:
    """A threaded HTTP server around one :class:`NetApp`.

    ``port=0`` (the default) binds an ephemeral port; read
    :attr:`base_url` after :meth:`start`.  Context-manager use starts and
    stops the server (and the owned micro-batch server behind it)::

        with NetServer(engine=build_demo_engine()) as server:
            client = NetClient(server.base_url)
            ...
    """

    def __init__(self, engine: Optional[InferenceEngine] = None,
                 server: Optional[MicroBatchServer] = None,
                 shard_rows: Optional[int] = None,
                 word_bits: Optional[int] = None,
                 config: Optional[ServeConfig] = None,
                 cache: Any = None,
                 observers: Iterable[Any] = (),
                 timeout_s: float = 30.0,
                 host: str = "127.0.0.1", port: int = 0,
                 tracer: Any = None,
                 slo_specs: Iterable[Any] = (),
                 tenancy: Optional[TenantRegistry] = None) -> None:
        self.app = NetApp(engine=engine, server=server,
                          shard_rows=shard_rows, word_bits=word_bits,
                          config=config, cache=cache, observers=observers,
                          timeout_s=timeout_s, tracer=tracer,
                          slo_specs=slo_specs, tenancy=tenancy)
        self.host = host
        self.port = int(port)
        self._httpd: Optional[_TrackingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def base_url(self) -> str:
        """``http://host:port`` of the bound socket (after :meth:`start`)."""
        if self._httpd is None:
            raise RuntimeError("server is not started")
        return f"http://{self.host}:{self._httpd.server_address[1]}"

    def start(self) -> "NetServer":
        """Bind the socket and serve on a daemon thread; returns ``self``."""
        if self._httpd is not None:
            raise RuntimeError("server is already running")
        handler = type("BoundHandler", (_Handler,), {"app": self.app})
        self._httpd = _TrackingHTTPServer((self.host, self.port), handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-net-{self._httpd.server_address[1]}", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Unbind the socket, join the serve thread, close the app."""
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            httpd.shutdown()
            httpd.close_connections()
            httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.app.close()

    def __enter__(self) -> "NetServer":
        if not self.running:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def stats(self) -> Dict[str, Any]:
        """The app's counters (and the fronted surface's snapshot)."""
        return self.app.stats()
