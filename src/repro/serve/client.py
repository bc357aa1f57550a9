"""The client request surface, and its in-process specialisation.

:class:`ClientCore` states the request semantics every client shares --
sample-to-batch coercion (an empty sequence is an empty batch), submit
the whole batch before waiting on any answer, the shape of an empty
answer, top-k row decoding, the default tenant and the context-manager
lifecycle -- once.  A client supplies one seam: :meth:`ClientCore._submit`
(the blocking half of a request, returning futures plus the bound on
waiting for them) and :meth:`ClientCore._rows` (the batch's rows from the
futures' results).  :class:`~repro.serve.async_client.AsyncClient` is the
one awaitable adapter over any such core.

:class:`ServeClient` is the in-process client: its seam enqueues on a
:class:`MicroBatchServer` and waits on the returned futures.  Construct
it from an engine (it owns a server's lifecycle) or attach it to an
already-running server (shared by several clients), then call
:meth:`~ClientCore.infer` / :meth:`~ClientCore.infer_many` /
:meth:`~ClientCore.topk` / :meth:`~ClientCore.topk_many` and read
:meth:`ServeClient.stats`.

::

    from repro.serve import ServeClient, build_demo_engine

    with ServeClient(build_demo_engine()) as client:
        logits = client.infer(my_vector)
        print(client.stats()["latency_ms"]["p99"])
"""

from __future__ import annotations

from concurrent.futures import Future
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.cam.topk import decode_topk_rows
from repro.serve.batching import ServeConfig
from repro.serve.engine import InferenceEngine
from repro.serve.server import MicroBatchServer


def as_batch(samples: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """``samples`` as one float64 ``(n, d)`` batch.

    A lone 1-D sample is a one-row batch; an empty sequence is the empty
    ``(0, 0)`` batch, whose answer still has the engine's width.
    """
    batch = np.asarray(samples, dtype=np.float64)
    if batch.size == 0 and batch.ndim < 2:
        return batch.reshape(0, 0)
    return batch[None, :] if batch.ndim == 1 else batch


def submit_batch(server: MicroBatchServer, batch: np.ndarray,
                 k: Optional[int] = None, *, timeout: Optional[float],
                 trace: Any = None,
                 tenant: Optional[str] = None) -> List["Future[np.ndarray]"]:
    """Enqueue every sample of ``batch`` before any answer is awaited.

    Classification requests, or top-k requests when ``k`` is given; the
    micro-batcher sees the whole batch together.  ``timeout`` bounds each
    enqueue under backpressure; ``trace``/``tenant`` are forwarded to
    :meth:`MicroBatchServer.submit`.  An empty batch touches no queue.
    """
    submit = server.submit if k is None else partial(server.submit_topk, k=k)
    return [submit(sample, timeout=timeout, trace=trace, tenant=tenant)
            for sample in batch]


def batch_rows(engine: Any, results: List[np.ndarray],
               k: Optional[int] = None) -> np.ndarray:
    """Stack per-sample answers into the batch's rows.

    An empty batch still has the engine's width: ``(0, output_dim)``
    logits, or ``(0, engine.topk_width(k))`` encoded top-k rows.
    """
    if results:
        return np.stack(results)
    if k is None:
        return np.empty((0, getattr(engine, "output_dim", 0)),
                        dtype=np.float64)
    topk_width = getattr(engine, "topk_width", None)
    width = topk_width(k) if callable(topk_width) else 0
    return np.zeros((0, width), dtype=np.float64)


class ClientCore:
    """The request surface every client shares; subclasses supply the seam.

    ``infer``/``topk`` serve one sample through ``infer_many``/
    ``topk_many``.  The per-call ``options`` are the keyword arguments of
    the subclass's ``_submit``, so a client accepts exactly the options
    its seam defines (:class:`ServeClient`: ``timeout``,
    ``enqueue_timeout``, ``tenant``; the wire client: none).
    """

    def __init__(self, tenant: Optional[str] = None) -> None:
        self.tenant = tenant

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "ClientCore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the seam ----------------------------------------------------------------

    def _submit(self, batch: np.ndarray, k: Optional[int], **options: Any
                ) -> tuple[List[Future], Optional[float]]:
        """Send ``batch`` (top-k when ``k`` is given); return the futures of
        its answers and the bound on waiting for each."""
        raise NotImplementedError

    def _rows(self, results: List[np.ndarray], k: Optional[int]) -> np.ndarray:
        """The batch's ``(n, width)`` rows from the futures' results."""
        raise NotImplementedError

    def _answer(self, results: List[np.ndarray],
                k: Optional[int]) -> Any:
        """Logits, or decoded ``(indices, distances)`` for top-k."""
        rows = self._rows(results, k)
        return rows if k is None else decode_topk_rows(rows)

    def _serve(self, samples: Sequence[np.ndarray] | np.ndarray,
               k: Optional[int], options: Dict[str, Any]) -> Any:
        futures, wait = self._submit(as_batch(samples), k, **options)
        return self._answer([future.result(wait) for future in futures], k)

    # -- requests ----------------------------------------------------------------

    def infer(self, sample: np.ndarray, **options: Any) -> np.ndarray:
        """Serve one sample; returns its logits row."""
        return self.infer_many([sample], **options)[0]

    def infer_many(self, samples: Sequence[np.ndarray] | np.ndarray,
                   **options: Any) -> np.ndarray:
        """Serve several samples; returns the stacked ``(n, output_dim)`` logits.

        The whole batch is submitted before any answer is awaited, so the
        micro-batcher sees it together.  An empty input answers
        ``(0, output_dim)``.
        """
        return self._serve(samples, None, options)

    def topk(self, sample: np.ndarray, k: int,
             **options: Any) -> tuple[np.ndarray, np.ndarray]:
        """Serve one top-k retrieval request; returns ``(indices, distances)``.

        ``indices`` are the global CAM row ids of the ``min(k, rows)`` best
        matches (ascending by distance, ties toward lower row id) and
        ``distances`` the sensed Hamming distances, both ``(k_eff,)``
        ``int64`` arrays.
        """
        indices, distances = self.topk_many([sample], k, **options)
        return indices[0], distances[0]

    def topk_many(self, samples: Sequence[np.ndarray] | np.ndarray, k: int,
                  **options: Any) -> tuple[np.ndarray, np.ndarray]:
        """Serve several top-k requests; returns stacked ``(n, k_eff)`` arrays."""
        return self._serve(samples, k, options)


class ServeClient(ClientCore):
    """Blocking request/response facade over a :class:`MicroBatchServer`.

    Parameters
    ----------
    engine:
        Engine to serve.  When given, the client builds, starts and (on
        ``close()``/context exit) stops its own server.
    server:
        An existing server to attach to instead; its lifecycle stays with
        whoever created it.  Exactly one of ``engine``/``server`` must be
        passed.
    config / cache / observers:
        Forwarded to the owned :class:`MicroBatchServer` (engine mode only).
    timeout_s:
        Default per-request wait for a *result*.
    enqueue_timeout_s:
        Default bound on the *enqueue* under backpressure (a full queue
        with the ``"block"`` policy raises
        :class:`~repro.serve.batching.QueueFullError` once it elapses).
        ``None`` follows ``timeout_s``.  The two are separate knobs
        because they bound different resources -- queue admission vs
        compute -- exactly like a network client's connect vs read
        timeouts (which :class:`~repro.net.client.NetClient` maps them to).
    tenant:
        Tenant every request of this client is attributed to on a
        tenanted server (see :mod:`repro.serve.tenancy`); per-call
        ``tenant=`` overrides it.  ``None`` on an untenanted server is a
        no-op.

    Every request method takes three per-call keywords.  ``timeout``
    (default ``timeout_s``) bounds each wait for a result and
    ``enqueue_timeout`` (default ``enqueue_timeout_s``) each enqueue under
    backpressure; passing only ``timeout`` bounds both steps with it,
    preserving the historical one-knob behaviour.  ``tenant`` overrides
    the client's default tenant.
    """

    def __init__(self, engine: Optional[InferenceEngine] = None,
                 server: Optional[MicroBatchServer] = None,
                 config: Optional[ServeConfig] = None,
                 cache: Any = None,
                 observers: Iterable[Any] = (),
                 timeout_s: float = 30.0,
                 enqueue_timeout_s: Optional[float] = None,
                 tenant: Optional[str] = None) -> None:
        if (engine is None) == (server is None):
            raise ValueError("pass exactly one of engine or server")
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if enqueue_timeout_s is not None and enqueue_timeout_s <= 0:
            raise ValueError("enqueue_timeout_s must be positive")
        super().__init__(tenant)
        self.timeout_s = float(timeout_s)
        self.enqueue_timeout_s = (float(enqueue_timeout_s)
                                  if enqueue_timeout_s is not None
                                  else self.timeout_s)
        self._owns_server = server is None
        if server is None:
            server = MicroBatchServer(engine, config=config, cache=cache,
                                      observers=observers).start()
        elif not server.running:
            raise RuntimeError("attached server is not running")
        self.server = server

    def close(self) -> None:
        """Stop the owned server (draining); attached servers are untouched."""
        if self._owns_server and self.server.running:
            self.server.stop(drain=True)

    def _waits(self, timeout: Optional[float],
               enqueue_timeout: Optional[float]) -> tuple[float, float]:
        """Resolve the (enqueue, result) bounds of one call."""
        wait = timeout if timeout is not None else self.timeout_s
        admit = (enqueue_timeout if enqueue_timeout is not None
                 else self.enqueue_timeout_s if timeout is None
                 else wait)
        return admit, wait

    def _submit(self, batch: np.ndarray, k: Optional[int],
                timeout: Optional[float] = None,
                enqueue_timeout: Optional[float] = None,
                tenant: Optional[str] = None
                ) -> tuple[List[Future], float]:
        """Enqueue the batch under the per-call options (class docstring)."""
        admit, wait = self._waits(timeout, enqueue_timeout)
        futures = submit_batch(
            self.server, batch, k, timeout=admit,
            tenant=tenant if tenant is not None else self.tenant)
        return futures, wait

    def _rows(self, results: List[np.ndarray], k: Optional[int]) -> np.ndarray:
        return batch_rows(self.server.engine, results, k)

    def stats(self) -> Dict[str, Any]:
        """The server's merged metrics/cache/engine snapshot."""
        return self.server.stats()
