"""Bounded request queue and the dynamic micro-batcher.

Single-sample requests enter a bounded FIFO; worker threads drain it into
*micro-batches* that flush on whichever trigger fires first:

* **size** -- ``max_batch`` requests have been collected; or
* **time** -- ``max_wait_ms`` has elapsed since the first request of the
  batch was dequeued.

This is the classic size/time-triggered drain of background batch-ingest
queues: block (briefly) for the first item, then keep collecting with the
*remaining* wait budget as the timeout so a full batch forms instantly
under load while a lone request never waits more than ``max_wait_ms``.
Backpressure is the queue bound itself: when the queue is full the server
either blocks the producer or rejects the request, per
:attr:`ServeConfig.full_policy`.
"""

from __future__ import annotations

import queue
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, List, Optional

import numpy as np

#: Queue-full policies: block the producer, or fail fast with
#: :class:`QueueFullError`.
FULL_POLICIES = ("block", "reject")


class QueueFullError(RuntimeError):
    """The bounded request queue is full (reject policy, or block timed out)."""


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one :class:`~repro.serve.server.MicroBatchServer`.

    Attributes
    ----------
    max_batch:
        Micro-batch size cap (the size flush trigger).  ``1`` degenerates
        to request-at-a-time serving -- the baseline the batcher is
        benchmarked against.
    max_wait_ms:
        Time flush trigger: longest a dequeued request waits for the batch
        to fill.  ``0`` flushes greedily with whatever is already queued.
    queue_depth:
        Bound of the request queue (the backpressure point).
    num_workers:
        Worker threads draining the queue.  One worker keeps batches large
        and ordering simple; more overlap post-processing with draining.
    cache_capacity:
        Entries of the packed-signature result cache; ``0`` disables
        caching.
    full_policy:
        ``"block"`` stalls producers while the queue is full;
        ``"reject"`` raises :class:`QueueFullError` immediately.
    poll_timeout_ms:
        Idle wake-up interval of the workers (shutdown latency bound).
    adaptive_wait:
        Scale the flush window with load (off by default): a deep queue
        shrinks the wait toward ``0`` (a full batch is already there, so
        waiting only adds latency) and an idle queue grows it back toward
        the ``max_wait_ms`` cap (see :func:`adaptive_wait_s`).
    cache_admission:
        Sightings a key needs before the result cache admits it (the
        doorkeeper threshold of :class:`~repro.serve.cache.PackedSignatureCache`).
        ``1`` admits immediately (plain LRU, the default); ``2`` keeps
        one-shot flood traffic from evicting the working set.

    The execution-plane engine is the served engine's own setting
    (``ShardedEngine(executor=...)`` or ``REPRO_EXECUTOR``), not the
    server's.
    """

    max_batch: int = 64
    max_wait_ms: float = 2.0
    queue_depth: int = 1024
    num_workers: int = 1
    cache_capacity: int = 4096
    full_policy: str = "block"
    poll_timeout_ms: float = 50.0
    adaptive_wait: bool = False
    cache_admission: int = 1

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if self.queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be non-negative")
        if self.full_policy not in FULL_POLICIES:
            raise ValueError(
                f"full_policy must be one of {FULL_POLICIES}, got {self.full_policy!r}"
            )
        if self.poll_timeout_ms <= 0:
            raise ValueError("poll_timeout_ms must be positive")
        if self.cache_admission <= 0:
            raise ValueError("cache_admission must be positive")


@dataclass
class ServeRequest:
    """One enqueued sample awaiting its logits.

    The ``future`` resolves to a read-only ``(output_dim,)`` logits row (or
    to the batch's exception); ``enqueued_at`` feeds the end-to-end latency
    metric.  When the server traces (:mod:`repro.obs`), ``span`` is the
    request's root span and ``enqueue_span`` the open queue-wait child --
    both ``None`` on an untraced server so the dataclass stays cheap.
    """

    sample: np.ndarray
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)
    span: Any = None
    enqueue_span: Any = None
    #: Tenant attribution (:mod:`repro.serve.tenancy`): ``None`` on an
    #: untenanted server.  ``key_suffix`` is the tenant's cache-namespace
    #: suffix, precomputed at admission so the worker's key loop stays a
    #: plain concatenation.
    tenant: Optional[str] = None
    key_suffix: bytes = b""


@dataclass
class TopKRequest(ServeRequest):
    """One enqueued top-k retrieval request.

    Rides the same bounded queue and micro-batcher as classification
    requests; the worker groups a drained batch by ``k`` (``None`` for
    plain classification) so each group executes as one batched call.  The
    ``future`` resolves to a read-only encoded ``(2 * k_eff,)`` row of
    ``[row ids | distances]`` (:func:`repro.cam.topk.decode_topk_rows`
    splits it back).
    """

    k: int = 1


def adaptive_wait_s(max_wait_s: float, queue_depth: int, max_batch: int) -> float:
    """Load-proportional flush window (the ``adaptive_wait`` policy).

    Scales the wait budget by how far the queue is from holding one full
    batch: an empty queue gets the whole ``max_wait_s`` cap (a lone request
    may as well wait for company), a queue already holding ``max_batch``
    requests gets ``0`` (the batch is there -- waiting only adds latency),
    and in between the window shrinks linearly.
    """
    if max_wait_s <= 0:
        return 0.0
    if max_batch <= 1:
        return max_wait_s
    fill = min(max(queue_depth, 0) / max_batch, 1.0)
    return max_wait_s * (1.0 - fill)


def drain_batch(request_queue: "queue.Queue[ServeRequest]", max_batch: int,
                max_wait_s: float, first_timeout_s: float,
                adaptive: bool = False) -> List[ServeRequest]:
    """Collect one micro-batch, flushing on size or time -- whichever first.

    Blocks up to ``first_timeout_s`` for the first request (the idle poll);
    once one arrives, keeps draining with the remaining ``max_wait_s``
    budget as the timeout until ``max_batch`` is reached or the budget is
    spent.  ``max_wait_s <= 0`` takes only what is already queued.  Returns
    ``[]`` when the queue stayed empty for the whole poll.

    ``adaptive=True`` applies the :func:`adaptive_wait_s` policy *per
    iteration* instead of once up front: every dequeue re-evaluates the
    window from the requests in hand plus the live backlog, so a burst
    arriving mid-drain collapses the remaining wait immediately (the stale
    single-sample window was the bug: a batch that started draining an
    idle queue kept its full wait even after the queue filled).  When the
    window closes with a backlog present, whatever is already queued is
    taken without further waiting, so the flush is a full batch rather
    than a partial one with work left behind.
    """
    try:
        first = request_queue.get(timeout=first_timeout_s)
    except queue.Empty:
        return []
    batch = [first]
    if max_wait_s <= 0:
        while len(batch) < max_batch:
            try:
                batch.append(request_queue.get_nowait())
            except queue.Empty:
                break
        return batch
    started = time.perf_counter()
    if not adaptive:
        deadline = started + max_wait_s
        while len(batch) < max_batch:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            try:
                batch.append(request_queue.get(timeout=remaining))
            except queue.Empty:
                break
        return batch
    while len(batch) < max_batch:
        window = adaptive_wait_s(max_wait_s,
                                 len(batch) + request_queue.qsize(),
                                 max_batch)
        remaining = started + window - time.perf_counter()
        if remaining <= 0:
            # Window spent (or the backlog already fills the batch): take
            # what is queued right now, never wait further.
            while len(batch) < max_batch:
                try:
                    batch.append(request_queue.get_nowait())
                except queue.Empty:
                    break
            break
        try:
            batch.append(request_queue.get(timeout=remaining))
        except queue.Empty:
            break
    return batch
