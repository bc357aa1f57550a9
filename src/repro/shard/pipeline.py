"""Scatter-gather search over a row-sharded CAM cluster.

:class:`ShardedCamPipeline` presents the batch-search surface of a single
:class:`~repro.cam.array.CamArray` (``write_rows`` / ``search_batch`` /
``search_batch_packed`` plus the accounting properties) while storing the
rows across ``num_shards`` smaller arrays, each optionally provisioned with
``num_replicas`` identical copies:

1. **scatter** -- writes are split by the :class:`~repro.shard.plan.ShardPlan`
   into per-shard row blocks and mirrored to every replica of each shard;
2. **fan-out** -- a search picks one replica per shard through the
   :class:`~repro.shard.router.ShardRouter` and runs the packed XOR+popcount
   on all shards (inline, or on the worker pool when ``num_workers > 1``);
3. **gather** -- per-shard *raw mismatch counts*
   (:meth:`~repro.cam.array.CamArray.mismatch_counts_packed`) are merged
   back into the global ``(batch, total_rows)`` count matrix, and one
   pipeline-level sense amplifier digitises the populated columns in global
   row order.

Digitising *after* the gather is what makes sharded results bit-identical
to a single array holding all rows: the sense amplifier sees exactly the
flat count stream the unsharded search would produce, so even a noisy
amplifier (seeded identically) reports identical distances.  Energy is the
sum over the selected per-shard searches -- shard occupancies sum to the
total occupancy, so the total matches the single-array search energy --
and latency is the maximum over the (parallel) shards.

Every search -- ``search_batch_packed`` and ``topk_packed``, noisy or
not -- takes its counts from one provider (``_fanout``) with two sources:

* **the packed store** -- the pipeline's packed ``(total_rows, words)``
  matrix, already in global row order.  ``"fused"`` mode (the default)
  runs one vectorised XOR+popcount over it, which spans the CPUs by
  itself: the shards search *in parallel in O(1)* on real hardware, so
  simulating them as N little kernels is pure overhead.  Only the
  ``processes`` engine splits the store, into worker spans in fused mode
  and by shard selectors in ``"ports"`` mode, read zero-copy from a
  SharedMemory segment in worker processes.  Either way energy/latency
  are accounted per selected shard replica analytically, and counts are
  bit-identical to the per-port path because XOR+popcount is row-wise.
* **the ports** -- hardware-faithful per-port execution: each selected
  replica's array runs its own kernel through one per-port call seam,
  fanned out on the :mod:`repro.exec` plane (``inline``, or ``threads``
  sized by the worker budget).  Custom ports without the analytic
  surface (e.g. :class:`~repro.cam.dynamic.DynamicCam`) always use this
  source, and a remote cluster wraps the seam in failover.

A search gathers the counts once and digitises them once.  A top-k takes
one global selection over store counts, or per-port local candidates and
one merge; a noisy amplifier instead reuses the search counts (the full
gather) and selects over the sensed distances.

The packed words are the only copy of the stored rows the pipeline owns.
``add_shard()`` / ``rebalance()`` rebuild the plan and reload the port
matrix online by unpacking just the populated runs of those words;
results before and after are identical because the global row order
never changes.  The packed storage itself is untouched by a rebalance,
so the published segment (and the worker pool reading it) survives; only
``write_rows`` re-publishes, copy-on-write, with in-flight searches
pinning the retired segment via its refcount until they finish.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import nullcontext
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.obs import current_span as _obs_current_span
from repro.obs import default_registry as _default_metrics_registry
from repro.obs import scoped_task as _obs_scoped_task

from repro.bitops import (EXECUTOR_ENV, accumulator_dtype, pack_bits,
                          packed_hamming_matrix, unpack_bits, words_for_bits)
from repro.exec import (
    Executor,
    StorageHandle,
    resolve_executor,
    resolve_executor_name,
    split_rows,
)
from repro.cam.array import CamArray
from repro.cam.sense_amplifier import ClockedSelfReferencedSenseAmp
from repro.cam.topk import (
    GATHER_CYCLES_PER_VALUE,
    TopKResult,
    empty_topk,
    select_topk,
    validate_k,
)
from repro.serve.metrics import notify_all
from repro.shard.plan import ShardPlan
from repro.shard.router import ShardRouter


def _traced_stage(name: str, **attributes: Any):
    """A pipeline-stage span under the ambient trace, or a no-op.

    The serving worker establishes an ambient ``execute`` span before
    calling into the engine (:mod:`repro.obs`); the pipeline attaches its
    ``fanout``/``gather``/``digitise`` stages under it without any tracer
    parameter threading.  With no ambient span (tracing off) the cost is
    one thread-local read per stage per batch.
    """
    parent = _obs_current_span()
    if parent is None or parent.tracer is None:
        return nullcontext()
    return parent.tracer.span(name, attributes=attributes or None)


def _count_fanout(mode: str, queries: int) -> None:
    """Bump the process-default fan-out counters (one call per batch).

    Goes through :func:`repro.obs.metrics.default_registry` on every call
    (get-or-create is one lock + dict hit, amortised over a whole batch)
    so the ``configure_registry`` test seam keeps working.
    """
    registry = _default_metrics_registry()
    registry.counter(
        "shard_fanouts", "Scatter-gather fan-outs by mode",
        labels={"mode": mode}).inc()
    registry.counter(
        "shard_fanout_queries", "Queries scattered across shards by mode",
        labels={"mode": mode}).inc(queries)

#: A shard port: anything with ``write_rows(bits, start_row)`` and
#: ``mismatch_counts_packed(packed) -> (counts, energy_pj, latency_cycles)``
#: (:class:`~repro.cam.array.CamArray` and
#: :class:`~repro.cam.dynamic.DynamicCam` both qualify).
PortFactory = Callable[[int], Any]

#: Fan-out execution modes (see the module docstring).
FANOUT_MODES = ("fused", "ports")

#: Smallest storage span worth handing to a process worker in fused mode;
#: below this the fan-out overhead dwarfs the kernel and the search runs
#: as a single task.
FUSED_SPAN_MIN_ROWS = 256


def validate_row_block(matrix: np.ndarray, word_bits: int, total_rows: int,
                       start_row: int, holder: str) -> np.ndarray:
    """Shared write-path validation of one ``(rows, word_bits)`` bit block.

    One rule set for every multi-array row holder (the sharded pipeline
    and the time-multiplexed baseline), mirroring what
    :meth:`CamArray.write_rows` enforces, so the cluster can never accept
    rows a single array would reject.  Returns the block as an ndarray.
    """
    data = np.asarray(matrix)
    if data.ndim != 2:
        raise ValueError("bits_matrix must be 2-D")
    if data.shape[0] == 0:
        return data
    if data.shape[1] != word_bits:
        raise ValueError(
            f"expected {word_bits} bits per row, got {data.shape[1]}")
    stop = start_row + data.shape[0]
    if start_row < 0 or stop > total_rows:
        raise ValueError(
            f"cannot store {data.shape[0]} rows starting at {start_row}: "
            f"{holder} has only {total_rows} rows")
    if data.size and not np.all((data == 0) | (data == 1)):
        raise ValueError("bits must be 0/1 values")
    return data


class ShardedCamPipeline:
    """A cluster of CAM shards behind the single-array search surface.

    Parameters
    ----------
    total_rows:
        Global row capacity of the cluster.
    word_bits:
        Word width of every shard (the packed-query width).
    num_shards / policy:
        Initial :class:`ShardPlan` geometry (``"contiguous"`` or
        ``"strided"`` row placement).
    num_replicas / routing:
        Copies per shard and the :class:`ShardRouter` selection policy
        (``"round_robin"`` or ``"least_loaded"``).
    port_factory:
        ``rows -> port`` builder for the shard arrays; defaults to plain
        :class:`CamArray` at ``word_bits``.  The ports' own sense
        amplifiers are bypassed -- digitisation happens once, globally.
    sense_amp:
        The cluster's sense amplifier; ``None`` builds the noise-free
        default at ``word_bits``.  To stay bit-identical to a specific
        single array, construct this one with the same parameters and seed.
    fanout:
        ``"fused"`` (default) runs one vectorised kernel over the fused
        storage; ``"ports"`` executes each selected replica's array
        separately.  Ports without the :class:`CamArray` analytic surface
        (``search_energy_pj`` / ``search_latency_cycles``) fall back to
        ``"ports"`` automatically.
    executor:
        Execution-plane engine for the fan-outs: ``"inline"``,
        ``"threads"``, ``"processes"`` or a ready
        :class:`repro.exec.Executor` instance (whose lifecycle the caller
        then owns).  A fused search on an in-process engine is one
        kernel call over the whole store, capped at the engine's worker
        count (``inline`` = 1 CPU); only ``processes`` splits it into
        worker spans.  ``None`` defers to the ``REPRO_EXECUTOR``
        environment variable; when that is unset too, ports mode fans
        out on the default thread engine and fused mode's one kernel
        call spans the usable CPUs (see
        :func:`repro.bitops.packed_hamming_matrix`).  The process engine
        is wrapped in the crash-containment fallback, so a killed worker
        degrades to a bit-identical inline replay.
    num_workers:
        Worker budget of the plane engine (threads or processes).
        ``None``/``0`` mean one worker per CPU; ``1`` keeps every
        fan-out serial, which is optimal on single-core hosts.
    observers:
        :class:`~repro.serve.metrics.ServeObserver`-style listeners; every
        per-shard search emits ``shard_search_completed(shard, replica,
        queries, service_ms)``.
    """

    def __init__(self, total_rows: int, word_bits: int,
                 num_shards: int = 2, policy: str = "contiguous",
                 num_replicas: int = 1, routing: str = "round_robin",
                 port_factory: Optional[PortFactory] = None,
                 sense_amp: Optional[ClockedSelfReferencedSenseAmp] = None,
                 fanout: str = "fused",
                 executor: Optional[Union[str, Executor]] = None,
                 num_workers: Optional[int] = None,
                 observers: Iterable[Any] = ()) -> None:
        if word_bits <= 0:
            raise ValueError("word_bits must be positive")
        if fanout not in FANOUT_MODES:
            raise ValueError(
                f"fanout must be one of {FANOUT_MODES}, got {fanout!r}")
        self.word_bits = int(word_bits)
        self._requested_fanout = fanout
        self.sense_amp = (sense_amp if sense_amp is not None
                          else ClockedSelfReferencedSenseAmp(word_bits=word_bits))
        self._port_factory: PortFactory = (
            port_factory if port_factory is not None
            else (lambda rows: CamArray(rows=rows, word_bits=self.word_bits)))
        self._num_replicas = int(num_replicas)
        self._routing = routing
        self._observers: Tuple[Any, ...] = tuple(observers)
        # The packed words (global row order) are the pipeline's only copy
        # of the stored rows: the fused-mode search operand, and the source
        # rebalance()/add_shard() and repairs reload ports from.
        self._packed = np.zeros(
            (int(total_rows), int(words_for_bits(self.word_bits))),
            dtype=np.uint64)
        self._populated = np.zeros(int(total_rows), dtype=bool)
        # Accounting accrues from returned values, never from port objects,
        # so retiring ports on a rebalance can never lose history.
        self._accounting_lock = threading.Lock()
        self._search_energy_pj = 0.0
        self._write_energy_pj = 0.0
        self._search_count = 0
        self._batches = 0
        # Structure (plan/ports/router) swaps atomically under this lock;
        # searches snapshot it and run lock-free on the snapshot.
        self._state_lock = threading.Lock()
        self._requested_workers = num_workers
        # Execution plane: the spec is pinned at construction (argument,
        # then REPRO_EXECUTOR); the engine itself is resolved lazily so a
        # pipeline that never fans out never spawns a pool.  spec None
        # means "legacy defaults": ports fan out on the default thread
        # engine, fused keeps the single in-process kernel.
        if executor is None:
            executor = os.environ.get(EXECUTOR_ENV, "").strip() or None
        if isinstance(executor, str):
            executor = resolve_executor_name(executor)
        self._executor_spec: Optional[Union[str, Executor]] = executor
        self._owns_plane = not isinstance(executor, Executor)
        self._plane: Optional[Executor] = (
            executor if isinstance(executor, Executor) else None)
        self._storage_handle: Optional[StorageHandle] = None
        self._install(ShardPlan.build(int(total_rows), num_shards, policy))

    # -- structure ---------------------------------------------------------------

    def _build_ports(self, plan: ShardPlan) -> List[List[Any]]:
        """One port per (shard, replica), loaded with the shard's rows."""
        return [[self._load_port(self._new_port(spec, replica), spec,
                                 self._packed, self._populated)
                 for replica in range(self._num_replicas)]
                for spec in plan.shards]

    def _new_port(self, spec: Any, replica: int) -> Any:
        """An empty port for one (shard, replica) slot."""
        return self._port_factory(spec.rows)

    def _load_port(self, port: Any, spec: Any, store: np.ndarray,
                   populated: np.ndarray) -> Any:
        """Load a fresh port with its shard's populated rows; returns it.

        Only the populated rows are unpacked from the packed ``store``, one
        maximal contiguous run at a time, so strided plans still use the
        vectorised bulk write.
        """
        local = np.flatnonzero(populated[spec.global_rows])
        if local.size:
            breaks = np.flatnonzero(np.diff(local) != 1) + 1
            for run in np.split(local, breaks):
                port.write_rows(
                    unpack_bits(store[spec.global_rows[run]], self.word_bits),
                    start_row=int(run[0]))
        return port

    def _install(self, plan: ShardPlan) -> None:
        """Build and atomically swap in the structure for ``plan``.

        Build and swap happen under the state lock so a concurrent
        ``write_rows`` (which also holds it) can never interleave with the
        rebuild -- the new ports always reflect every completed write.
        """
        with self._state_lock:
            ports = self._build_ports(plan)
            locks = [[threading.Lock() for _ in range(self._num_replicas)]
                     for _ in plan.shards]
            router = ShardRouter(plan.num_shards, self._num_replicas,
                                 self._routing)
            # Fused mode needs the ports' analytic accounting surface;
            # custom ports without it (DynamicCam) degrade to per-port
            # execution.
            fanout = self._requested_fanout
            if fanout == "fused" and not all(
                    callable(getattr(port, "search_energy_pj", None))
                    and hasattr(port, "search_latency_cycles")
                    for replicas in ports for port in replicas):
                fanout = "ports"
            self.plan = plan
            self._ports = ports
            self._port_locks = locks
            self.router = router
            self.fanout = fanout
            # The shared-storage ports path needs parent-side accounting
            # (the plane computes counts outside the port objects); ports
            # without the surface run in-process instead.
            self._ports_analytic = all(
                callable(getattr(port, "account_packed_search", None))
                for replicas in ports for port in replicas)
            # A rebalance changes only the plan/ports -- the packed
            # storage (and therefore any published segment) is untouched,
            # so the plane and its worker pool survive every _install.

    def _get_plane_locked(self) -> Executor:
        """The execution-plane engine, resolved lazily and kept for life.

        One engine serves every structure the pipeline ever installs --
        a rebalance never closes it (only :meth:`close` does), so worker
        pools survive plan changes and in-flight searches can always
        still fan out on their snapshot.  Sized by the configured worker
        budget, never by shard count.  Callers hold the state lock.
        """
        if self._plane is None:
            self._plane = resolve_executor(
                self._executor_spec, workers=self._requested_workers)
        return self._plane

    def _ensure_handle_locked(self, plane: Executor) -> StorageHandle:
        """The published packed-storage handle, created on first use.

        In-process engines wrap the array for free; the process engine
        copies it once into a SharedMemory segment that its workers then
        read zero-copy on every search.  Callers hold the state lock.
        """
        if self._storage_handle is None:
            self._storage_handle = plane.publish(self._packed)
        return self._storage_handle

    @staticmethod
    def _shard_selector(spec: Any) -> Union[Tuple[int, int], np.ndarray]:
        """A shard's rows as a plane selector: a span when contiguous.

        Spans slice the published storage zero-copy inside workers;
        strided plans fall back to explicit index arrays.
        """
        rows = np.asarray(spec.global_rows, dtype=np.int64)
        if rows.size and (rows.size == 1 or np.all(np.diff(rows) == 1)):
            return (int(rows[0]), int(rows[-1]) + 1)
        return rows

    def _snapshot_plane_locked(
            self, fanout: str
    ) -> Tuple[Optional[Executor], Optional[StorageHandle], bool]:
        """Plane decisions for one search; the caller holds the state lock.

        Returns ``(plane, handle, shared)``.  ``plane`` is ``None`` only
        for fused mode with no configured engine (the direct kernel).
        ``handle`` is *acquired* for the caller whenever the fan-out
        reads published storage -- the process engine, in fused mode or
        on the shared ports path -- and must be released when the search
        finishes; the acquire is what keeps a concurrently retired
        segment alive until then.  An in-process fused search reads the
        store snapshot directly and needs no handle.
        ``shared`` selects the ports path that computes counts from the
        published global storage with parent-side accounting.
        """
        if fanout == "fused":
            if self._executor_spec is None:
                return None, None, False
            plane = self._get_plane_locked()
            if plane.in_process:
                return plane, None, False
            handle = self._ensure_handle_locked(plane)
            handle.acquire()
            return plane, handle, False
        plane = self._get_plane_locked()
        shared = (not plane.in_process) and self._ports_analytic
        handle = None
        if shared:
            handle = self._ensure_handle_locked(plane)
            handle.acquire()
        return plane, handle, shared

    def _fused_counts(self, packed: np.ndarray,
                      storage: Union[np.ndarray, StorageHandle],
                      plane: Optional[Executor]) -> np.ndarray:
        """The fused kernel over the whole store, in narrow counts.

        In process -- no engine, ``inline`` or ``threads`` -- this is one
        kernel call over the store snapshot, which splits its own work
        across at most ``plane.workers`` CPUs (all usable CPUs without an
        engine).  The process engine splits the published storage rows
        (the long axis) into per-worker spans and concatenates their
        blocks -- bit-identical, because every count is an independent
        ``popcount(XOR)``.  Either way the counts stay in the accumulator
        dtype (``uint16`` for any practical width), which top-k selects
        over and the sense amplifier's table is indexed by directly.
        """
        if plane is None or plane.in_process:
            workers = None if plane is None else plane.workers
            out = np.empty((packed.shape[0], storage.shape[0]),
                           dtype=accumulator_dtype(packed.shape[1]))
            return packed_hamming_matrix(packed, storage,
                                         num_threads=workers, out=out)
        total = storage.rows
        spans = split_rows(total, plane.workers,
                           min_rows=min(total, FUSED_SPAN_MIN_ROWS))
        blocks = plane.hamming_fanout(packed, storage, spans)
        if len(blocks) == 1:
            return blocks[0]
        return np.concatenate(blocks, axis=1)

    def add_shard(self) -> ShardPlan:
        """Grow the cluster by one shard; results are unchanged."""
        self._install(self.plan.grown())
        return self.plan

    def rebalance(self, num_shards: Optional[int] = None,
                  policy: Optional[str] = None) -> ShardPlan:
        """Re-partition the rows online; results are unchanged.

        Reloads every shard array from the pipeline's packed words under
        the new geometry.  In-flight searches finish on the retired ports
        (their contents are identical), and accounting is unaffected
        because the pipeline accrues it from returned values.
        """
        self._install(self.plan.rebalanced(num_shards=num_shards, policy=policy))
        return self.plan

    def add_observers(self, observers: Iterable[Any]) -> None:
        """Attach more per-shard search listeners (e.g. a server's metrics)."""
        with self._state_lock:
            current = self._observers
            self._observers = (*current,
                               *(observer for observer in observers
                                 if not any(observer is seen
                                            for seen in current)))

    def remove_observers(self, observers: Iterable[Any]) -> None:
        """Detach listeners by identity (a stopping server unbinds its own)."""
        dropped = list(observers)
        with self._state_lock:
            self._observers = tuple(
                observer for observer in self._observers
                if not any(observer is drop for drop in dropped))

    def close(self) -> None:
        """Retire the published storage and shut the plane down (idempotent).

        The SharedMemory segment is unlinked as soon as the last in-flight
        search releases its reference; an engine passed in as an instance
        is left running (its owner closes it).  A later search lazily
        resolves a fresh engine, mirroring the old pool behaviour.
        """
        with self._state_lock:
            handle, self._storage_handle = self._storage_handle, None
            plane = self._plane
            if self._owns_plane:
                self._plane = None
        if handle is not None:
            handle.retire()
        if plane is not None and self._owns_plane:
            plane.close()

    # -- contents ----------------------------------------------------------------

    @property
    def rows(self) -> int:
        """Global row capacity of the cluster."""
        return int(self._packed.shape[0])

    @property
    def num_shards(self) -> int:
        """Current number of shards."""
        return self.plan.num_shards

    @property
    def num_replicas(self) -> int:
        """Replicas per shard."""
        return self._num_replicas

    @property
    def occupancy(self) -> int:
        """Number of populated global rows."""
        return int(np.count_nonzero(self._populated))

    @property
    def populated_mask(self) -> np.ndarray:
        """Read-only boolean mask of populated global rows."""
        view = self._populated.view()
        view.flags.writeable = False
        return view

    def write_rows(self, bits_matrix: np.ndarray, start_row: int = 0) -> float:
        """Scatter a row block across the shards (and all their replicas).

        Returns the write energy in pJ summed over every replica written --
        each physical copy costs its own write.
        """
        matrix = validate_row_block(bits_matrix, self.word_bits, self.rows,
                                    start_row, "cluster")
        if matrix.shape[0] == 0:
            return 0.0
        stop = start_row + matrix.shape[0]
        # The whole mutation runs under the state lock so it serialises
        # with _install: a rebalance either sees the write completed (and
        # rebuilds the new ports from it) or happens first (and the write
        # lands in the new ports) -- never a torn mix.  The packed storage
        # and populated mask are replaced copy-on-write, because searches
        # and repairs read their snapshots without the lock and must always
        # see one consistent state.
        with self._state_lock:
            ports, locks = self._ports, self._port_locks
            plan = self.plan
            packed_storage = self._packed.copy()
            packed_storage[start_row:stop] = pack_bits(
                matrix.astype(np.uint8, copy=False))
            populated = self._populated.copy()
            populated[start_row:stop] = True
            self._packed, self._populated = packed_storage, populated
            # Re-publish the plane storage copy-on-write: searches that
            # acquired the old handle keep reading the retired segment
            # until they release it, then its refcount frees it.
            if self._storage_handle is not None:
                retired = self._storage_handle
                self._storage_handle = self._plane.publish(packed_storage)
                retired.retire()
            energy = 0.0
            for spec in plan.shards:
                mask = (spec.global_rows >= start_row) & (spec.global_rows < stop)
                locals_hit = np.nonzero(mask)[0]
                if locals_hit.size == 0:
                    continue
                block = matrix[spec.global_rows[mask] - start_row]
                breaks = np.nonzero(np.diff(locals_hit) != 1)[0] + 1
                runs = list(zip(np.split(locals_hit, breaks),
                                np.split(block, breaks)))

                def write(port: Any, runs=runs) -> float:
                    return sum(port.write_rows(rows, start_row=int(run[0]))
                               for run, rows in runs)

                for replica in range(self._num_replicas):
                    energy += self._port_call(spec.index, replica, ports,
                                              locks, write, failover=False)[0]
        with self._accounting_lock:
            self._write_energy_pj += energy
        return energy

    # -- search ------------------------------------------------------------------

    def search_batch(self, queries: np.ndarray) -> tuple[np.ndarray, float, int]:
        """Bit-matrix batch search (validates and packs, then fans out)."""
        query_matrix = np.asarray(queries)
        if query_matrix.ndim != 2:
            raise ValueError("queries must be a 2-D bit matrix")
        if query_matrix.shape[0] == 0:
            return np.full((0, self.rows), -1, dtype=np.int64), 0.0, 0
        if query_matrix.shape[1] != self.word_bits:
            raise ValueError(
                f"queries must have {self.word_bits} bits, "
                f"got {query_matrix.shape[1]}")
        if not np.all((query_matrix == 0) | (query_matrix == 1)):
            raise ValueError("query bits must be 0/1 values")
        return self.search_batch_packed(
            pack_bits(query_matrix.astype(np.uint8, copy=False)))

    def search_batch_packed(self, packed_queries: np.ndarray) -> tuple[np.ndarray, float, int]:
        """Scatter-gather batch search over already-packed queries.

        Same contract as :meth:`CamArray.search_batch_packed`: returns
        ``(distances, energy_pj, latency_cycles)`` with ``-1`` for
        unpopulated global rows, energy summed over the per-shard searches
        and latency the maximum over the (parallel) shards.
        """
        packed = np.ascontiguousarray(packed_queries, dtype=np.uint64)
        if packed.ndim != 2:
            raise ValueError("packed queries must be a 2-D word matrix")
        num_queries = packed.shape[0]
        if num_queries == 0:
            return np.full((0, self.rows), -1, dtype=np.int64), 0.0, 0
        self._check_words(packed)
        counts, populated, energy, latency, _ = self._fanout(packed)
        distances = np.full((num_queries, self.rows), -1, dtype=np.int64)
        if populated.any():
            with _traced_stage("gather", rows=int(self.rows)):
                gathered = counts[:, populated]
            distances[:, populated] = self._digitise(gathered)
        return distances, energy, latency

    def topk_packed(self, packed_queries: np.ndarray, k: int) -> TopKResult:
        """Top-k scatter-gather search with a *partial* gather.

        The retrieval counterpart of :meth:`search_batch_packed`: instead of
        gathering every shard's full count column set and digitising all
        rows, each shard contributes only its local ``min(k, occupancy)``
        best candidates (selected on raw mismatch counts with the global
        ``(distance, row id)`` tie-break) and the merge keeps the exact
        global top-k -- ``k x shards`` values cross the result bus per query
        instead of ``total_rows``, which is what
        :attr:`~repro.cam.topk.TopKResult.gathered_values` and the gather
        term of ``latency_cycles`` account.

        Results are bit-identical to
        :meth:`CamArray.topk_packed` on one big array holding all rows
        (indices *and* distances): noise-free digitisation is elementwise
        deterministic, so digitising only the merged survivors matches the
        single array's read-out.  A *noisy* cluster amplifier cannot rank
        rows from raw counts, so it falls back to the full gather -- every
        populated row is digitised once in global row order (consuming the
        noise stream exactly as :meth:`search_batch_packed` and the single
        array do) and the top-k is taken over the sensed distances;
        ``gathered_values`` then honestly reports the full gather.

        Degenerate inputs are shaped no-ops like the search paths: an empty
        ``(0, w)`` batch, ``k = 0`` or an unpopulated cluster returns
        zero-sized results without issuing a search.
        """
        k = validate_k(k)
        packed = np.ascontiguousarray(packed_queries, dtype=np.uint64)
        if packed.ndim != 2:
            raise ValueError("packed queries must be a 2-D word matrix")
        num_queries = packed.shape[0]
        k_eff = min(k, self.occupancy)
        if num_queries == 0 or k_eff == 0:
            return empty_topk(num_queries, k_eff)
        self._check_words(packed)
        if getattr(self.sense_amp, "timing_noise_sigma_ps", 0.0) > 0:
            # Full gather: digitise every populated row in global row order
            # (the same flat stream search_batch_packed senses), then
            # select over the sensed distances.
            counts, populated, energy, latency, _ = self._fanout(packed, k)
            sensed = self._digitise(counts[:, populated])
            with _traced_stage("gather", values=int(sensed.size)):
                indices, distances = select_topk(
                    sensed, np.flatnonzero(populated), k_eff, self.rows)
            gathered_per_query = int(sensed.shape[1])
        else:
            (indices, raw), _, energy, latency, gathered_per_query = (
                self._fanout(packed, k, select=True))
            distances = self._digitise(raw)
        gathered = num_queries * gathered_per_query
        return TopKResult(
            indices=indices,
            distances=distances,
            energy_pj=energy,
            latency_cycles=latency + gathered * GATHER_CYCLES_PER_VALUE,
            gathered_values=gathered,
        )

    def _check_words(self, packed: np.ndarray) -> None:
        expected_words = self._packed.shape[1]
        if packed.shape[1] != expected_words:
            raise ValueError(
                f"packed queries must have {expected_words} words, "
                f"got {packed.shape[1]}")

    def _digitise(self, counts: np.ndarray) -> np.ndarray:
        """The cluster sense amplifier over a count block, in row-major order.

        Only a *noisy* amplifier has RNG state to keep race-free; the
        noise-free default digitises lock-free so concurrent replica
        searches never serialise on the O(batch x rows) pass.  Narrow
        counts go to the amplifier as they are: a noise-free one gathers
        its read-out table with them directly.
        """
        noisy = getattr(self.sense_amp, "timing_noise_sigma_ps", 0.0) > 0
        with _traced_stage("digitise", values=int(counts.size)):
            with self._accounting_lock if noisy else nullcontext():
                sensed = self.sense_amp.estimate_distances(counts.reshape(-1))
        return np.asarray(sensed, dtype=np.int64).reshape(counts.shape)

    def _fanout(self, packed: np.ndarray, k: Optional[int] = None,
                select: bool = False) -> tuple:
        """The one count provider behind every search.

        Snapshots the structure, picks one replica per shard and takes raw
        mismatch counts from one of two sources:

        * **the packed store** -- fused mode runs one kernel over it (the
          process engine splits it into worker spans); the process
          engine's analytic ports split it by shard selectors.  Energy and
          latency accrue analytically per selected port.
        * **the ports** -- every selected port runs its own kernel through
          :meth:`_port_call`, the per-port seam a remote cluster wraps in
          failover.

        Without ``select`` the answer is the ``(queries, total_rows)``
        count matrix in global row order (``k`` then only labels the
        fan-out as a top-k: the noisy full gather).  With ``select`` it is
        the exact top-``k`` ``(indices, raw counts)``: one global selection
        over store counts, or per-port candidates
        (:meth:`_port_candidates`) and one merge over the port answers.
        Returns ``(answer, populated, energy, latency,
        gathered_per_query)``; ``populated`` is the snapshot the counts
        belong to.
        """
        with self._state_lock:
            plan, ports, locks = self.plan, self._ports, self._port_locks
            router, fanout = self.router, self.fanout
            plane, handle, shared = self._snapshot_plane_locked(fanout)
            # Copy-on-write snapshots: write_rows swaps whole arrays, so
            # these stay internally consistent for the rest of the search.
            store, populated = self._packed, self._populated
        num_queries = packed.shape[0]
        labels: Dict[str, Any] = {"mode": fanout}
        if k is not None:
            labels["k"] = int(k)
        _count_fanout(fanout if k is None else f"topk_{fanout}", num_queries)
        selection = router.begin_search()
        try:
            # No plane: the fused kernel on its own default split.
            with _traced_stage("fanout", **labels, shards=plan.num_shards,
                               queries=num_queries,
                               executor=getattr(plane, "name", "default")):
                if fanout == "fused" or shared:
                    answers = None
                    started = time.perf_counter()
                    if fanout == "fused":
                        counts = self._fused_counts(
                            packed, handle if handle is not None else store,
                            plane)
                    else:
                        counts = plan.gather_columns(
                            plane.hamming_fanout(
                                packed, handle,
                                [self._shard_selector(spec)
                                 for spec in plan.shards]),
                            np.empty((num_queries, self.rows),
                                     dtype=accumulator_dtype(packed.shape[1])))
                    elapsed_ms = (time.perf_counter() - started) * 1e3
                    costs = []
                    for shard, replica in enumerate(selection):
                        port = ports[shard][replica]
                        if shared:
                            with locks[shard][replica]:
                                costs.append(
                                    port.account_packed_search(num_queries))
                        else:
                            costs.append(
                                (num_queries * port.search_energy_pj(),
                                 num_queries * port.search_latency_cycles))
                        if self._observers:
                            notify_all(self._observers,
                                       "shard_search_completed", shard,
                                       replica, num_queries, elapsed_ms)
                else:
                    # Pool threads don't inherit this thread's ambient trace
                    # scope; scoped_task re-establishes it so the events
                    # the tasks emit still find their fanout parent.
                    def _port_task(shard: int) -> tuple:
                        spec, started = plan.shards[shard], time.perf_counter()
                        op = (partial(self._port_candidates, packed=packed,
                                      k=k, spec=spec, populated=populated)
                              if select else
                              lambda port: port.mismatch_counts_packed(packed))
                        (*answer, cost, latency), replica = self._port_call(
                            shard, selection[shard], ports, locks, op)
                        if self._observers:
                            notify_all(self._observers,
                                       "shard_search_completed", shard,
                                       replica, num_queries,
                                       (time.perf_counter() - started) * 1e3)
                        return answer, (cost, latency)

                    ambient = _obs_current_span()
                    results = plane.run_tasks(
                        [_obs_scoped_task(partial(_port_task, shard), ambient)
                         for shard in range(plan.num_shards)])
                    answers = [answer for answer, _ in results]
                    costs = [cost for _, cost in results]
                    if not select:
                        counts = plan.gather_columns(
                            [answer[0] for answer in answers],
                            np.empty((num_queries, self.rows), dtype=np.int64))
                energy = float(sum(cost for cost, _ in costs))
                latency = max(latency for _, latency in costs)
                gathered_per_query = 0
                if not select:
                    answer = counts
                elif answers is None:
                    # The store is in global row order: the global top-k
                    # over it equals the merge of per-shard top-ks, while
                    # the gather accounting still reports the per-shard
                    # candidate traffic the hardware would move.
                    candidates = (counts if populated.all()
                                  else counts[:, populated])
                    answer = select_topk(
                        candidates, np.flatnonzero(populated), k, self.rows)
                    gathered_per_query = sum(
                        min(k, int(np.count_nonzero(
                            populated[spec.global_rows])))
                        for spec in plan.shards)
                else:
                    with _traced_stage("gather", shards=len(answers)):
                        candidate_ids = np.concatenate(
                            [ids for ids, _ in answers], axis=1)
                        answer = select_topk(
                            np.concatenate([raw for _, raw in answers], axis=1),
                            candidate_ids, k, self.rows)
                    gathered_per_query = int(candidate_ids.shape[1])
        finally:
            router.end_search(selection)
            if handle is not None:
                handle.release()
        with self._accounting_lock:
            self._search_energy_pj += energy
            self._search_count += num_queries * plan.num_shards
            self._batches += 1
        return answer, populated, energy, latency, gathered_per_query

    def _port_call(self, shard: int, replica: int, ports: List[List[Any]],
                   locks: List[List[threading.Lock]], op: Callable[[Any], Any],
                   failover: bool = True) -> Tuple[Any, int]:
        """Run ``op`` on one port under its lock: the per-port seam.

        Every port call -- search, top-k and write -- goes through here.
        Returns ``(result, replica)``, the replica that answered.  An
        in-process port always answers itself; a remote cluster overrides
        this seam to survive replica deaths, failing over to another
        replica of the shard unless ``failover`` is off (writes mirror to
        every replica, so each must land on its own).
        """
        with locks[shard][replica]:
            return op(ports[shard][replica]), replica

    def _port_candidates(self, port: Any, packed: np.ndarray, k: int,
                         spec: Any, populated: np.ndarray) -> tuple:
        """One port's local top-k: ``(global ids, raw, energy, latency)``.

        Each key carries its global row id, so merging the per-port
        candidates yields exactly a single array's selection.
        """
        counts, energy, latency = port.mismatch_counts_packed(packed)
        local = populated[spec.global_rows]
        indices, raw = select_topk(counts[:, local], spec.global_rows[local],
                                   k, self.rows)
        return indices, raw, energy, latency

    # -- accounting ----------------------------------------------------------------

    @property
    def accumulated_search_energy_pj(self) -> float:
        """Total search energy across all shards since construction."""
        with self._accounting_lock:
            return self._search_energy_pj

    @property
    def accumulated_write_energy_pj(self) -> float:
        """Total write energy across all shards and replicas."""
        with self._accounting_lock:
            return self._write_energy_pj

    @property
    def search_count(self) -> int:
        """Per-shard query searches issued (``queries x shards`` per batch)."""
        with self._accounting_lock:
            return self._search_count

    def stats(self) -> Dict[str, Any]:
        """Cluster snapshot: plan, router, plane and accounting counters."""
        with self._state_lock:
            plan, router, fanout = self.plan, self.router, self.fanout
            plane = self._plane
            spec = self._executor_spec
        workers = 0 if plane is None else plane.workers
        if plane is not None:
            executor_name: Optional[str] = plane.name
            executor_stats: Optional[Dict[str, Any]] = plane.stats()
        else:
            executor_name = (spec if isinstance(spec, str)
                             else getattr(spec, "name", None))
            executor_stats = None
        with self._accounting_lock:
            counters = {
                "search_energy_pj": self._search_energy_pj,
                "write_energy_pj": self._write_energy_pj,
                "search_count": self._search_count,
                "batches": self._batches,
            }
        return {
            "total_rows": self.rows,
            "occupancy": self.occupancy,
            "num_shards": plan.num_shards,
            "policy": plan.policy,
            "shard_rows": list(plan.shard_rows),
            "num_replicas": self._num_replicas,
            "fanout": fanout,
            "fanout_workers": workers,
            "executor": executor_name,
            "executor_stats": executor_stats,
            "router": router.stats(),
            **counters,
        }
