"""The execution plane: one fan-out interface, three interchangeable engines.

The packed kernel (:func:`repro.bitops.packed_hamming_matrix`) spans the
usable CPUs by itself, the software counterpart of CAM banks searching
at the same time; it is the only in-process splitter of a count matrix.
The plane keeps just the two jobs the kernel cannot do, behind one small
:class:`Executor` interface with three implementations:

* ``inline``    -- serial reference execution in the calling thread
                   (:class:`~repro.exec.inline.InlineExecutor`);
* ``threads``   -- the same in-process kernel with the engine's worker
                   budget as its CPU cap, plus a thread pool for object
                   tasks -- ports that hold Python state or wait on I/O
                   (:class:`~repro.exec.threads.ThreadExecutor`);
* ``processes`` -- ``multiprocessing`` workers that read the packed
                   ``uint64`` row storage zero-copy out of
                   ``multiprocessing.shared_memory.SharedMemory`` segments,
                   with crash replay
                   (:class:`~repro.exec.processes.ProcessExecutor`).

The engine is selected per call site (an ``executor=`` argument), per
cluster (shard config), or globally through the :data:`EXECUTOR_ENV`
environment variable; :func:`resolve_executor` folds the three sources
into an executor instance.  Results are bit-identical across engines by
construction -- every task is a pure XOR+popcount over ``uint64`` words,
and digitisation/accounting stay in the caller -- which is what lets the
bit-identity property suite act as the oracle for the whole plane.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

# Defined in the leaf kernel module, which cannot import this package;
# re-exported here as the public home.
from repro.bitops import EXECUTOR_ENV, usable_cpus
from repro.exec import tasks
from repro.exec.tasks import Selector
# The leaf metrics module (not the repro.obs package) keeps the exec
# plane import-light and cycle-free.
from repro.obs.metrics import default_registry as _default_metrics_registry

#: The pluggable engines, in cost order.
EXECUTOR_NAMES: Tuple[str, ...] = ("inline", "threads", "processes")

#: Default executor when neither argument nor environment chooses one.
DEFAULT_EXECUTOR: str = "threads"


class WorkerCrashError(RuntimeError):
    """A worker process died mid-task (killed, OOM-reaped, segfaulted).

    Raised by :class:`~repro.exec.processes.ProcessExecutor` when its pool
    breaks; :class:`FallbackExecutor` catches it and replays the batch on
    the fallback engine so layers above the plane never see the crash.
    """


class StorageHandle:
    """A published packed ``uint64`` matrix the executor can fan out over.

    The base class wraps a parent-process array (inline/threads engines
    read it directly); :class:`~repro.exec.processes.SharedPackedStorage`
    subclasses it with a SharedMemory segment workers attach to by name.

    Handles are reference counted so copy-on-write storage swaps stay
    safe under concurrent searches: a search ``acquire()``s the handle it
    snapshotted and ``release()``s it when done, while the owner calls
    :meth:`retire` when it re-publishes -- the backing segment is only
    destroyed when the last in-flight reader releases it.
    """

    def __init__(self, array: np.ndarray) -> None:
        data = np.ascontiguousarray(array, dtype=np.uint64)
        if data.ndim != 2:
            raise ValueError("published storage must be 2-D (rows, words)")
        self._array = data
        self._lock = threading.Lock()
        self._refs = 1
        self._retired = False

    @property
    def array(self) -> np.ndarray:
        """Parent-side view of the published ``(rows, words)`` matrix."""
        return self._array

    @property
    def rows(self) -> int:
        """Row count of the published matrix."""
        return int(self._array.shape[0])

    def acquire(self) -> "StorageHandle":
        """Pin the handle for one in-flight fan-out."""
        with self._lock:
            if self._refs <= 0:
                raise RuntimeError("storage handle already destroyed")
            self._refs += 1
        return self

    def release(self) -> None:
        """Unpin; the last release after :meth:`retire` frees the backing."""
        with self._lock:
            if self._refs <= 0:
                raise RuntimeError("storage handle already destroyed")
            self._refs -= 1
            destroy = self._refs == 0
        if destroy:
            self._destroy()

    def retire(self) -> None:
        """Owner drop: destroy once every in-flight reader has released."""
        with self._lock:
            if self._retired:
                return
            self._retired = True
        self.release()

    def _destroy(self) -> None:  # pragma: no cover - trivial base hook
        """Free the backing storage (overridden by shared-memory handles)."""


class Executor:
    """One fan-out engine behind the execution plane.

    The interface is deliberately narrow and data-parallel: the only
    compute it fans out is ``popcount(queries XOR storage_rows)``, a pure
    function of two ``uint64`` matrices, so results cannot depend on the
    engine.  Everything stateful (sense amplifiers, energy accounting,
    observers) stays in the caller.  The base class is the in-process
    engine; only the process engine overrides the count fan-out.
    """

    #: Registry name of the engine (``"inline"``/``"threads"``/``"processes"``).
    name: str = "abstract"

    #: Whether tasks run in the calling process (object tasks allowed).
    in_process: bool = True

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))

    # -- storage -----------------------------------------------------------------

    def publish(self, packed: np.ndarray) -> StorageHandle:
        """Register packed row storage for fan-outs; returns its handle.

        In-process engines just wrap the array; the process engine copies
        it once into a SharedMemory segment that workers then read
        zero-copy for every subsequent search.
        """
        return StorageHandle(packed)

    @staticmethod
    def as_handle(storage: Union[np.ndarray, StorageHandle]) -> StorageHandle:
        """Accept raw arrays where callers have no long-lived storage."""
        if isinstance(storage, StorageHandle):
            return storage
        return StorageHandle(storage)

    # -- fan-out primitives --------------------------------------------------------

    def hamming_fanout(self, queries: np.ndarray,
                       storage: Union[np.ndarray, StorageHandle],
                       selectors: Sequence[Selector]) -> List[np.ndarray]:
        """Mismatch counts of ``queries`` against each selected row set.

        Returns one ``(num_queries, len(selector))`` count matrix per
        selector, narrow (:func:`~repro.bitops.accumulator_dtype`) -- the
        scatter half of a shard fan-out.  In process, each selector is one
        kernel call in the calling thread, spanning at most
        :attr:`workers` CPUs.
        """
        data = self.as_handle(storage).array
        normalized = [tasks.normalize_selector(selector, data.shape[0])
                      for selector in selectors]
        return [tasks.count_rows(data, selector, queries,
                                 num_threads=self.workers)
                for selector in normalized]

    def run_tasks(self, fns: Sequence[Callable[[], Any]]) -> List[Any]:
        """Generic object-task fan-out (ports holding Python state).

        Engines that cannot ship arbitrary callables (the process pool)
        run them serially in the calling process instead -- a documented
        degradation, never an error, so custom ports (e.g. ``DynamicCam``)
        keep working under every engine.
        """
        return [fn() for fn in fns]

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Release pools and workers (idempotent)."""

    def stats(self) -> dict:
        """Engine snapshot for ``stats()`` surfaces and tests."""
        return {"executor": self.name, "workers": self.workers}

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def split_rows(total_rows: int, parts: int,
               min_rows: int = 1) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` spans covering ``total_rows``.

    At most ``parts`` spans, each at least ``min_rows`` tall (except when
    ``total_rows`` itself is smaller) -- the worker spans of a fused
    search on the process engine.
    """
    if total_rows <= 0:
        return []
    parts = max(1, min(int(parts), -(-total_rows // max(1, int(min_rows)))))
    base, extra = divmod(total_rows, parts)
    spans: List[Tuple[int, int]] = []
    start = 0
    for index in range(parts):
        stop = start + base + (1 if index < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker budget: ``None``/``0`` mean one worker per usable CPU."""
    if workers is None or int(workers) == 0:
        return usable_cpus()
    workers = int(workers)
    if workers < 0:
        raise ValueError("workers must be non-negative")
    return workers


def resolve_executor_name(name: Optional[str] = None) -> str:
    """Fold argument and :data:`EXECUTOR_ENV` into one engine name."""
    if name is None:
        name = os.environ.get(EXECUTOR_ENV, "").strip() or DEFAULT_EXECUTOR
    name = str(name).lower()
    if name not in EXECUTOR_NAMES:
        raise ValueError(
            f"executor must be one of {EXECUTOR_NAMES}, got {name!r}")
    return name


def resolve_executor(spec: Union[str, Executor, None] = None,
                     workers: Optional[int] = None,
                     fallback: bool = True) -> Executor:
    """Build (or pass through) the executor for one fan-out site.

    ``spec`` may be an :class:`Executor` instance (returned as-is -- the
    caller owns its lifecycle), an engine name, or ``None`` to defer to
    ``REPRO_EXECUTOR`` and then the default.  The process engine is
    wrapped in a :class:`FallbackExecutor` over an inline engine unless
    ``fallback=False``, so a crashed worker pool degrades to correct
    serial execution instead of failing the search.
    """
    if isinstance(spec, Executor):
        return spec
    from repro.exec.inline import InlineExecutor
    from repro.exec.processes import ProcessExecutor
    from repro.exec.threads import ThreadExecutor

    name = resolve_executor_name(spec)
    budget = resolve_workers(workers)
    if name == "inline":
        return InlineExecutor()
    if name == "threads":
        return ThreadExecutor(workers=budget)
    executor: Executor = ProcessExecutor(workers=budget)
    if fallback:
        executor = FallbackExecutor(executor, InlineExecutor())
    return executor


class FallbackExecutor(Executor):
    """Crash containment: replay a failed fan-out on a fallback engine.

    Wraps a primary engine (in practice the process pool) and an
    always-safe fallback (inline).  A :class:`WorkerCrashError` from the
    primary is counted, the primary's broken pool is left to respawn
    lazily, and the *whole batch* is retried on the fallback -- tasks are
    pure, so the replayed results are bit-identical to an uncrashed run.
    Layers above the plane (shard/serve/net) never see the crash.
    """

    def __init__(self, primary: Executor, fallback: Executor) -> None:
        super().__init__(workers=primary.workers)
        self.name = primary.name
        # Callers branch on in_process (object tasks vs shared storage);
        # the wrapper must look exactly like the engine it guards.
        self.in_process = primary.in_process
        self.primary = primary
        self.fallback = fallback
        self._lock = threading.Lock()
        self._crashes = 0
        self._fallback_batches = 0

    def _guarded(self, attempt: Callable[[Executor], Any]) -> Any:
        try:
            return attempt(self.primary)
        except WorkerCrashError:
            with self._lock:
                self._crashes += 1
                self._fallback_batches += 1
            registry = _default_metrics_registry()
            registry.counter(
                "exec_worker_crashes",
                "Worker-pool crashes contained by the fallback engine",
                labels={"engine": self.name}).inc()
            registry.counter(
                "exec_fallback_batches",
                "Batches replayed on the fallback engine",
                labels={"engine": self.name}).inc()
            return attempt(self.fallback)

    def publish(self, packed: np.ndarray) -> StorageHandle:
        # The primary's handle keeps a parent-side view, so the fallback
        # engine can read the very same storage during a replay.
        return self.primary.publish(packed)

    def hamming_fanout(self, queries, storage, selectors):
        return self._guarded(
            lambda engine: engine.hamming_fanout(queries, storage, selectors))

    def run_tasks(self, fns):
        return self._guarded(lambda engine: engine.run_tasks(fns))

    def close(self) -> None:
        self.primary.close()
        self.fallback.close()

    def stats(self) -> dict:
        with self._lock:
            crashes, fallbacks = self._crashes, self._fallback_batches
        return {**self.primary.stats(), "worker_crashes": crashes,
                "fallback_batches": fallbacks}
