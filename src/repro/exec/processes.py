"""The process engine: true-parallel fan-out over SharedMemory storage.

The in-process engines run the packed kernel in the caller's process;
this engine runs it in ``multiprocessing`` workers, one storage span or
shard selector per task.  The design keeps the inter-process traffic
asymptotically small:

* **storage is published once** -- :meth:`ProcessExecutor.publish` copies
  the packed ``uint64`` row matrix into one
  :class:`multiprocessing.shared_memory.SharedMemory` segment.  Workers
  attach by name on first use and then read the rows **zero-copy** for
  every subsequent search (an ``np.ndarray`` view over the mapped
  buffer); only the (small) query batch and the per-task counts cross
  the pipe.
* **workers are lazy and reaped** -- the pool spawns on first task,
  survives across storage swaps and rebalances, and an idle timer
  shuts it down after :attr:`ProcessExecutor.idle_reap_s` without
  traffic (the next task respawns it).

A worker death (kill -9, OOM reaper, segfault) breaks the pool;
the engine converts that into a typed :class:`WorkerCrashError` and
discards the pool so the next task starts a fresh one.  Stacked under
:class:`~repro.exec.base.FallbackExecutor` (the default wiring of
``resolve_executor("processes")``), the crashed batch is replayed inline
and callers never observe the crash -- tasks are pure, so the replay is
bit-identical.

Segment hygiene: the parent registers every segment it creates with the
``multiprocessing`` resource tracker and unlinks it when the handle's
last reference drops; workers *unregister* their attachments immediately
(attaching registers too -- CPython issue bpo-39959 -- and a worker exit
must never unlink a segment the parent still serves from).  Worker-side
attachments live in a small LRU so long-lived pools cannot accumulate
mappings of retired segments.
"""

from __future__ import annotations

import itertools
import os
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from multiprocessing import shared_memory
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exec import tasks
from repro.exec.base import (
    Executor,
    Selector,
    StorageHandle,
    WorkerCrashError,
    resolve_workers,
)

#: Default idle window after which the worker pool is reaped.
DEFAULT_IDLE_REAP_S: float = 30.0

#: Worker-side attachment cache size (segments, LRU).
ATTACH_CACHE_SEGMENTS: int = 8

_SEGMENT_COUNTER = itertools.count()


def _segment_name() -> str:
    """A unique, recognisable segment name (helps leak forensics)."""
    return f"repro_exec_{os.getpid()}_{next(_SEGMENT_COUNTER)}"


class SharedPackedStorage(StorageHandle):
    """A packed row matrix published into one SharedMemory segment.

    The parent-side :attr:`array` is a view over the mapped buffer (the
    publish itself is the only copy); workers attach to
    :attr:`segment_name` and build the same view.  Destruction -- last
    ``release()`` after ``retire()`` -- closes the parent mapping and
    unlinks the segment.
    """

    def __init__(self, packed: np.ndarray) -> None:
        data = np.ascontiguousarray(packed, dtype=np.uint64)
        if data.ndim != 2:
            raise ValueError("published storage must be 2-D (rows, words)")
        self._shm = shared_memory.SharedMemory(
            create=True, name=_segment_name(),
            size=max(1, data.nbytes))
        view = np.ndarray(data.shape, dtype=np.uint64, buffer=self._shm.buf)
        view[...] = data
        super().__init__(view)

    # StorageHandle.__init__ calls ascontiguousarray, which preserves the
    # shm-backed view (already contiguous uint64), so self._array aliases
    # the segment -- no second copy.

    @property
    def segment_name(self) -> str:
        """Name workers attach to."""
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Mapped size of the segment."""
        return int(self._shm.size)

    def _destroy(self) -> None:
        # Drop the view before closing the mapping, else BufferError.
        self._array = np.empty((0, 0), dtype=np.uint64)
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double-unlink race
            pass


# -- worker side -----------------------------------------------------------------

_ATTACHMENTS: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach (or reuse) a segment in this worker, LRU-capped.

    Attaching re-registers the segment name with the resource tracker
    (bpo-39959), but multiprocessing children share the parent's tracker
    process and its name cache is a set, so the duplicate is a no-op and
    the parent's single unlink-time unregister balances the books.
    Workers therefore leave the tracker strictly alone.
    """
    segment = _ATTACHMENTS.get(name)
    if segment is not None:
        _ATTACHMENTS.move_to_end(name)
        return segment
    segment = shared_memory.SharedMemory(name=name)
    _ATTACHMENTS[name] = segment
    while len(_ATTACHMENTS) > ATTACH_CACHE_SEGMENTS:
        _, stale = _ATTACHMENTS.popitem(last=False)
        stale.close()
    return segment


def _view(name: str, shape: Tuple[int, ...]) -> np.ndarray:
    """Zero-copy ``uint64`` view over an attached segment."""
    return np.ndarray(shape, dtype=np.uint64, buffer=_attach(name).buf)


def _maybe_crash(crash: bool) -> None:
    """Fault-injection hook: die exactly like an OOM-killed worker."""
    if crash:
        os.kill(os.getpid(), signal.SIGKILL)


def _task_count_rows(name: str, shape: Tuple[int, int], selector: Selector,
                     queries: np.ndarray, crash: bool = False) -> np.ndarray:
    """Worker body of :meth:`ProcessExecutor.hamming_fanout` (one selector)."""
    _maybe_crash(crash)
    storage = _view(name, shape)
    return tasks.count_rows(storage, selector, queries)


# -- parent side -----------------------------------------------------------------


class CrashInjector:
    """Deterministic fault injection for the crash-containment tests.

    ``arm(n)`` makes the next ``n`` submitted tasks kill their worker
    with ``SIGKILL`` before touching any data -- the exact failure mode
    of an OOM-reaped worker, injected at a chosen point instead of a
    random one (the FlakyTransport philosophy: seeded faults, not flaky
    tests).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._armed = 0
        self.injected = 0

    def arm(self, count: int = 1) -> None:
        with self._lock:
            self._armed += int(count)

    def take(self) -> bool:
        with self._lock:
            if self._armed <= 0:
                return False
            self._armed -= 1
            self.injected += 1
            return True


class ProcessExecutor(Executor):
    """True-parallel fan-out on a lazily spawned process pool.

    Parameters
    ----------
    workers:
        Worker processes (``None``/``0`` = one per CPU).
    idle_reap_s:
        Idle window after which the pool is shut down; the next task
        respawns it.  ``None`` disables reaping.
    mp_context:
        ``multiprocessing`` context (default: the platform default --
        ``fork`` on Linux, which makes lazy spawn cheap).
    crash_injector:
        Optional :class:`CrashInjector` consulted once per task.
    """

    name = "processes"
    in_process = False

    def __init__(self, workers: Optional[int] = None,
                 idle_reap_s: Optional[float] = DEFAULT_IDLE_REAP_S,
                 mp_context: Any = None,
                 crash_injector: Optional[CrashInjector] = None) -> None:
        super().__init__(workers=resolve_workers(workers))
        self.idle_reap_s = idle_reap_s
        self._mp_context = mp_context
        self.crash_injector = crash_injector
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._reap_timer: Optional[threading.Timer] = None
        self._last_use = 0.0
        self._spawned_pools = 0
        self._crashes = 0
        self._tasks = 0

    # -- pool lifecycle ----------------------------------------------------------

    def _get_pool(self) -> ProcessPoolExecutor:
        """The pool, spawned lazily so fused-mode clusters never pay for it."""
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=self._mp_context)
                self._spawned_pools += 1
            if self._reap_timer is not None:
                self._reap_timer.cancel()
                self._reap_timer = None
            self._last_use = time.monotonic()
            return self._pool

    def _note_done(self) -> None:
        """Schedule the idle reaper after a completed fan-out."""
        if self.idle_reap_s is None:
            return
        with self._lock:
            if self._pool is None:
                return
            self._last_use = time.monotonic()
            if self._reap_timer is not None:
                self._reap_timer.cancel()
            timer = threading.Timer(self.idle_reap_s, self._reap_if_idle)
            timer.daemon = True
            self._reap_timer = timer
            timer.start()

    def _reap_if_idle(self) -> None:
        with self._lock:
            if self._pool is None or self.idle_reap_s is None:
                return
            if time.monotonic() - self._last_use < self.idle_reap_s * 0.5:
                return  # a task slipped in; its completion rearms the timer
            pool, self._pool = self._pool, None
            self._reap_timer = None
        pool.shutdown(wait=False)

    def _discard_broken_pool(self, pool: ProcessPoolExecutor) -> None:
        with self._lock:
            self._crashes += 1
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False)

    def _submit_all(self, fn: Any, arg_tuples: Sequence[tuple]) -> List[Any]:
        """Submit one task per tuple; typed crash on a broken pool."""
        pool = self._get_pool()
        injector = self.crash_injector
        try:
            futures = []
            for args in arg_tuples:
                crash = injector.take() if injector is not None else False
                futures.append(pool.submit(fn, *args, crash=crash))
            results = [future.result() for future in futures]
        except BrokenExecutor as error:
            self._discard_broken_pool(pool)
            raise WorkerCrashError(
                f"process worker died mid-fan-out ({len(arg_tuples)} tasks "
                f"in flight): {error}") from error
        self._note_done()
        self._tasks += len(arg_tuples)
        return results

    # -- storage -----------------------------------------------------------------

    def publish(self, packed: np.ndarray) -> SharedPackedStorage:
        return SharedPackedStorage(packed)

    def _shared(self, storage: Union[np.ndarray, StorageHandle],
                ) -> Tuple[SharedPackedStorage, bool]:
        """(shared handle, transient?) for any storage argument.

        Raw arrays and plain in-process handles are published for the
        duration of one call -- correct but one memcpy per call; callers
        with long-lived storage should :meth:`publish` once instead.
        """
        if isinstance(storage, SharedPackedStorage):
            return storage, False
        array = storage.array if isinstance(storage, StorageHandle) else storage
        return SharedPackedStorage(array), True

    # -- primitives --------------------------------------------------------------

    def hamming_fanout(self, queries: np.ndarray,
                       storage: Union[np.ndarray, StorageHandle],
                       selectors: Sequence[Selector]) -> List[np.ndarray]:
        if not selectors:
            return []
        handle, transient = self._shared(storage)
        handle.acquire()
        try:
            rows = handle.rows
            shape = tuple(handle.array.shape)
            name = handle.segment_name
            packed = np.ascontiguousarray(queries, dtype=np.uint64)
            normalized = [tasks.normalize_selector(selector, rows)
                          for selector in selectors]
            return self._submit_all(
                _task_count_rows,
                [(name, shape, selector, packed) for selector in normalized])
        finally:
            handle.release()
            if transient:
                handle.retire()

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
            timer, self._reap_timer = self._reap_timer, None
        if timer is not None:
            timer.cancel()
        if pool is not None:
            pool.shutdown(wait=True)

    def stats(self) -> dict:
        with self._lock:
            alive = self._pool is not None
            return {
                "executor": self.name,
                "workers": self.workers,
                "pool_alive": alive,
                "pools_spawned": self._spawned_pools,
                "worker_crashes": self._crashes,
                "tasks_executed": self._tasks,
            }
