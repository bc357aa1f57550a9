"""The thread engine: the in-process kernel plus an object-task pool.

Counts come from the base class's in-process kernel call, which spans up
to the worker budget of CPUs by itself.  What the kernel cannot split is
object work -- ports that hold Python state, remote replicas waiting on
sockets -- so :meth:`ThreadExecutor.run_tasks` fans those out on a
lazily created, persistent ``ThreadPoolExecutor`` sized by the worker
budget (never by shard count).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence

from repro.exec.base import Executor, resolve_workers


class ThreadExecutor(Executor):
    """In-process counts on ``workers`` CPUs; object tasks on a thread pool."""

    name = "threads"
    in_process = True

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__(workers=resolve_workers(workers))
        self._lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None

    def _get_pool(self) -> ThreadPoolExecutor:
        """The pool, spawned on first use so idle engines cost nothing."""
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-exec")
            return self._pool

    def run_tasks(self, fns: Sequence[Callable[[], Any]]) -> List[Any]:
        """Run the tasks on the pool; serial when fanning out cannot help."""
        if self.workers <= 1 or len(fns) <= 1:
            return [fn() for fn in fns]
        return list(self._get_pool().map(lambda fn: fn(), fns))

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
