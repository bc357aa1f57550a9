"""repro.exec -- the execution plane.

The packed kernel spans the usable CPUs by itself; the plane adds only
what the kernel cannot do: process workers over zero-copy SharedMemory
storage with crash replay, and object-task fan-out for ports.  Three
interchangeable engines sit behind one interface::

    from repro.exec import resolve_executor

    executor = resolve_executor("processes", workers=4)
    with executor:
        handle = executor.publish(packed_rows)          # one copy, then zero-copy
        counts = executor.hamming_fanout(queries, handle,
                                         [(0, 1024), (1024, 2048)])

``inline`` and ``threads`` compute counts with one in-process kernel call
per selector (capped at one CPU and at the worker budget respectively).
Selection precedence: an explicit ``executor=`` argument, then the shard
config, then the ``REPRO_EXECUTOR`` environment variable, then the
``"threads"`` default.  Results are bit-identical across engines by
construction; see :mod:`repro.exec.base` for the design notes.
"""

from repro.exec.base import (
    DEFAULT_EXECUTOR,
    EXECUTOR_ENV,
    EXECUTOR_NAMES,
    Executor,
    FallbackExecutor,
    StorageHandle,
    WorkerCrashError,
    resolve_executor,
    resolve_executor_name,
    resolve_workers,
    split_rows,
)
from repro.exec.inline import InlineExecutor
from repro.exec.processes import (
    CrashInjector,
    ProcessExecutor,
    SharedPackedStorage,
)
from repro.exec.threads import ThreadExecutor

__all__ = [
    "DEFAULT_EXECUTOR",
    "EXECUTOR_ENV",
    "EXECUTOR_NAMES",
    "CrashInjector",
    "Executor",
    "FallbackExecutor",
    "InlineExecutor",
    "ProcessExecutor",
    "SharedPackedStorage",
    "StorageHandle",
    "ThreadExecutor",
    "WorkerCrashError",
    "resolve_executor",
    "resolve_executor_name",
    "resolve_workers",
    "split_rows",
]
