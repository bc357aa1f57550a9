"""NumPy's BLAS runs on the calling thread: repro owns in-process parallelism.

The packed kernel (:func:`repro.bitops.packed_hamming_matrix`) spans the
usable CPUs on a pool whose idle threads block.  OpenBLAS -- the BLAS in
NumPy's wheels -- keeps a second pool whose helper threads *spin* between
calls, and it hands every GEMM above ~0.26 M multiply-adds to them, the
hash GEMM of a serving micro-batch included.  When the scheduler parks a
spinning helper on the CPU of the thread waiting for it, each call waits
out a time slice: on a 2-vCPU Intel Xeon VM a 64-row hash GEMM of the
serving demo took ~15 ms instead of ~0.3 ms for whole runs, and
micro-batching fell from ~10x to ~1.6x over batch-1 serving.  A one-thread
BLAS never waits on another thread; on that VM the four ``perfbench``
workloads measured within their run-to-run spread with it.

:func:`cap_blas_threads` runs when :mod:`repro` is imported.  An explicit
``OPENBLAS_NUM_THREADS`` in the environment wins: the cap is skipped.
"""

from __future__ import annotations

import ctypes
import os

import numpy  # noqa: F401 -- loads the BLAS that the cap applies to


def _loaded_openblas() -> list[ctypes.CDLL]:
    """The OpenBLAS libraries mapped into this process (Linux only)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower()}
    except OSError:
        return []
    libraries = []
    for path in sorted(paths):
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libraries


def _openblas_symbol(library: ctypes.CDLL, stem: str):
    """``stem`` under the plain, ILP64 (``64_``) or ``scipy_`` wheel names."""
    for name in (f"openblas_{stem}", f"openblas_{stem}64_",
                 f"scipy_openblas_{stem}", f"scipy_openblas_{stem}64_"):
        if hasattr(library, name):
            return getattr(library, name)
    return None


def blas_thread_counts() -> list[int]:
    """Thread count of every loaded OpenBLAS that reports one."""
    getters = [_openblas_symbol(library, "get_num_threads")
               for library in _loaded_openblas()]
    return [int(getter()) for getter in getters if getter is not None]


def cap_blas_threads(count: int = 1) -> int:
    """Cap every loaded OpenBLAS at ``count`` threads; return how many took it.

    Returns 0 -- and changes nothing -- when ``OPENBLAS_NUM_THREADS`` is
    set, when no OpenBLAS is loaded (another BLAS, or no
    ``/proc/self/maps``), or when a library exposes no setter.
    """
    if os.environ.get("OPENBLAS_NUM_THREADS"):
        return 0
    setters = [_openblas_symbol(library, "set_num_threads")
               for library in _loaded_openblas()]
    for setter in setters:
        if setter is not None:
            setter(ctypes.c_int(count))
    return sum(setter is not None for setter in setters)
