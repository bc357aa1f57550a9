"""Pure task kernels shared by every executor engine.

Each fan-out task is a function of ``uint64`` arrays only -- no sense
amplifiers, no accounting, no RNG -- which is the property that makes the
whole execution plane bit-identical by construction: whichever engine
runs a task, and in whatever order, the gathered results are the same
words.  Process workers import this module on their side of the fork;
the in-process engines call the same functions in the parent, so the
task bodies are exercised (and coverage-measured) without a pool.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.bitops import accumulator_dtype, packed_hamming_matrix

#: A row selector: a contiguous ``(start, stop)`` span or an explicit
#: ``int64`` index array (strided shard plans).
Selector = Union[Tuple[int, int], np.ndarray]


def normalize_selector(selector: Selector, total_rows: int) -> Selector:
    """Validate a selector against the storage height and canonicalise it."""
    if isinstance(selector, tuple):
        start, stop = int(selector[0]), int(selector[1])
        if not 0 <= start <= stop <= total_rows:
            raise ValueError(
                f"span ({start}, {stop}) out of range for {total_rows} rows")
        return (start, stop)
    rows = np.asarray(selector, dtype=np.int64)
    if rows.ndim != 1:
        raise ValueError("index selectors must be 1-D")
    if rows.size and (rows.min() < 0 or rows.max() >= total_rows):
        raise ValueError(
            f"row indices out of range for {total_rows} rows")
    return rows


def select_storage_rows(storage: np.ndarray, selector: Selector) -> np.ndarray:
    """The selected rows: a zero-copy view for spans, a copy for indices."""
    if isinstance(selector, tuple):
        return storage[selector[0]:selector[1]]
    return storage[selector]


def count_rows(storage: np.ndarray, selector: Selector,
               queries: np.ndarray, num_threads: int = 1) -> np.ndarray:
    """One fan-out task: mismatch counts of ``queries`` vs selected rows.

    Returns the ``(num_queries, height)`` count matrix in the narrow
    :func:`~repro.bitops.accumulator_dtype` (``uint16`` for any practical
    width), which is what a process worker pickles back; the engine never
    touches the numbers, so the gather is a pure concatenation.
    """
    rows = select_storage_rows(storage, selector)
    out = np.empty((queries.shape[0], rows.shape[0]),
                   dtype=accumulator_dtype(queries.shape[1]))
    # Serial by default: the engine running this task owns the
    # parallelism (one task per process worker), so the kernel must not
    # span the CPUs again underneath it.
    return packed_hamming_matrix(queries, rows, num_threads=num_threads,
                                 out=out)
