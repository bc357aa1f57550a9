"""Pure task kernels shared by every executor engine.

Each fan-out task is a function of ``uint64`` arrays only -- no sense
amplifiers, no accounting, no RNG -- which is the property that makes the
whole execution plane bit-identical by construction: whichever engine
runs a task, and in whatever order, the gathered results are the same
words.  Process workers import this module on their side of the fork;
the inline and thread engines call the same functions in the parent, so
the task bodies are exercised (and coverage-measured) without a pool.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.bitops import (
    KERNEL_BLOCK_ROWS,
    accumulator_dtype,
    _hamming_block,
    _hamming_unit,
    packed_hamming_matrix,
)

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


def selector_height(selector: Selector) -> int:
    """Number of rows a selector covers."""
    if isinstance(selector, tuple):
        return int(selector[1] - selector[0])
    return int(np.asarray(selector).size)


def count_rows(storage: np.ndarray, selector: Selector,
               queries: np.ndarray) -> np.ndarray:
    """One fan-out task: mismatch counts of ``queries`` vs selected rows.

    Returns the ``(num_queries, height)`` ``int64`` count matrix; the
    engine never touches the numbers, so the gather is a pure
    concatenation.
    """
    rows = select_storage_rows(storage, selector)
    # num_threads pinned: parallelism belongs to the engine running this
    # task, and process workers inherit REPRO_EXECUTOR across fork -- an
    # unpinned call would re-enter the plane recursively.
    return packed_hamming_matrix(queries, rows, num_threads=1)


def kernel_spans(rows_a: int,
                 block_rows: int = KERNEL_BLOCK_ROWS) -> List[Tuple[int, int]]:
    """The cache-sized row blocks of the pairwise kernel, as spans."""
    return [(start, min(start + block_rows, rows_a))
            for start in range(0, rows_a, block_rows)]


def fill_block(a: np.ndarray, b: np.ndarray, out: np.ndarray,
               start: int, stop: int) -> None:
    """One kernel block: ``out[start:stop] = hamming(a[start:stop], b)``.

    Delegates to the serial kernel's own block body
    (:func:`repro.bitops._hamming_block`), so every engine computes the
    exact bytes the unthreaded kernel would.
    """
    _hamming_block(a, b, out, start, stop, accumulator_dtype(a.shape[1]))


def fill_span(a_block: np.ndarray, b: np.ndarray,
              out_span: np.ndarray) -> None:
    """Fill a whole output span, chunked into kernel row blocks.

    Process workers receive one contiguous span per worker (to bound the
    per-task pickle count); this walks it in :data:`KERNEL_BLOCK_ROWS`
    steps through the serial kernel's own (column-tiled) block body,
    reusing one set of tile buffers.
    """
    _hamming_unit(a_block, b, out_span, kernel_spans(a_block.shape[0]),
                  (0, b.shape[0]), accumulator_dtype(a_block.shape[1]))


def gather_counts(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Column-wise gather of per-span counts back into one matrix."""
    if len(blocks) == 1:
        return blocks[0]
    return np.concatenate(blocks, axis=1)
