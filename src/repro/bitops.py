"""Bit-packed signature kernels: pack/unpack and XOR+popcount Hamming distance.

The paper's CAM computes per-row Hamming distances in O(1) inside the
array; the software-exact counterpart in this repository was originally a
dense +-1 int16 GEMM over *unpacked* uint8 bit matrices.  This module is the
packed replacement: signatures are stored as little-endian ``uint64`` words
(64 bits per word, trailing bits zero-padded) and pairwise distances are
computed as ``popcount(a XOR b)`` summed over words.  Compared to the GEMM
path this moves 8-64x less memory per signature and does one popcount per 64
bits instead of 64 multiply-accumulates, which is the canonical fast path
for LSH/Hamming workloads.

Two popcount backends are provided:

* ``np.bitwise_count`` (NumPy >= 2.0) -- a single vectorised ufunc; and
* a 256-entry ``uint8`` lookup table applied to the byte view of the packed
  words -- the portable fallback, also kept importable so the equivalence
  tests can pin both backends against each other.

Both backends are bit-exact; :func:`packed_hamming_matrix` is bit-exact
against the naive XOR-sum over unpacked bits for any bit length, including
lengths not divisible by 8 or 64 (the zero padding cancels in the XOR).

Like the CAM banks that search their rows at the same time, the kernel
spans every usable CPU (:func:`usable_cpus`) by default: it splits its row
blocks, or the column tiles of a single block, into contiguous units and
runs them on the calling thread plus one module thread pool.  The XOR,
popcount and add ufuncs release the GIL on tiles this large, and every
count is an independent ``popcount(XOR)``, so the split changes no bit of
the answer.  ``num_threads=1`` keeps a call serial.

This module is deliberately a *leaf*: it depends on NumPy only.  Both
``repro.core`` (hashing, simulator) and ``repro.cam`` (array storage and
search) build on these kernels, so the implementation must not import
either package.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

#: Bits per packed storage word.
WORD_BITS: int = 64

#: Bytes per packed storage word.
WORD_BYTES: int = WORD_BITS // 8

#: Number of 1-bits in each possible byte value (the classic popcount LUT).
POPCOUNT_LUT: np.ndarray = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint8
)
POPCOUNT_LUT.flags.writeable = False

#: Whether the vectorised popcount ufunc is available (NumPy >= 2.0).
HAVE_BITWISE_COUNT: bool = hasattr(np, "bitwise_count")

#: Largest bit length the legacy +-1 int16 GEMM path can handle without
#: overflow: the agreement matrix lies in [-k, k], so k must fit in int16.
INT16_SAFE_MAX_BITS: int = int(np.iinfo(np.int16).max)

#: Row-block size of the blocked kernel: the unit of work the kernel's own
#: split hands out.  Cache residency comes from the column tiling below,
#: not from this bound.
KERNEL_BLOCK_ROWS: int = 512

#: Target elements per kernel tile (block height x tile columns).  Each
#: element costs 8 bytes of XOR, 1 of popcount and 2 of accumulator, so
#: the tile buffers no longer grow with ``rows_b``: about 3 MB for blocks
#: of up to 32 rows, 46 MB for a full 512-row block.
KERNEL_TILE_ELEMENTS: int = 1 << 18

#: Narrowest column tile: below this the per-call ufunc overhead costs
#: more than the cache saves, and every short operand stays one tile.
KERNEL_MIN_TILE_COLUMNS: int = 8192

#: Environment variable selecting the execution-plane engine
#: (``inline`` / ``threads`` / ``processes``) of sharded clusters.  The
#: kernel never reads it; it is defined in this leaf module so
#: :mod:`repro.exec` and its callers share one name without a cycle.
EXECUTOR_ENV: str = "REPRO_EXECUTOR"

_POOL_LOCK = threading.Lock()
_POOL: ThreadPoolExecutor | None = None
_USABLE_CPUS: int | None = None


def usable_cpus() -> int:
    """CPUs this process may run on, computed once per process.

    The scheduler affinity mask where the platform has one (so a
    ``taskset``- or cpuset-limited process never oversubscribes),
    otherwise ``os.cpu_count()``.
    """
    global _USABLE_CPUS
    if _USABLE_CPUS is None:
        try:
            count = len(os.sched_getaffinity(0))
        except AttributeError:
            count = os.cpu_count() or 1
        _USABLE_CPUS = max(1, count)
    return _USABLE_CPUS


def resolve_num_threads(num_threads: int | None = None) -> int:
    """Worker cap of the kernel: ``None`` or ``0`` mean :func:`usable_cpus`.

    An explicit positive count is honoured as given (``1`` = serial).
    """
    if num_threads is None or int(num_threads) == 0:
        return usable_cpus()
    num_threads = int(num_threads)
    if num_threads < 0:
        raise ValueError("num_threads must be non-negative")
    return num_threads


def _kernel_pool() -> ThreadPoolExecutor:
    """The module's kernel pool: ``usable_cpus() - 1`` threads, made once.

    The calling thread runs one unit of every split call itself, so the
    pool plus the caller cover every usable CPU.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max_workers=max(1, usable_cpus() - 1),
                                       thread_name_prefix="repro-hamming")
        return _POOL


def _reset_after_fork() -> None:
    """Drop the pool and CPU count a forked child inherited.

    The child gets the pool object but not its threads, so a split call
    would queue forever; the lock may have been held at the fork.
    """
    global _POOL, _POOL_LOCK, _USABLE_CPUS
    _POOL, _POOL_LOCK, _USABLE_CPUS = None, threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def words_for_bits(bit_length: int) -> int:
    """Number of 64-bit storage words needed for ``bit_length`` bits."""
    if bit_length <= 0:
        raise ValueError("bit_length must be positive")
    return -(-int(bit_length) // WORD_BITS)


def popcount_lut(words: np.ndarray) -> np.ndarray:
    """Per-element popcount via the byte LUT (portable fallback backend)."""
    data = np.ascontiguousarray(words, dtype=np.uint64)
    counts = POPCOUNT_LUT[data.view(np.uint8)]
    return counts.reshape(data.shape + (WORD_BYTES,)).sum(axis=-1, dtype=np.int64)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint64`` array (fast backend if available)."""
    data = np.asarray(words, dtype=np.uint64)
    if HAVE_BITWISE_COUNT:
        return np.bitwise_count(data).astype(np.int64)
    return popcount_lut(data)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 bits along the last axis into little-endian ``uint64`` words.

    Parameters
    ----------
    bits:
        ``(..., k)`` array of 0/1 values (any integer/bool dtype; nonzero is
        treated as 1, matching ``np.packbits``).

    Returns
    -------
    np.ndarray
        ``(..., ceil(k / 64))`` array of ``uint64`` words.  Trailing bits of
        the last word are zero, so XORs between equally sized packings never
        see padding mismatches.
    """
    data = np.asarray(bits)
    if data.ndim == 0:
        raise ValueError("bits must have at least one dimension")
    bit_length = data.shape[-1]
    if bit_length == 0:
        raise ValueError("bits must have at least one bit along the last axis")
    words = words_for_bits(bit_length)
    # np.packbits interprets uint8/bool elements as booleans (nonzero -> 1);
    # wider dtypes must be thresholded explicitly, not astype-truncated,
    # or values like 256 would wrap to 0 and drop bits.
    if data.dtype not in (np.uint8, np.bool_):
        data = data != 0
    packed_bytes = np.packbits(data, axis=-1, bitorder="little")
    padded = np.zeros(data.shape[:-1] + (words * WORD_BYTES,), dtype=np.uint8)
    padded[..., : packed_bytes.shape[-1]] = packed_bytes
    return padded.view(np.uint64)


def unpack_bits(packed: np.ndarray, bit_length: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: recover the ``(..., bit_length)`` bits."""
    data = np.ascontiguousarray(packed, dtype=np.uint64)
    if data.ndim == 0:
        raise ValueError("packed must have at least one dimension")
    if words_for_bits(bit_length) != data.shape[-1]:
        raise ValueError(
            f"bit_length {bit_length} needs {words_for_bits(bit_length)} words, "
            f"packed array has {data.shape[-1]}"
        )
    as_bytes = data.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :bit_length]


def accumulator_dtype(word_count: int) -> np.dtype:
    """Narrowest dtype that cannot overflow a row's popcount.

    ``uint16`` up to 1023 words (65472 bits), ``int64`` beyond.  Pass an
    array of this dtype as ``out=`` to :func:`packed_hamming_matrix` to
    keep the counts narrow.
    """
    max_count = word_count * WORD_BITS
    if max_count <= np.iinfo(np.uint16).max:
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


def packed_hamming_vector(query: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Hamming distances between one packed query and many packed rows.

    Parameters
    ----------
    query:
        ``(words,)`` packed signature.
    matrix:
        ``(rows, words)`` packed signatures.

    Returns
    -------
    np.ndarray
        ``(rows,)`` ``int64`` distances.  This is the 1-vs-many hot path of
        :meth:`repro.cam.array.CamArray.search`.
    """
    q = np.asarray(query, dtype=np.uint64).ravel()
    m = np.asarray(matrix, dtype=np.uint64)
    if m.ndim != 2:
        raise ValueError("matrix must be 2-D (rows, words)")
    if q.size != m.shape[1]:
        raise ValueError(
            f"query has {q.size} words, matrix rows have {m.shape[1]}"
        )
    return popcount(m ^ q[None, :]).sum(axis=1, dtype=np.int64)


def tile_columns(block_rows: int, rows_b: int) -> int:
    """Column tile width of the kernel for these operand shapes.

    ``KERNEL_TILE_ELEMENTS / block_rows`` columns, at least
    :data:`KERNEL_MIN_TILE_COLUMNS`, at most ``rows_b`` (one tile).
    """
    tile = max(KERNEL_MIN_TILE_COLUMNS, KERNEL_TILE_ELEMENTS // max(block_rows, 1))
    return max(1, min(tile, rows_b))


def _popcount_into(words: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = popcount(words)`` elementwise, on either backend."""
    if HAVE_BITWISE_COUNT:
        np.bitwise_count(words, out=out)
    else:
        counts = POPCOUNT_LUT[words.view(np.uint8)]
        counts.reshape(words.shape + (WORD_BYTES,)).sum(axis=-1, out=out)


class _TileBuffers:
    """Reusable buffers of one kernel tile: ``b`` word-major, XOR, count, sum."""

    def __init__(self, height: int, tile: int, word_count: int,
                 acc_dtype: np.dtype) -> None:
        self.word_count = word_count
        self.words = np.empty(word_count * tile, dtype=np.uint64)
        self.xor = np.empty(height * tile, dtype=np.uint64)
        self.count = np.empty(height * tile, dtype=np.uint8)
        self.acc = np.empty(height * tile, dtype=acc_dtype)

    def views(self, height: int, width: int) -> tuple:
        """Contiguous ``(words, width)`` and three ``(height, width)`` views."""
        size = height * width
        words = self.words[:self.word_count * width]
        return ((words.reshape(self.word_count, width),)
                + tuple(buffer[:size].reshape(height, width)
                        for buffer in (self.xor, self.count, self.acc)))


def _hamming_block(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                   start: int, stop: int, acc_dtype: np.dtype,
                   buffers: _TileBuffers | None = None,
                   columns: tuple[int, int] | None = None) -> _TileBuffers:
    """Fill ``out[start:stop, first:last]`` with ``a[start:stop]`` vs ``b``.

    ``columns`` is the ``(first, last)`` range of ``b`` rows to cover
    (all of them by default); ``first`` sits on the tile grid.  Walks the
    range in column tiles of :func:`tile_columns` width.  Each tile is
    first copied word-major, so every XOR below reads one contiguous row
    of words.  Per word the tile is XORed into one buffer, popcounted
    into a second and summed into the accumulator, all through ``out=``;
    the tile's counts then land in ``out`` in ``out``'s dtype.  Returns
    the tile buffers, for the next block of the same range to reuse.
    """
    height = stop - start
    rows_b, word_count = b.shape
    first, last = columns if columns is not None else (0, rows_b)
    tile = tile_columns(min(a.shape[0], KERNEL_BLOCK_ROWS), rows_b)
    if buffers is None:
        buffers = _TileBuffers(height, min(tile, last - first), word_count,
                               acc_dtype)
    rows = a[start:stop]
    for low in range(first, last, tile):
        high = min(low + tile, last)
        words, xor, count, acc = buffers.views(height, high - low)
        np.copyto(words, b[low:high].T)
        for word in range(word_count):
            np.bitwise_xor(rows[:, word, None], words[word], out=xor)
            if word == 0:
                _popcount_into(xor, acc)
            else:
                _popcount_into(xor, count)
                np.add(acc, count, out=acc)
        out[start:stop, low:high] = acc
    return buffers


def _hamming_unit(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                  blocks: list, columns: tuple[int, int],
                  acc_dtype: np.dtype) -> None:
    """One unit of the split kernel: row ``blocks`` x one column range."""
    buffers = None
    for start, stop in blocks:
        buffers = _hamming_block(a, b, out, start, stop, acc_dtype, buffers,
                                 columns)


def _even_groups(count: int, parts: int) -> list[tuple[int, int]]:
    """``parts`` contiguous, non-empty index ranges covering ``range(count)``."""
    bounds = [count * part // parts for part in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def packed_hamming_matrix(a_packed: np.ndarray, b_packed: np.ndarray,
                          num_threads: int | None = None,
                          out: np.ndarray | None = None) -> np.ndarray:
    """Pairwise Hamming distances between two packed signature sets.

    Parameters
    ----------
    a_packed:
        ``(rows_a, words)`` packed signatures.
    b_packed:
        ``(rows_b, words)`` packed signatures.
    num_threads:
        Cap on the CPUs the kernel spans.  ``None`` (default) or ``0``
        mean :func:`usable_cpus`; ``1`` keeps the call serial in the
        calling thread.
    out:
        Optional ``(rows_a, rows_b)`` integer array to write the distances
        into, as with a NumPy ufunc.  Its dtype must hold every count:
        :func:`accumulator_dtype` (``uint16`` up to 1023 words) is the
        narrowest, and skips the widening to ``int64``.

    Returns
    -------
    np.ndarray
        ``(rows_a, rows_b)`` distance matrix -- ``out`` when given, else a
        new ``int64`` array -- bit-exact against the naive XOR-sum over
        the unpacked bits (every split runs the same block body over
        disjoint parts of the output, so serial and split results are
        identical).

    The kernel blocks ``rows_a`` into :data:`KERNEL_BLOCK_ROWS` rows and
    tiles ``rows_b`` by :func:`tile_columns`, iterating over the (few)
    words inside each tile so its temporaries stay cache-resident;
    distances accumulate in the narrowest dtype that cannot overflow.

    The work spans up to ``num_threads`` CPUs: contiguous groups of the
    row blocks when there are several, else contiguous groups of the
    column tiles, so a few queries against a long store split too.  Each
    unit owns its tile buffers and writes its own slice of ``out``; the
    calling thread runs the first unit and the module's kernel pool the
    rest.  A single unit -- at most one block of one tile -- runs inline.
    """
    a = np.ascontiguousarray(a_packed, dtype=np.uint64)
    b = np.ascontiguousarray(b_packed, dtype=np.uint64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("both operands must be 2-D packed matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"operands disagree on word count: {a.shape[1]} vs {b.shape[1]}"
        )
    rows_a, word_count = a.shape
    rows_b = b.shape[0]
    acc_dtype = accumulator_dtype(word_count)
    if out is not None:
        if out.shape != (rows_a, rows_b):
            raise ValueError(
                f"out has shape {out.shape}, expected {(rows_a, rows_b)}")
        if not np.can_cast(acc_dtype, out.dtype):
            raise ValueError(
                f"out dtype {out.dtype} cannot hold {word_count}-word "
                f"counts; use {acc_dtype} or wider")
    if out is None:
        out = np.empty((rows_a, rows_b), dtype=np.int64)
    if rows_a == 0 or rows_b == 0:
        return out
    blocks = [(start, min(start + KERNEL_BLOCK_ROWS, rows_a))
              for start in range(0, rows_a, KERNEL_BLOCK_ROWS)]
    tile = tile_columns(blocks[0][1], rows_b)
    tiles = -(-rows_b // tile)
    splits = len(blocks) if len(blocks) > 1 else tiles
    groups = _even_groups(splits, min(resolve_num_threads(num_threads), splits))
    if len(blocks) > 1:
        units = [(blocks[low:high], (0, rows_b)) for low, high in groups]
    else:
        units = [(blocks, (low * tile, min(high * tile, rows_b)))
                 for low, high in groups]
    pending = [_kernel_pool().submit(_hamming_unit, a, b, out, *unit,
                                     acc_dtype)
               for unit in units[1:]]
    try:
        _hamming_unit(a, b, out, *units[0], acc_dtype)
    finally:
        wait(pending)
    for future in pending:
        future.result()
    return out
