"""Deterministic top-k selection over CAM distance matrices.

Retrieval-style workloads (k-NN lookup, semantic dedup, cache probing) only
need the ``k`` best rows per query, not the full per-row distance vector a
classification search digitises and gathers.  This module is the shared
selection substrate for that path, used by :class:`~repro.cam.array.CamArray`,
:class:`~repro.cam.dynamic.DynamicCam` and the sharded pipeline's partial
gather:

* selection is over ``(distance, global row id)`` pairs, ascending, so ties
  between equidistant rows always break toward the lower global row id --
  the property that makes a sharded top-k bit-identical to a single-array
  full-sort regardless of shard count, placement policy or fan-out mode;
* the matrix is never sorted or keyed whole: the k-th smallest value of a
  column prefix bounds every query's top-k from above, one vectorised
  comparison filters the candidates down to those at or under the bound,
  and only the survivors are keyed and sorted.

Survivors are fused into one total order by encoding each as a single
``int64`` key ``distance * id_bound + row_id``; distances are bounded by
the word width and row ids by the cluster size, so the product stays far
below 2**63 for any geometry this codebase builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Columns of the bound prefix per requested neighbour: the k-th smallest
#: of ``k * BOUND_PREFIX_PER_K`` columns leaves about ``n / 2048`` survivors
#: per query on uniform distances, while a partition that small stays cheap.
BOUND_PREFIX_PER_K = 2048

#: Read-out cost model of the result gather: each candidate value crossing
#: the result bus costs one accelerator cycle.  A full gather moves every
#: populated row per query; a top-k partial gather moves only the
#: candidates -- the latency lever the retrieval path exists for.
GATHER_CYCLES_PER_VALUE = 1


@dataclass(frozen=True)
class TopKResult:
    """Outcome of one batched top-k CAM search.

    Attributes
    ----------
    indices:
        ``(num_queries, k_eff)`` global row ids of the best matches, sorted
        ascending by ``(distance, row id)``.  ``k_eff = min(k, occupancy)``:
        asking for more neighbours than populated rows returns them all.
    distances:
        ``(num_queries, k_eff)`` sensed Hamming distances aligned with
        ``indices``.
    energy_pj:
        Dynamic search energy of the operation in picojoules (the search
        itself still touches every populated cell -- top-k reduces the
        gather, not the match).
    latency_cycles:
        Search latency plus the gather read-out
        (:data:`GATHER_CYCLES_PER_VALUE` per gathered value per query).
    gathered_values:
        Total candidate values moved over the result bus for the whole
        batch -- ``num_queries * k_eff`` for a single array,
        ``num_queries * sum(min(k, shard_occupancy))`` for a sharded
        partial gather, versus ``num_queries * occupancy`` for a full
        gather.
    """

    indices: np.ndarray
    distances: np.ndarray
    energy_pj: float
    latency_cycles: int
    gathered_values: int

    @property
    def k_eff(self) -> int:
        """Number of neighbours actually returned per query."""
        return int(self.indices.shape[1])


def validate_k(k: int) -> int:
    """Top-k sizes must be non-negative integers (``0`` is a shaped no-op)."""
    size = int(k)
    if size < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return size


def combine_keys(values: np.ndarray, row_ids: np.ndarray,
                 id_bound: int) -> np.ndarray:
    """Fuse ``(value, row_id)`` into one int64 total-order key per candidate.

    ``id_bound`` must exceed every row id (the cluster's total row count
    does).  Broadcasting rules apply: ``row_ids`` may be one shared ``(n,)``
    column vector or a per-query ``(batch, n)`` matrix (the merge step of a
    partial gather, where each query selected different candidates).
    """
    return values.astype(np.int64) * np.int64(id_bound) + row_ids


def select_topk(values: np.ndarray, row_ids: np.ndarray, k: int,
                id_bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic batched top-k (smallest first) with row-id tie-break.

    Parameters
    ----------
    values:
        ``(batch, n)`` non-negative integer distances (raw mismatch counts
        or sensed), of any integer dtype.
    row_ids:
        Global row ids aligned with the columns of ``values`` -- either a
        shared ``(n,)`` vector or a per-query ``(batch, n)`` matrix.
    k:
        Neighbours to keep per query; clamped to ``n``.
    id_bound:
        Exclusive upper bound on row ids (see :func:`combine_keys`).

    Returns
    -------
    (indices, distances):
        ``(batch, k_eff)`` ``int64`` arrays sorted ascending by
        ``(value, row_id)``.

    Exact by construction: the k-th smallest value among any ``k_eff`` or
    more of a query's columns is at least its k-th smallest overall, so
    every top-k member survives the ``values <= bound`` filter, and the
    unique keys order the survivors totally.  Heavy ties only widen the
    survivor set (all-equal rows keep every column).
    """
    matrix = np.asarray(values)
    if matrix.ndim != 2:
        raise ValueError("values must be a 2-D (batch, candidates) matrix")
    batch, candidates = matrix.shape
    k_eff = min(validate_k(k), candidates)
    ids = np.asarray(row_ids, dtype=np.int64)
    if k_eff == 0:
        return (np.zeros((batch, 0), dtype=np.int64),
                np.zeros((batch, 0), dtype=np.int64))
    prefix = matrix[:, :min(candidates, k_eff * BOUND_PREFIX_PER_K)]
    bound = np.partition(prefix, k_eff - 1, axis=1)[:, k_eff - 1]
    rows, columns = np.divmod(np.flatnonzero(matrix <= bound[:, None]),
                              candidates)
    survivors = matrix[rows, columns]
    survivor_ids = ids[columns] if ids.ndim == 1 else ids[rows, columns]
    # Survivors arrive grouped by query (flatnonzero is row-major), each
    # group holding at least k_eff of them; sort within groups by key.
    order = np.lexsort((combine_keys(survivors, survivor_ids, id_bound),
                        rows))
    starts = np.searchsorted(rows, np.arange(batch))
    picked = order[starts[:, None] + np.arange(k_eff)]
    return survivor_ids[picked], survivors[picked].astype(np.int64)


def encode_topk_rows(indices: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Pack ``(batch, k)`` indices + distances into ``(batch, 2k)`` float rows.

    The serving stack moves one fixed-width float64 row per request
    (futures, result cache, ``np.stack``), so a top-k answer travels as
    ``[index_0..index_{k-1}, distance_0..distance_{k-1}]``.  Row ids and
    Hamming distances are small integers, exactly representable in float64,
    so the round-trip through :func:`decode_topk_rows` is lossless.
    """
    idx = np.asarray(indices)
    dist = np.asarray(distances)
    if idx.shape != dist.shape or idx.ndim != 2:
        raise ValueError(
            f"indices {idx.shape} and distances {dist.shape} must be "
            f"matching 2-D arrays")
    return np.concatenate([idx, dist], axis=1).astype(np.float64)


def decode_topk_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split ``(batch, 2k)`` encoded rows back into (indices, distances)."""
    matrix = np.asarray(rows)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.shape[1] % 2 != 0:
        raise ValueError(
            f"encoded top-k rows must have even width, got {matrix.shape[1]}")
    half = matrix.shape[1] // 2
    return (matrix[:, :half].astype(np.int64),
            matrix[:, half:].astype(np.int64))


def empty_topk(num_queries: int, k_eff: int) -> TopKResult:
    """The shaped no-op result of an empty or ``k = 0`` top-k batch."""
    return TopKResult(
        indices=np.zeros((num_queries, k_eff), dtype=np.int64),
        distances=np.zeros((num_queries, k_eff), dtype=np.int64),
        energy_pj=0.0,
        latency_cycles=0,
        gathered_values=0,
    )
