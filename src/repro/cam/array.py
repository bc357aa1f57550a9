"""Functional and timing model of a single CAM array.

A CAM array stores ``rows`` words of ``word_bits`` bits each.  During a
search the query is broadcast on the search lines, every row compares itself
against the query in parallel, and the per-row match-line discharge time is
digitised by the clocked self-referenced sense amplifiers into per-row
Hamming distances -- all within O(1) time, independent of the number of rows
(paper Sec. II-A).

The model in this module is *bit-accurate* for the stored contents and the
mismatch counts, and *analytical* for energy and latency: search energy is
``cells_active * cell.search_energy_fj`` plus peripheral overhead, and search
latency is a fixed number of accelerator clock cycles per search operation
(precharge + discharge sensing + read-out).

Storage is held bit-packed (``uint64`` words, 64 cells per word) and every
search is one vectorised XOR+popcount over the packed matrix -- mirroring
the hardware, where the comparison happens in all cells at once rather than
cell by cell.  Bits are validated to be 0/1 once, when they are written;
searches only validate the (small) query.  Set ``debug_validate=True`` to
additionally re-check the stored contents on every search, which is useful
when hunting memory-corruption bugs in new kernels but is off the hot path
by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cam.cell import CamCell, FEFET_CAM_CELL
from repro.cam.sense_amplifier import ClockedSelfReferencedSenseAmp
from repro.cam.topk import (
    GATHER_CYCLES_PER_VALUE,
    TopKResult,
    empty_topk,
    select_topk,
    validate_k,
)
from repro.bitops import (
    pack_bits,
    packed_hamming_matrix,
    packed_hamming_vector,
    unpack_bits,
    words_for_bits,
)


def _validate_binary(bits: np.ndarray, what: str) -> np.ndarray:
    """Check 0/1-ness in one vectorised pass and return a uint8 view/copy."""
    data = np.asarray(bits)
    if data.size and not np.all((data == 0) | (data == 1)):
        raise ValueError(f"{what} must be 0/1 values")
    return data.astype(np.uint8, copy=False)


@dataclass(frozen=True)
class CamSearchResult:
    """Outcome of one CAM search operation.

    Attributes
    ----------
    distances:
        Per-row Hamming distances as reported by the sense amplifiers
        (``-1`` for rows that are not populated).
    true_distances:
        Exact per-row Hamming distances (for populated rows).
    energy_pj:
        Dynamic search energy of the operation in picojoules.
    latency_cycles:
        Latency of the operation in accelerator clock cycles.
    matched_rows:
        Indices of populated rows with distance zero (exact matches), kept
        for associative-memory style uses of the array.
    """

    distances: np.ndarray
    true_distances: np.ndarray
    energy_pj: float
    latency_cycles: int
    matched_rows: tuple[int, ...]


class CamArray:
    """A single CAM array of ``rows`` x ``word_bits`` cells.

    Parameters
    ----------
    rows:
        Number of CAM words (rows).
    word_bits:
        Width of each word in bits.
    cell:
        Device model of the cells.
    search_latency_cycles:
        Accelerator cycles consumed by one search (precharge, discharge
        sensing window, sense-amplifier read-out).  DeepCAM runs its CAM at
        300 MHz with a 3-cycle search pipeline by default.
    sense_amp:
        Sense-amplifier model; a noise-free one is constructed by default.
    peripheral_energy_factor:
        Multiplier applied on top of raw cell search energy to account for
        search-line drivers, precharge and sense amplifiers (1.25 = 25 %
        overhead, consistent with EvaCAM-style breakdowns).
    debug_validate:
        Re-validate the stored contents on every search.  Contents are
        always validated at write time; this flag adds a belt-and-braces
        recheck for debugging and is deliberately off the hot path.
    """

    def __init__(self, rows: int, word_bits: int, cell: CamCell = FEFET_CAM_CELL,
                 search_latency_cycles: int = 3,
                 sense_amp: ClockedSelfReferencedSenseAmp | None = None,
                 peripheral_energy_factor: float = 1.25,
                 debug_validate: bool = False) -> None:
        if rows <= 0:
            raise ValueError("rows must be positive")
        if word_bits <= 0:
            raise ValueError("word_bits must be positive")
        if search_latency_cycles <= 0:
            raise ValueError("search_latency_cycles must be positive")
        if peripheral_energy_factor < 1.0:
            raise ValueError("peripheral_energy_factor must be >= 1.0")
        self.rows = int(rows)
        self.word_bits = int(word_bits)
        self.cell = cell
        self.search_latency_cycles = int(search_latency_cycles)
        self.peripheral_energy_factor = float(peripheral_energy_factor)
        self.debug_validate = bool(debug_validate)
        self.sense_amp = sense_amp if sense_amp is not None else ClockedSelfReferencedSenseAmp(
            word_bits=word_bits, cell=cell)
        self._storage_words = int(words_for_bits(self.word_bits))
        self._storage = np.zeros((self.rows, self._storage_words), dtype=np.uint64)
        self._populated = np.zeros(self.rows, dtype=bool)
        self._write_energy_pj = 0.0
        self._search_energy_pj = 0.0
        self._search_count = 0

    # -- contents ------------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Number of populated rows."""
        return int(np.count_nonzero(self._populated))

    @property
    def utilization(self) -> float:
        """Fraction of rows currently populated (the Fig. 9 utilization metric)."""
        return self.occupancy / self.rows

    @property
    def total_cells(self) -> int:
        """Number of cells in the array."""
        return self.rows * self.word_bits

    @property
    def packed_storage(self) -> np.ndarray:
        """Read-only view of the packed ``(rows, words)`` storage matrix."""
        view = self._storage.view()
        view.flags.writeable = False
        return view

    @property
    def populated_mask(self) -> np.ndarray:
        """Read-only ``(rows,)`` boolean mask of populated rows."""
        view = self._populated.view()
        view.flags.writeable = False
        return view

    def area_um2(self) -> float:
        """Cell-array area (peripheral area is covered by the energy model)."""
        return self.total_cells * self.cell.area_um2

    def clear(self) -> None:
        """Erase all rows (contents and occupancy flags)."""
        self._storage[:] = 0
        self._populated[:] = False

    def write_row(self, row: int, bits: np.ndarray) -> float:
        """Store ``bits`` into ``row``; returns the write energy in pJ."""
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range 0..{self.rows - 1}")
        data = np.asarray(bits).ravel()
        if data.size != self.word_bits:
            raise ValueError(f"expected {self.word_bits} bits, got {data.size}")
        self._storage[row] = pack_bits(_validate_binary(data, "bits"))
        self._populated[row] = True
        energy_pj = self._row_write_energy_pj()
        self._write_energy_pj += energy_pj
        return energy_pj

    def write_rows(self, bits_matrix: np.ndarray, start_row: int = 0) -> float:
        """Store several rows starting at ``start_row``; returns write energy in pJ.

        The whole block is validated and packed in one vectorised pass and
        stored with a single slice assignment; energy is one closed-form
        computation (rows are homogeneous) rather than a per-row loop.
        """
        matrix = np.asarray(bits_matrix)
        if matrix.ndim != 2:
            raise ValueError("bits_matrix must be 2-D")
        if start_row < 0 or start_row + matrix.shape[0] > self.rows:
            raise ValueError(
                f"cannot store {matrix.shape[0]} rows starting at {start_row}: "
                f"array has only {self.rows} rows"
            )
        if matrix.shape[0] == 0:
            return 0.0
        if matrix.shape[1] != self.word_bits:
            raise ValueError(
                f"expected {self.word_bits} bits per row, got {matrix.shape[1]}"
            )
        stop = start_row + matrix.shape[0]
        self._storage[start_row:stop] = pack_bits(_validate_binary(matrix, "bits"))
        self._populated[start_row:stop] = True
        energy_pj = matrix.shape[0] * self._row_write_energy_pj()
        self._write_energy_pj += energy_pj
        return energy_pj

    def read_row(self, row: int) -> np.ndarray:
        """Read back a stored row (for verification; not a hardware fast path)."""
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range 0..{self.rows - 1}")
        if not self._populated[row]:
            raise ValueError(f"row {row} is not populated")
        return unpack_bits(self._storage[row], self.word_bits).astype(np.uint8)

    def _row_write_energy_pj(self) -> float:
        return self.word_bits * self.cell.write_energy_fj * 1e-3

    def _debug_recheck_storage(self) -> None:
        """Optional paranoia pass over the packed storage.

        The one corruption mode that skews search results is a nonzero bit
        in the zero-padded tail of the last storage word (the XOR+popcount
        kernel sees all 64 bits of every word).  Re-packing the decoded
        bits must reproduce the storage exactly; any stray padding bit
        breaks that round-trip.
        """
        repacked = pack_bits(unpack_bits(self._storage, self.word_bits))
        if not np.array_equal(repacked, self._storage):
            raise AssertionError(
                "CAM storage corrupted: nonzero padding bits in packed words")

    # -- search --------------------------------------------------------------------

    def search_energy_pj(self) -> float:
        """Dynamic energy of one search over the whole array in pJ."""
        active_cells = self.occupancy * self.word_bits
        raw_fj = active_cells * self.cell.search_energy_fj
        return raw_fj * self.peripheral_energy_factor * 1e-3

    def _pack_queries(self, queries: np.ndarray, what: str) -> np.ndarray:
        """Validate a (batch, word_bits) query block and pack it once."""
        if queries.shape[-1] != self.word_bits:
            raise ValueError(
                f"{what} must have {self.word_bits} bits, got {queries.shape[-1]}"
            )
        return pack_bits(_validate_binary(queries, f"{what} bits"))

    def search(self, query_bits: np.ndarray) -> CamSearchResult:
        """Broadcast ``query_bits`` and return per-row Hamming distances."""
        query = np.asarray(query_bits).ravel()
        packed_query = self._pack_queries(query, "query")
        if self.debug_validate:
            self._debug_recheck_storage()

        mismatches = packed_hamming_vector(packed_query, self._storage)

        true_distances = np.where(self._populated, mismatches, -1).astype(np.int64)
        populated_counts = mismatches[self._populated]
        sensed = np.full(self.rows, -1, dtype=np.int64)
        if populated_counts.size:
            sensed_populated = self.sense_amp.estimate_distances(populated_counts)
            sensed[self._populated] = sensed_populated

        energy = self.search_energy_pj()
        self._search_energy_pj += energy
        self._search_count += 1

        matched = tuple(int(i) for i in np.nonzero((sensed == 0) & self._populated)[0])
        return CamSearchResult(
            distances=sensed,
            true_distances=true_distances,
            energy_pj=energy,
            latency_cycles=self.search_latency_cycles,
            matched_rows=matched,
        )

    def search_batch(self, queries: np.ndarray) -> tuple[np.ndarray, float, int]:
        """Search several queries back to back.

        Returns
        -------
        (distances, energy_pj, latency_cycles):
            ``distances`` has shape ``(num_queries, rows)``; unpopulated rows
            hold ``-1``.  Energy and latency are totals over all queries
            (queries are serialised on the single search port).  An empty
            ``(0, k)`` batch is a no-op: ``(0, rows)`` distances, zero energy
            and latency.

        The whole batch is one packed XOR+popcount (no per-query Python
        loop); the sense amplifiers then digitise every populated (query,
        row) count in a single vectorised read-out.  Results, including the
        noise stream of a noisy sense amplifier, are bit-identical to
        issuing the queries one at a time through :meth:`search`.
        """
        query_matrix = np.asarray(queries)
        if query_matrix.ndim != 2:
            raise ValueError("queries must be a 2-D bit matrix")
        if query_matrix.shape[0] == 0:
            return np.full((0, self.rows), -1, dtype=np.int64), 0.0, 0
        packed_queries = self._pack_queries(query_matrix, "query")
        return self._search_packed_batch(packed_queries)

    def search_batch_packed(self, packed_queries: np.ndarray) -> tuple[np.ndarray, float, int]:
        """Batch search over already-packed ``(num_queries, words)`` queries.

        Same contract as :meth:`search_batch`, but the queries arrive as the
        ``uint64`` words the kernels natively consume (e.g. straight from
        :meth:`repro.core.hashing.RandomProjectionHasher.hash_batch_packed`),
        skipping the bit validation and re-packing entirely -- the serving
        fast path.  Packings must come from :func:`repro.bitops.pack_bits`
        (or equivalent), i.e. with the padding bits of the last word zero;
        stray padding bits would be counted as mismatches.
        """
        packed = np.ascontiguousarray(packed_queries, dtype=np.uint64)
        if packed.ndim != 2:
            raise ValueError("packed queries must be a 2-D word matrix")
        if packed.shape[0] == 0:
            return np.full((0, self.rows), -1, dtype=np.int64), 0.0, 0
        if packed.shape[1] != self._storage_words:
            raise ValueError(
                f"packed queries must have {self._storage_words} words, "
                f"got {packed.shape[1]}"
            )
        return self._search_packed_batch(packed)

    def mismatch_counts_packed(self, packed_queries: np.ndarray) -> tuple[np.ndarray, float, int]:
        """Raw per-row mismatch counts for a packed batch (no sense-amp read-out).

        The scatter-gather substrate of :mod:`repro.shard`: each shard array
        reports the exact XOR+popcount mismatch counts for *all* of its rows
        (unpopulated rows count against the all-zero stored word; mask them
        with :attr:`populated_mask`), so a cluster can reassemble the global
        count matrix and digitise it once, in global row order -- which is
        what keeps sharded results bit-identical to a single array, noise or
        no noise.  Energy, latency and the search counter accrue exactly as
        in :meth:`search_batch_packed`; only the sense-amplifier read-out is
        left to the caller.
        """
        packed = np.ascontiguousarray(packed_queries, dtype=np.uint64)
        if packed.ndim != 2:
            raise ValueError("packed queries must be a 2-D word matrix")
        if packed.shape[0] == 0:
            return np.zeros((0, self.rows), dtype=np.int64), 0.0, 0
        if packed.shape[1] != self._storage_words:
            raise ValueError(
                f"packed queries must have {self._storage_words} words, "
                f"got {packed.shape[1]}"
            )
        return self._mismatch_core(packed)

    def _mismatch_core(self, packed: np.ndarray) -> tuple[np.ndarray, float, int]:
        """Kernel + accounting for a validated, non-empty packed batch."""
        if self.debug_validate:
            self._debug_recheck_storage()
        mismatches = packed_hamming_matrix(packed, self._storage)
        energy, latency = self.account_packed_search(packed.shape[0])
        return mismatches, energy, latency

    def account_packed_search(self, num_queries: int) -> tuple[float, int]:
        """Accrue search counters for a packed batch computed off-array.

        The execution plane can evaluate this array's rows outside the
        object -- process workers reading the cluster's shared packed
        storage -- but the analytic cost model is per-array state, so
        accounting stays on this side.  Charges exactly what an in-array
        :meth:`search_batch_packed` of ``num_queries`` queries would and
        returns the ``(energy_pj, latency_cycles)`` pair for the batch.
        """
        num_queries = int(num_queries)
        energy = num_queries * self.search_energy_pj()
        self._search_energy_pj += energy
        self._search_count += num_queries
        return energy, num_queries * self.search_latency_cycles

    def topk_packed(self, packed_queries: np.ndarray, k: int) -> TopKResult:
        """Top-k nearest rows for a packed batch (the retrieval fast path).

        Returns the ``k_eff = min(k, occupancy)`` best populated rows per
        query as a :class:`~repro.cam.topk.TopKResult`, sorted ascending by
        ``(sensed distance, row id)`` -- the deterministic tie-break every
        layer of the retrieval stack shares.  Degenerate batches are shaped
        no-ops exactly like :meth:`search_batch_packed`: an empty ``(0, w)``
        batch, ``k = 0`` or an empty array returns zero-row/zero-column
        results without issuing a search.

        With the noise-free default sense amplifier the selection runs on
        the raw mismatch counts (:func:`~repro.cam.topk.select_topk`) and
        only the ``k`` survivors are digitised -- noise-free read-out is an
        elementwise deterministic map, so this is bit-identical to
        digitise-everything-then-sort while skipping the full read-out
        pass.  A *noisy* amplifier digitises every populated row first, in
        the exact flat order :meth:`search_batch_packed` uses, so the noise
        stream is consumed identically and the top-k over the sensed
        distances matches a full search followed by a sort.
        """
        k_eff = min(validate_k(k), self.occupancy)
        packed = np.ascontiguousarray(packed_queries, dtype=np.uint64)
        if packed.ndim != 2:
            raise ValueError("packed queries must be a 2-D word matrix")
        num_queries = packed.shape[0]
        if num_queries == 0 or k_eff == 0:
            return empty_topk(num_queries, k_eff)
        if packed.shape[1] != self._storage_words:
            raise ValueError(
                f"packed queries must have {self._storage_words} words, "
                f"got {packed.shape[1]}"
            )
        counts, energy, latency = self._mismatch_core(packed)
        populated = self._populated
        row_ids = np.nonzero(populated)[0].astype(np.int64)
        populated_counts = counts[:, populated]
        if self.sense_amp.timing_noise_sigma_ps > 0.0:
            sensed = self.sense_amp.estimate_distances(
                populated_counts.reshape(-1)).reshape(num_queries, -1)
            indices, distances = select_topk(sensed, row_ids, k_eff, self.rows)
        else:
            indices, raw = select_topk(populated_counts, row_ids, k_eff,
                                       self.rows)
            distances = np.asarray(self.sense_amp.estimate_distances(
                raw.reshape(-1)), dtype=np.int64).reshape(raw.shape)
        gathered = num_queries * k_eff
        return TopKResult(
            indices=indices,
            distances=distances,
            energy_pj=energy,
            latency_cycles=latency + gathered * GATHER_CYCLES_PER_VALUE,
            gathered_values=gathered,
        )

    def _search_packed_batch(self, packed_queries: np.ndarray) -> tuple[np.ndarray, float, int]:
        """Shared body of the batch search paths (validated packed input)."""
        mismatches, energy, latency = self._mismatch_core(packed_queries)
        num_queries = packed_queries.shape[0]
        distances = np.full((num_queries, self.rows), -1, dtype=np.int64)

        populated = self._populated
        if populated.any():
            flat_counts = mismatches[:, populated].reshape(-1)
            sensed = self.sense_amp.estimate_distances(flat_counts)
            distances[:, populated] = sensed.reshape(num_queries, -1)
        return distances, energy, latency

    # -- accounting ----------------------------------------------------------------

    @property
    def accumulated_write_energy_pj(self) -> float:
        """Total write energy spent since construction/clear."""
        return self._write_energy_pj

    @property
    def accumulated_search_energy_pj(self) -> float:
        """Total search energy spent since construction."""
        return self._search_energy_pj

    @property
    def search_count(self) -> int:
        """Number of search operations performed."""
        return self._search_count
