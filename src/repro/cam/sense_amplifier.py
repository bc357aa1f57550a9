"""Clocked self-referenced sense amplifier (Ni et al., Nature Electronics 2019).

A conventional CAM sense amplifier only distinguishes *match* from
*mismatch*.  The clocked self-referenced sense amplifier the paper builds on
(Fig. 1c) instead measures *how long* the match line (ML) takes to discharge:
each mismatching cell adds pull-down current, so the discharge time is
(approximately) inversely proportional to the number of mismatching bits.
Sampling the ML with a clock converts that time into a digital count -- the
Hamming distance -- with O(1) latency regardless of word width.

This module models that conversion, including:

* the analog discharge-time law ``t = C_ML * V_DD / (n_mismatch * I_cell)``,
* quantisation to the sampling clock,
* an optional Gaussian timing-noise term that produces realistic off-by-one
  Hamming-distance errors for large mismatch counts (where discharge times
  for adjacent counts become too close to resolve).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cam.cell import CamCell, FEFET_CAM_CELL


@dataclass(frozen=True)
class SenseAmpReading:
    """One sense-amplifier measurement.

    Attributes
    ----------
    hamming_distance:
        The Hamming distance reported by the sense amplifier (after clock
        quantisation and noise).
    true_distance:
        The exact number of mismatching bits on the row.
    discharge_time_ns:
        Modelled ML discharge time in nanoseconds (``inf`` for a full match,
        which never discharges).
    sampling_cycles:
        Number of sampling-clock cycles the discharge took.
    """

    hamming_distance: int
    true_distance: int
    discharge_time_ns: float
    sampling_cycles: int


class ClockedSelfReferencedSenseAmp:
    """Converts ML discharge time into a Hamming distance.

    Parameters
    ----------
    word_bits:
        CAM word width; bounds the maximum resolvable distance.
    cell:
        CAM cell supplying the per-cell pull-down current.
    match_line_capacitance_ff:
        ML capacitance in femtofarads.  Scales linearly with word width by
        default (larger words -> longer wire); pass an explicit value to
        override.
    vdd:
        Supply voltage.
    sampling_frequency_ghz:
        Frequency of the sampling clock that digitises the discharge time.
    timing_noise_sigma_ps:
        Standard deviation of Gaussian noise added to the discharge time.
        Zero gives an ideal (noise-free) sense amplifier.
    seed:
        Seed of the noise generator (ignored when noise is zero).
    """

    def __init__(self, word_bits: int, cell: CamCell = FEFET_CAM_CELL,
                 match_line_capacitance_ff: float | None = None,
                 vdd: float = 1.0,
                 sampling_frequency_ghz: float = 4.0,
                 timing_noise_sigma_ps: float = 0.0,
                 seed: int = 0) -> None:
        if word_bits <= 0:
            raise ValueError("word_bits must be positive")
        if vdd <= 0:
            raise ValueError("vdd must be positive")
        if sampling_frequency_ghz <= 0:
            raise ValueError("sampling_frequency_ghz must be positive")
        if timing_noise_sigma_ps < 0:
            raise ValueError("timing_noise_sigma_ps must be non-negative")
        self.word_bits = int(word_bits)
        self.cell = cell
        # 0.18 fF of ML capacitance per cell is typical for a compact NVM CAM.
        self.match_line_capacitance_ff = (
            match_line_capacitance_ff if match_line_capacitance_ff is not None
            else 0.18 * self.word_bits
        )
        self.vdd = float(vdd)
        self.sampling_frequency_ghz = float(sampling_frequency_ghz)
        self.timing_noise_sigma_ps = float(timing_noise_sigma_ps)
        self._rng = np.random.default_rng(seed)
        # A noise-free read-out is a pure function of the mismatch count,
        # so it is tabulated once through the model itself; a noisy one
        # must draw its noise per row and keeps the model path.
        self._table = (self._measure(np.arange(self.word_bits + 1))[2]
                       if self.timing_noise_sigma_ps == 0.0 else None)

    # -- analog model ------------------------------------------------------------

    def discharge_time_ns(self, mismatches: int | np.ndarray) -> np.ndarray | float:
        """ML discharge time for a given number of mismatching cells.

        A full match (zero mismatches) never discharges; ``inf`` is returned.
        """
        counts = np.asarray(mismatches, dtype=np.float64)
        if np.any(counts < 0) or np.any(counts > self.word_bits):
            raise ValueError("mismatch count must be in [0, word_bits]")
        current_ua = counts * self.cell.match_pulldown_current_ua
        with np.errstate(divide="ignore"):
            # t = C * V / I ; fF * V / uA = nanoseconds * 1e-3  -> convert.
            time_ns = np.where(
                current_ua > 0,
                self.match_line_capacitance_ff * self.vdd / np.where(current_ua > 0, current_ua, 1.0) * 1e-3 * 1e3,
                np.inf,
            )
        if np.isscalar(mismatches):
            return float(time_ns)
        return time_ns

    def _invert_time(self, time_ns: np.ndarray) -> np.ndarray:
        """Map a (possibly noisy) discharge time back to a mismatch count."""
        with np.errstate(divide="ignore"):
            estimate = np.where(
                np.isinf(time_ns),
                0.0,
                self.match_line_capacitance_ff * self.vdd
                / (self.cell.match_pulldown_current_ua * np.maximum(time_ns, 1e-9)),
            )
        return np.clip(np.round(estimate), 0, self.word_bits)

    # -- digital read-out ----------------------------------------------------------

    def read(self, true_distance: int) -> SenseAmpReading:
        """Measure a single row with ``true_distance`` mismatching bits."""
        readings = self.read_many(np.asarray([true_distance]))
        return readings[0]

    def _measure(self, true_distances: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shared measurement core: (counts, noisy discharge times, estimates).

        One call draws one contiguous block of timing noise, so measuring a
        concatenation of rows is bit-identical to measuring the pieces one
        after the other -- the property the vectorised batch search relies
        on to stay bit-exact with the serialised path.
        """
        counts = np.asarray(true_distances, dtype=np.int64).ravel()
        if np.any(counts < 0) or np.any(counts > self.word_bits):
            raise ValueError("hamming distance must be in [0, word_bits]")
        times = np.asarray(self.discharge_time_ns(counts), dtype=np.float64)

        if self.timing_noise_sigma_ps > 0.0:
            noise_ns = self._rng.normal(0.0, self.timing_noise_sigma_ps * 1e-3, size=times.shape)
            noisy = np.where(np.isinf(times), times, np.maximum(times + noise_ns, 1e-6))
        else:
            noisy = times

        estimated = self._invert_time(noisy).astype(np.int64)
        return counts, noisy, estimated

    def read_many(self, true_distances: np.ndarray) -> list[SenseAmpReading]:
        """Measure many rows at once (one search operation on a CAM array)."""
        counts, noisy, estimated = self._measure(true_distances)

        clock_period_ns = 1.0 / self.sampling_frequency_ghz
        cycles = np.where(np.isinf(noisy), 0, np.ceil(noisy / clock_period_ns)).astype(np.int64)

        readings = []
        for est, true, time_ns, cyc in zip(estimated, counts, noisy, cycles):
            readings.append(SenseAmpReading(
                hamming_distance=int(est),
                true_distance=int(true),
                discharge_time_ns=float(time_ns),
                sampling_cycles=int(cyc),
            ))
        return readings

    def estimate_distances(self, true_distances: np.ndarray) -> np.ndarray:
        """Vectorised read-out returning only the estimated distances.

        Unlike :meth:`read_many` this never materialises per-row
        :class:`SenseAmpReading` objects, so it is the hot path the CAM
        array uses for every search.  A noise-free amplifier gathers its
        tabulated read-out (any integer dtype, ``uint16`` counts included,
        indexes it directly); a noisy one runs :meth:`_measure`, drawing
        its noise in row order.  Returns a flat ``int64`` array.
        """
        if self._table is None:
            return self._measure(true_distances)[2]
        counts = np.asarray(true_distances).ravel()
        if counts.dtype.kind not in "ui":
            counts = counts.astype(np.int64)
        if counts.size and ((counts.dtype.kind == "i" and counts.min() < 0)
                            or counts.max() > self.word_bits):
            raise ValueError("hamming distance must be in [0, word_bits]")
        return self._table[counts]

    # -- characterisation ------------------------------------------------------------

    def resolution_limit(self) -> int:
        """Largest mismatch count that is still resolvable from its neighbour.

        Beyond this count the discharge times of ``n`` and ``n + 1``
        mismatches differ by less than one sampling-clock period, so the
        sense amplifier can no longer tell them apart.  DeepCAM tolerates
        this because large Hamming distances correspond to near-orthogonal
        vectors whose dot-product is near zero anyway.
        """
        clock_period_ns = 1.0 / self.sampling_frequency_ghz
        for count in range(1, self.word_bits):
            delta = self.discharge_time_ns(count) - self.discharge_time_ns(count + 1)
            if delta < clock_period_ns:
                return count
        return self.word_bits
