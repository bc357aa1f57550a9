"""Piecewise-linear cosine approximation unit (paper Eq. 5).

Implementing a true cosine in hardware would need either a CORDIC pipeline or
a large lookup table, so DeepCAM approximates the cosine of the hashing angle
with a three-segment piecewise-linear function:

.. math::

    \\cos(\\theta) \\approx \\begin{cases}
        1 - \\theta / \\pi            & 0 < \\theta \\le \\pi/3 \\\\
        -0.96\\,\\theta + 1.51        & \\pi/3 < \\theta \\le \\pi/2 \\\\
        -\\mathrm{cos}(\\pi - \\theta) & \\theta > \\pi/2
    \\end{cases}

The third case folds the obtuse range back onto the acute range by symmetry,
so the hardware only ever evaluates one multiply and one add.  This module
provides a vectorised functional model, an exact-cosine reference for error
analysis, and the digital cost of the unit.

The *hardware* evaluates the PWL form once per output element, and the
energy and cycle models charge it that way.  The software model, however,
only ever feeds the unit angles ``pi * d / k`` for integer Hamming
distances ``d`` in ``[0, k]``, so the whole read-out is a ``k + 1``-entry
function: :func:`cosine_table` evaluates the unit once at every count and
:func:`gather_cosines` indexes it, bit-identical to calling the unit per
element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.hw.components import ComponentCost, CostLibrary, DEFAULT_COST_LIBRARY


@dataclass(frozen=True)
class CosineErrorStats:
    """Error statistics of the PWL approximation over a sweep of angles."""

    max_abs_error: float
    mean_abs_error: float
    rmse: float


class CosineUnit:
    """Hardware cosine approximation following Eq. 5 of the paper.

    Parameters
    ----------
    use_exact:
        When ``True`` the unit returns the exact cosine instead of the
        piecewise-linear approximation.  This is the knob used by the cosine
        ablation benchmark; real DeepCAM hardware always uses the PWL form.
    library:
        Cost library used to price the multiplier/adder/comparator.
    """

    #: Slope and intercept of the middle segment, straight from Eq. 5.
    MID_SLOPE = -0.96
    MID_INTERCEPT = 1.51

    def __init__(self, use_exact: bool = False, library: CostLibrary | None = None) -> None:
        self.use_exact = bool(use_exact)
        self.library = library if library is not None else DEFAULT_COST_LIBRARY

    # -- functional model -----------------------------------------------------

    def __call__(self, theta: float | Iterable[float] | np.ndarray) -> np.ndarray | float:
        """Evaluate the approximation at angle(s) ``theta`` (radians).

        Angles are expected in ``[0, pi]`` -- the range a Hamming distance of
        ``0..k`` maps to.  Values slightly outside (from numerical noise) are
        clipped.  Scalars in, scalar out; arrays in, arrays out.
        """
        scalar_input = np.isscalar(theta)
        angles = np.atleast_1d(np.asarray(theta, dtype=np.float64))
        if np.any(angles < -1e-9) or np.any(angles > math.pi + 1e-9):
            raise ValueError("theta must lie in [0, pi]")
        angles = np.clip(angles, 0.0, math.pi)

        if self.use_exact:
            result = np.cos(angles)
        else:
            result = self._piecewise(angles)

        if scalar_input:
            return float(result[0])
        return result

    def _piecewise(self, angles: np.ndarray) -> np.ndarray:
        # Fold the obtuse range onto the acute range: cos(theta) = -cos(pi - theta).
        obtuse = angles > math.pi / 2
        folded = np.where(obtuse, math.pi - angles, angles)

        low = folded <= math.pi / 3
        values = np.empty_like(folded)
        values[low] = 1.0 - folded[low] / math.pi
        values[~low] = self.MID_SLOPE * folded[~low] + self.MID_INTERCEPT

        values[obtuse] = -values[obtuse]
        return values

    # -- analysis -------------------------------------------------------------

    def error_stats(self, num_points: int = 4096) -> CosineErrorStats:
        """Error of the PWL form against ``cos`` over ``[0, pi]``."""
        if num_points < 2:
            raise ValueError("num_points must be at least 2")
        angles = np.linspace(0.0, math.pi, num_points)
        approx = self._piecewise(angles)
        exact = np.cos(angles)
        error = np.abs(approx - exact)
        return CosineErrorStats(
            max_abs_error=float(error.max()),
            mean_abs_error=float(error.mean()),
            rmse=float(np.sqrt(np.mean(error ** 2))),
        )

    # -- cost model -----------------------------------------------------------

    def hardware_cost(self) -> ComponentCost:
        """Cost of one PWL evaluation (or a CORDIC estimate in exact mode)."""
        if not self.use_exact:
            return self.library.get("cosine_pwl")
        # A 16-bit, 12-iteration CORDIC pipeline: three adders per iteration.
        adder = self.library.adder(16)
        iterations = 12
        return ComponentCost(
            energy_pj=adder.energy_pj * 3 * iterations,
            area_um2=adder.area_um2 * 3,
            latency_cycles=float(iterations),
            leakage_uw=adder.leakage_uw * 3,
        )


def cosine_table(unit: Callable[[np.ndarray], np.ndarray],
                 hash_length: int) -> np.ndarray:
    """``unit(pi * d / k)`` at every Hamming distance ``d`` in ``0..k``.

    ``unit`` is any cosine callable (a :class:`CosineUnit` or a wrapper of
    one); it is called exactly once, on the whole angle grid, so the table
    equals the unit's per-element answers bit for bit.
    """
    if hash_length <= 0:
        raise ValueError("hash_length must be positive")
    thetas = np.pi * np.arange(hash_length + 1) / hash_length
    return np.asarray(unit(thetas), dtype=np.float64)


def gather_cosines(table: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """``table[distances]``, refusing distances outside ``[0, k]``.

    Integer-valued float distances are accepted; a negative count never
    wraps round to the table's last entries.
    """
    counts = np.asarray(distances)
    if counts.dtype.kind not in "ui":
        as_int = counts.astype(np.int64)
        if not np.array_equal(as_int, counts):
            raise ValueError("hamming distances must be integers")
        counts = as_int
    if counts.size and ((counts.dtype.kind == "i" and counts.min() < 0)
                        or counts.max() >= table.size):
        raise ValueError("hamming distances must lie in [0, hash_length]")
    return table[counts]
