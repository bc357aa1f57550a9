"""Approximate geometric dot-product (paper Sec. II-B, Eqs. 2-5).

The algebraic dot-product ``sum_i x_i y_i`` is replaced by its geometric
form ``||x|| ||y|| cos(theta)``, with the angle estimated from the Hamming
distance between sign-random-projection signatures of the operands:

.. math::

    x \\cdot y \\approx \\|x\\|_2 \\, \\|y\\|_2 \\,
        \\cos\\!\\left(\\frac{\\pi}{k}\\,HD(\\mathrm{hash}(x), \\mathrm{hash}(y))\\right)

Three functional flavours are provided:

* :func:`algebraic_dot` -- the exact reference.
* :func:`geometric_dot` -- exact norms and exact angle (no hashing), to
  isolate the error contributed by the cosine identity itself (which is
  zero; it is the hashing and the PWL cosine that approximate).
* :class:`ApproximateDotProduct` -- the full DeepCAM pipeline: hashing,
  Hamming distance, angle estimate, piecewise-linear cosine (Eq. 5) and
  minifloat-quantised norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.hashing import (
    RandomProjectionHasher,
    angle_from_hamming,
    hamming_distance,
    hamming_distance_matrix,
)
from repro.core.minifloat import Minifloat
from repro.hw.cosine_unit import CosineUnit, cosine_table, gather_cosines


def algebraic_dot(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Exact algebraic dot-product (Eq. 1); the software reference."""
    a = np.asarray(x, dtype=np.float64).ravel()
    b = np.asarray(y, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"operands have different shapes: {a.shape} vs {b.shape}")
    return float(a @ b)


def exact_angle(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Exact angle between two vectors in radians (0 for a zero operand)."""
    a = np.asarray(x, dtype=np.float64).ravel()
    b = np.asarray(y, dtype=np.float64).ravel()
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    cosine = float(np.clip(a @ b / (norm_a * norm_b), -1.0, 1.0))
    return math.acos(cosine)


def geometric_dot(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Geometric dot-product with exact norms and exact angle (Eq. 2).

    Mathematically identical to :func:`algebraic_dot`; provided as a sanity
    anchor for tests and for the Fig. 2 benchmark's "ideal geometric" curve.
    """
    a = np.asarray(x, dtype=np.float64).ravel()
    b = np.asarray(y, dtype=np.float64).ravel()
    theta = exact_angle(a, b)
    return float(np.linalg.norm(a) * np.linalg.norm(b) * math.cos(theta))


@dataclass(frozen=True)
class DotProductResult:
    """Full breakdown of one approximate dot-product evaluation."""

    value: float
    hamming_distance: int
    theta: float
    cosine: float
    norm_x: float
    norm_y: float
    hash_length: int

    def absolute_error(self, reference: float) -> float:
        """Absolute error against a reference (usually the algebraic value)."""
        return abs(self.value - reference)

    def relative_error(self, reference: float) -> float:
        """Relative error against a non-zero reference."""
        if reference == 0.0:
            return math.inf if self.value != 0.0 else 0.0
        return abs(self.value - reference) / abs(reference)


class ApproximateDotProduct:
    """DeepCAM's approximate dot-product engine (software-exact model).

    Parameters
    ----------
    input_dim:
        Dimensionality of the operand vectors.
    hash_length:
        Signature length ``k`` in bits.
    seed:
        Seed of the shared random projection.
    use_exact_cosine:
        Use ``cos`` instead of the Eq. 5 piecewise-linear approximation
        (ablation knob; the hardware uses the PWL form).
    quantize_norms:
        Quantise operand norms to the 8-bit minifloat grid as the context
        generator does.  ``None`` keeps exact norms.
    """

    def __init__(self, input_dim: int, hash_length: int, seed: int = 0,
                 use_exact_cosine: bool = False,
                 quantize_norms: Minifloat | None = None) -> None:
        self.hasher = RandomProjectionHasher(input_dim, hash_length, seed=seed)
        self.cosine_unit = CosineUnit(use_exact=use_exact_cosine)
        self.norm_format = quantize_norms

    @property
    def input_dim(self) -> int:
        """Operand dimensionality."""
        return self.hasher.input_dim

    @property
    def hash_length(self) -> int:
        """Signature length in bits."""
        return self.hasher.hash_length

    # -- scalar path ------------------------------------------------------------

    def _norm(self, vector: np.ndarray) -> float:
        norm = float(np.linalg.norm(vector))
        if self.norm_format is not None:
            norm = self.norm_format.quantize(norm)
        return norm

    def compute(self, x: Sequence[float] | np.ndarray,
                y: Sequence[float] | np.ndarray) -> DotProductResult:
        """Approximate dot-product of two vectors with a full breakdown."""
        a = np.asarray(x, dtype=np.float64).ravel()
        b = np.asarray(y, dtype=np.float64).ravel()
        if a.size != self.input_dim or b.size != self.input_dim:
            raise ValueError(
                f"operands must have dimension {self.input_dim}, "
                f"got {a.size} and {b.size}"
            )
        bits_a = self.hasher.hash(a)
        bits_b = self.hasher.hash(b)
        distance = hamming_distance(bits_a, bits_b)
        theta = float(angle_from_hamming(distance, self.hash_length))
        cosine = float(self.cosine_unit(theta))
        norm_a = self._norm(a)
        norm_b = self._norm(b)
        return DotProductResult(
            value=norm_a * norm_b * cosine,
            hamming_distance=distance,
            theta=theta,
            cosine=cosine,
            norm_x=norm_a,
            norm_y=norm_b,
            hash_length=self.hash_length,
        )

    def __call__(self, x: Sequence[float] | np.ndarray,
                 y: Sequence[float] | np.ndarray) -> float:
        """Approximate dot-product value only."""
        return self.compute(x, y).value

    # -- batched path ------------------------------------------------------------

    def compute_matrix(self, stationary: np.ndarray, search: np.ndarray) -> np.ndarray:
        """Approximate dot-products between every pair of rows.

        This is the software-exact model of what one CAM "macro-operation"
        produces: ``stationary`` rows are resident in the CAM, each row of
        ``search`` is broadcast as a search key, and every (stationary,
        search) pair yields one approximate dot-product.

        Parameters
        ----------
        stationary:
            ``(rows, input_dim)`` matrix (weights or activations depending on
            the dataflow).
        search:
            ``(queries, input_dim)`` matrix of search vectors.

        Returns
        -------
        np.ndarray
            ``(rows, queries)`` matrix of approximate dot-products.
        """
        stat = np.asarray(stationary, dtype=np.float64)
        srch = np.asarray(search, dtype=np.float64)
        if stat.ndim != 2 or srch.ndim != 2:
            raise ValueError("both operands must be 2-D matrices")
        if stat.shape[1] != self.input_dim or srch.shape[1] != self.input_dim:
            raise ValueError(f"operand columns must equal input_dim={self.input_dim}")

        bits_stat = self.hasher.hash_batch(stat)
        bits_srch = self.hasher.hash_batch(srch)
        distances = hamming_distance_matrix(bits_stat, bits_srch)
        cosines = gather_cosines(cosine_table(self.cosine_unit, self.hash_length),
                                 distances)

        norms_stat = np.linalg.norm(stat, axis=1)
        norms_srch = np.linalg.norm(srch, axis=1)
        if self.norm_format is not None:
            norms_stat = self.norm_format.quantize_array(norms_stat)
            norms_srch = self.norm_format.quantize_array(norms_srch)
        products = np.multiply.outer(norms_stat, norms_srch)
        products *= cosines
        return products


def dot_product_error_sweep(x: Sequence[float] | np.ndarray,
                            y: Sequence[float] | np.ndarray,
                            hash_lengths: Sequence[int],
                            seeds: Sequence[int] = (0, 1, 2, 3, 4),
                            use_exact_cosine: bool = False) -> dict[int, dict[str, float]]:
    """Sweep hash length and report the approximation quality (Fig. 2).

    For each hash length the approximate dot-product is evaluated with
    several independent projection seeds and the mean value, standard
    deviation and mean relative error against the algebraic reference are
    returned.

    Returns
    -------
    dict
        ``{hash_length: {"mean": .., "std": .., "mean_relative_error": ..}}``
    """
    a = np.asarray(x, dtype=np.float64).ravel()
    b = np.asarray(y, dtype=np.float64).ravel()
    reference = algebraic_dot(a, b)
    sweep: dict[int, dict[str, float]] = {}
    for k in hash_lengths:
        values = []
        for seed in seeds:
            engine = ApproximateDotProduct(a.size, int(k), seed=int(seed),
                                           use_exact_cosine=use_exact_cosine)
            values.append(engine(a, b))
        values_arr = np.asarray(values)
        if reference != 0.0:
            rel_err = float(np.mean(np.abs(values_arr - reference) / abs(reference)))
        else:
            rel_err = float(np.mean(np.abs(values_arr)))
        sweep[int(k)] = {
            "mean": float(values_arr.mean()),
            "std": float(values_arr.std()),
            "mean_relative_error": rel_err,
            "reference": reference,
        }
    return sweep
