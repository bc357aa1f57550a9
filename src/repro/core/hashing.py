"""Random-projection (SimHash) hashing with variable hash lengths.

This module implements the hashing half of DeepCAM's approximate geometric
dot-product (paper Sec. II-B).  A vector ``x`` in ``R^n`` is mapped to a
``k``-bit signature by projecting it onto ``k`` random directions drawn from
``N(0, 1)`` and keeping only the sign of each projection:

.. math::  \\mathrm{hash}(x) = \\mathrm{sign}(x C), \\qquad C \\in R^{n \\times k}

By the Johnson-Lindenstrauss / Goemans-Williamsson argument the fraction of
bit positions where two signatures disagree estimates the angle between the
original vectors, which is the quantity the CAM array later measures as a
Hamming distance.

The projection matrix is the *shared context* between weights (hashed
offline, in software) and activations (hashed online, on the NVM crossbar),
so :class:`RandomProjectionHasher` is deliberately deterministic given a
seed: the same ``(input_dim, hash_length, seed)`` triple always produces the
same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.bitops import (
    INT16_SAFE_MAX_BITS,
    pack_bits,
    packed_hamming_matrix,
)

#: Hash lengths that map onto whole CAM chunks (paper Sec. III-B).
SUPPORTED_HASH_LENGTHS: tuple[int, ...] = (256, 512, 768, 1024)

#: Word width of a single CAM chunk in bits.
CAM_CHUNK_BITS: int = 256


def validate_hash_length(hash_length: int, strict: bool = False) -> int:
    """Validate a hash length and return it.

    Parameters
    ----------
    hash_length:
        Requested signature length in bits.
    strict:
        When ``True`` the length must be one of the chunk-aligned lengths the
        dynamic CAM supports (256/512/768/1024).  When ``False`` any positive
        length is allowed -- useful for the accuracy-vs-length sweeps in
        Fig. 2 where sub-chunk lengths are explored in software.
    """
    if hash_length <= 0:
        raise ValueError("hash_length must be positive")
    if strict and hash_length not in SUPPORTED_HASH_LENGTHS:
        raise ValueError(
            f"hash_length {hash_length} is not supported by the dynamic CAM; "
            f"choose one of {SUPPORTED_HASH_LENGTHS}"
        )
    return int(hash_length)


def chunks_for_hash_length(hash_length: int) -> int:
    """Number of 256-bit CAM chunks needed to hold a signature."""
    validate_hash_length(hash_length)
    return int(np.ceil(hash_length / CAM_CHUNK_BITS))


@dataclass(frozen=True)
class HashedVector:
    """A hashed context element: signature bits plus the operand's L2 norm.

    Attributes
    ----------
    bits:
        1-D ``uint8`` array of 0/1 values, length ``hash_length``.
    norm:
        Euclidean norm of the original vector (possibly minifloat-quantised
        by the context generator).
    hash_length:
        Signature length in bits.
    """

    bits: np.ndarray
    norm: float
    hash_length: int

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits)
        if bits.ndim != 1:
            raise ValueError("bits must be a 1-D array")
        if bits.size != self.hash_length:
            raise ValueError("bits length must equal hash_length")

    def packed(self) -> np.ndarray:
        """Signature packed into bytes (as it would sit in a CAM row)."""
        return np.packbits(self.bits.astype(np.uint8))

    @property
    def packed_words(self) -> np.ndarray:
        """Signature packed into ``uint64`` words (cached; the kernel currency)."""
        cached = self.__dict__.get("_packed_words")
        if cached is None:
            cached = pack_bits(np.asarray(self.bits, dtype=np.uint8))
            cached.flags.writeable = False
            object.__setattr__(self, "_packed_words", cached)
        return cached


class RandomProjectionHasher:
    """Sign-random-projection hasher for a fixed input dimension.

    Parameters
    ----------
    input_dim:
        Dimensionality ``n`` of the vectors to be hashed (for a conv layer
        this is ``C_in * kH * kW``).
    hash_length:
        Signature length ``k`` in bits.
    seed:
        Seed for the projection matrix.  Weights and activations of the same
        layer *must* share the seed (and therefore the matrix) or the
        Hamming distance is meaningless; the context generator guarantees
        this by deriving the seed from the layer index.
    strict_lengths:
        Restrict ``hash_length`` to CAM-supported values.
    """

    def __init__(self, input_dim: int, hash_length: int, seed: int = 0,
                 strict_lengths: bool = False) -> None:
        if input_dim <= 0:
            raise ValueError("input_dim must be positive")
        self.input_dim = int(input_dim)
        self.hash_length = validate_hash_length(hash_length, strict=strict_lengths)
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        # Projection matrix C ~ N(0, 1), shape (n, k).
        self._projection = rng.standard_normal((self.input_dim, self.hash_length))

    # -- properties -----------------------------------------------------------

    @property
    def projection_matrix(self) -> np.ndarray:
        """The (read-only) random projection matrix ``C``."""
        view = self._projection.view()
        view.flags.writeable = False
        return view

    @property
    def num_chunks(self) -> int:
        """CAM chunks occupied by one signature."""
        return chunks_for_hash_length(self.hash_length)

    # -- hashing ---------------------------------------------------------------

    def hash(self, vector: Sequence[float] | np.ndarray) -> np.ndarray:
        """Hash a single vector into a ``(hash_length,)`` array of 0/1 bits."""
        data = np.asarray(vector, dtype=np.float64).ravel()
        if data.size != self.input_dim:
            raise ValueError(
                f"vector has dimension {data.size}, hasher expects {self.input_dim}"
            )
        projections = data @ self._projection
        return (projections >= 0.0).astype(np.uint8)

    def hash_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Hash a ``(batch, input_dim)`` matrix into ``(batch, hash_length)`` bits."""
        data = np.asarray(matrix, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != self.input_dim:
            raise ValueError(
                f"expected shape (batch, {self.input_dim}), got {data.shape}"
            )
        projections = data @ self._projection
        return (projections >= 0.0).astype(np.uint8)

    def hash_packed(self, vector: Sequence[float] | np.ndarray) -> np.ndarray:
        """Hash a single vector straight into packed ``uint64`` words."""
        return pack_bits(self.hash(vector))

    def hash_batch_packed(self, matrix: np.ndarray) -> np.ndarray:
        """Hash a batch straight into ``(batch, words)`` packed ``uint64`` words."""
        return pack_bits(self.hash_batch(matrix))

    def hash_batch_with_norms(self, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hash a batch into packed words and return the operands' L2 norms.

        One call producing both halves of the context pair the CAM pipeline
        consumes -- ``(batch, words)`` packed ``uint64`` signatures and
        ``(batch,)`` Euclidean norms.  This is the serving fast path: the
        packed words feed ``search_batch_packed`` directly and double as
        the result-cache key, while the norms scale the recovered cosines
        back into dot-products.
        """
        data = np.asarray(matrix, dtype=np.float64)
        return self.hash_batch_packed(data), np.linalg.norm(data, axis=1)

    def hash_with_norm(self, vector: Sequence[float] | np.ndarray) -> HashedVector:
        """Hash a vector and attach its exact L2 norm."""
        data = np.asarray(vector, dtype=np.float64).ravel()
        bits = self.hash(data)
        return HashedVector(bits=bits, norm=float(np.linalg.norm(data)),
                            hash_length=self.hash_length)

    def truncated(self, hash_length: int) -> "RandomProjectionHasher":
        """Return a hasher that uses only the first ``hash_length`` columns.

        Because the columns of ``C`` are independent, a shorter hash is
        exactly a prefix of a longer one.  The dynamic CAM exploits this when
        it disables trailing chunks: signatures generated at 1024 bits remain
        valid at 768/512/256 bits by simply ignoring the tail.
        """
        validate_hash_length(hash_length)
        if hash_length > self.hash_length:
            raise ValueError("cannot truncate to a longer hash length")
        clone = RandomProjectionHasher.__new__(RandomProjectionHasher)
        clone.input_dim = self.input_dim
        clone.hash_length = hash_length
        clone.seed = self.seed
        clone._projection = self._projection[:, :hash_length]
        return clone


def hamming_distance(bits_a: np.ndarray, bits_b: np.ndarray) -> int:
    """Exact Hamming distance between two equal-length 0/1 bit arrays."""
    a = np.asarray(bits_a).ravel()
    b = np.asarray(bits_b).ravel()
    if a.shape != b.shape:
        raise ValueError(f"bit arrays have different shapes: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def hamming_distance_matrix(bits_a: np.ndarray, bits_b: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances between two sets of signatures.

    Parameters
    ----------
    bits_a:
        ``(rows_a, k)`` array of 0/1 bits.
    bits_b:
        ``(rows_b, k)`` array of 0/1 bits.

    Returns
    -------
    np.ndarray
        ``(rows_a, rows_b)`` integer matrix of Hamming distances.  This is
        the software-exact counterpart of what the CAM array measures in one
        O(1) search per row of ``bits_b``.

    Dispatches to the packed XOR+popcount kernel
    (:func:`repro.bitops.packed_hamming_matrix`); callers that already
    hold packed words should call the kernel directly and skip the packing.
    """
    a = np.asarray(bits_a)
    b = np.asarray(bits_b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("both inputs must be 2-D bit matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError("signatures must have the same hash length")
    return packed_hamming_matrix(pack_bits(a), pack_bits(b))


def hamming_distance_matrix_unpacked(bits_a: np.ndarray,
                                     bits_b: np.ndarray) -> np.ndarray:
    """Legacy +-1 GEMM Hamming kernel over unpacked bits.

    Kept as the reference implementation the packed kernel is benchmarked
    and equivalence-tested against.  ``HD = (k - agreement) / 2`` where
    ``agreement = a_pm @ b_pm.T`` on +-1 data; the agreement matrix lies in
    ``[-k, k]`` so the int16 accumulator is only safe up to
    ``k = INT16_SAFE_MAX_BITS`` -- beyond that the dtype is promoted.
    """
    a = np.asarray(bits_a)
    b = np.asarray(bits_b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("both inputs must be 2-D bit matrices")
    if a.shape[1] != b.shape[1]:
        raise ValueError("signatures must have the same hash length")
    k = a.shape[1]
    dtype = np.int16 if k <= INT16_SAFE_MAX_BITS else np.int64
    a_pm = 2 * a.astype(dtype) - 1
    b_pm = 2 * b.astype(dtype) - 1
    agreement = a_pm @ b_pm.T  # in [-k, k]; partial sums are bounded by k
    # k - agreement reaches 2k, so the final combine is always done in int64
    # even when the GEMM accumulator itself fits in int16.
    return (k - agreement.astype(np.int64)) // 2


def angle_from_hamming(distance: float | np.ndarray, hash_length: int) -> np.ndarray | float:
    """Estimate the angle between two vectors from a Hamming distance (Eq. 3)."""
    validate_hash_length(hash_length)
    distance_arr = np.asarray(distance, dtype=np.float64)
    if np.any(distance_arr < 0) or np.any(distance_arr > hash_length):
        raise ValueError("hamming distance must be in [0, hash_length]")
    theta = np.pi * distance_arr / hash_length
    if np.isscalar(distance):
        return float(theta)
    return theta


def expected_hamming(theta: float, hash_length: int) -> float:
    """Expected Hamming distance for two vectors at angle ``theta`` (inverse of Eq. 3)."""
    validate_hash_length(hash_length)
    if not 0.0 <= theta <= np.pi:
        raise ValueError("theta must be in [0, pi]")
    return hash_length * theta / np.pi


def hash_collision_probability(theta: float) -> float:
    """Probability that one random hyperplane separates two vectors at angle theta."""
    if not 0.0 <= theta <= np.pi:
        raise ValueError("theta must be in [0, pi]")
    return theta / np.pi
