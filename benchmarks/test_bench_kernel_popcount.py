"""Microbenchmark -- packed XOR+popcount Hamming kernel vs the legacy GEMM.

Not a paper figure: measures the software kernel that stands in for the
CAM's O(1) in-array Hamming search.  The packed kernel
(:func:`repro.bitops.packed_hamming_matrix`) operates on ``uint64``
words (one popcount per 64 bits); the legacy path
(:func:`repro.core.hashing.hamming_distance_matrix_unpacked`) is a dense
+-1 int16 GEMM over unpacked bits.  ``scripts/bench.py`` runs the same
comparison across a larger grid and records the trajectory in
``BENCH_kernels.json``.
"""

import numpy as np
import pytest

from repro.bitops import pack_bits, packed_hamming_matrix
from repro.core.hashing import hamming_distance_matrix_unpacked

ROWS = 1024
HASH_LENGTH = 256


@pytest.fixture(scope="module")
def signatures():
    rng = np.random.default_rng(0)
    bits_a = rng.integers(0, 2, size=(ROWS, HASH_LENGTH), dtype=np.uint8)
    bits_b = rng.integers(0, 2, size=(ROWS, HASH_LENGTH), dtype=np.uint8)
    return bits_a, bits_b, pack_bits(bits_a), pack_bits(bits_b)


def test_packed_popcount_kernel(benchmark, signatures):
    bits_a, bits_b, packed_a, packed_b = signatures
    distances = benchmark(lambda: packed_hamming_matrix(packed_a, packed_b))
    assert distances.shape == (ROWS, ROWS)
    assert np.array_equal(distances, hamming_distance_matrix_unpacked(bits_a, bits_b))


def test_unpacked_gemm_kernel(benchmark, signatures):
    bits_a, bits_b, _, _ = signatures
    distances = benchmark(lambda: hamming_distance_matrix_unpacked(bits_a, bits_b))
    assert distances.shape == (ROWS, ROWS)
    assert int(distances.max()) <= HASH_LENGTH


def test_pack_bits_cost(benchmark, signatures):
    bits_a, _, packed_a, _ = signatures
    packed = benchmark(lambda: pack_bits(bits_a))
    assert np.array_equal(packed, packed_a)
