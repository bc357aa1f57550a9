"""Tests for the bit-packed signature kernels."""

import multiprocessing
import os

import numpy as np
import pytest

import repro.bitops as bitops_impl
import repro.exec.base as exec_base
from repro.bitops import (
    INT16_SAFE_MAX_BITS,
    POPCOUNT_LUT,
    accumulator_dtype,
    pack_bits,
    packed_hamming_matrix,
    packed_hamming_vector,
    popcount,
    popcount_lut,
    unpack_bits,
    words_for_bits,
)
from repro.core.hashing import (
    RandomProjectionHasher,
    hamming_distance_matrix,
    hamming_distance_matrix_unpacked,
)


def naive_hamming(bits_a, bits_b):
    return (bits_a[:, None, :] != bits_b[None, :, :]).sum(axis=-1).astype(np.int64)


def count_units(monkeypatch):
    """Record every work unit the kernel runs, from any thread."""
    units = []
    run_unit = bitops_impl._hamming_unit

    def recording(*args):
        units.append(args[4])
        run_unit(*args)

    monkeypatch.setattr(bitops_impl, "_hamming_unit", recording)
    return units


@pytest.fixture
def small_tiles(monkeypatch):
    # 5-row blocks and 7-column tiles, so tiny operands cross both.
    monkeypatch.setattr(bitops_impl, "KERNEL_BLOCK_ROWS", 5)
    monkeypatch.setattr(bitops_impl, "KERNEL_TILE_ELEMENTS", 35)
    monkeypatch.setattr(bitops_impl, "KERNEL_MIN_TILE_COLUMNS", 7)
    assert bitops_impl.tile_columns(5, 100) == 7


class TestWordsForBits:
    def test_exact_multiples(self):
        assert words_for_bits(64) == 1
        assert words_for_bits(128) == 2
        assert words_for_bits(1024) == 16

    def test_rounding_up(self):
        assert words_for_bits(1) == 1
        assert words_for_bits(65) == 2
        assert words_for_bits(127) == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            words_for_bits(0)
        with pytest.raises(ValueError):
            words_for_bits(-3)


class TestPopcount:
    def test_lut_is_the_byte_popcount(self):
        assert POPCOUNT_LUT.shape == (256,)
        for value in (0, 1, 2, 3, 0x0F, 0x55, 0xAA, 0xFF):
            assert POPCOUNT_LUT[value] == bin(value).count("1")

    def test_known_words(self):
        words = np.array([0, 1, 0xFFFFFFFFFFFFFFFF, 1 << 63, 0x5555555555555555],
                         dtype=np.uint64)
        expected = np.array([0, 1, 64, 1, 32])
        assert np.array_equal(popcount(words), expected)
        assert np.array_equal(popcount_lut(words), expected)

    def test_backends_agree_on_random_words(self, rng):
        words = rng.integers(0, 2 ** 64, size=(64, 7), dtype=np.uint64)
        assert np.array_equal(popcount(words), popcount_lut(words))


class TestPackUnpack:
    @pytest.mark.parametrize("bit_length", [1, 7, 8, 15, 63, 64, 65, 130, 256, 1000])
    def test_roundtrip_odd_lengths(self, rng, bit_length):
        bits = rng.integers(0, 2, size=(5, bit_length), dtype=np.uint8)
        packed = pack_bits(bits)
        assert packed.dtype == np.uint64
        assert packed.shape == (5, words_for_bits(bit_length))
        assert np.array_equal(unpack_bits(packed, bit_length), bits)

    def test_roundtrip_1d(self, rng):
        bits = rng.integers(0, 2, size=77, dtype=np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(bits), 77), bits)

    def test_padding_bits_are_zero(self):
        bits = np.ones((2, 3), dtype=np.uint8)
        packed = pack_bits(bits)
        assert np.array_equal(popcount(packed).sum(axis=-1), [3, 3])

    def test_unpack_rejects_wrong_word_count(self, rng):
        packed = pack_bits(rng.integers(0, 2, size=(2, 128), dtype=np.uint8))
        with pytest.raises(ValueError):
            unpack_bits(packed, 64)  # 1 word, but the packing has 2
        with pytest.raises(ValueError):
            unpack_bits(packed, 300)  # 5 words, but the packing has 2

    def test_rejects_empty_bit_axis(self):
        with pytest.raises(ValueError):
            pack_bits(np.empty((3, 0), dtype=np.uint8))

    def test_wide_dtypes_threshold_nonzero(self):
        # 256 must set its bit (nonzero -> 1), not wrap to 0 via uint8 cast.
        values = np.array([[0, 256, -1, 2]], dtype=np.int64)
        assert np.array_equal(unpack_bits(pack_bits(values), 4), [[0, 1, 1, 1]])


class TestPackedHammingMatrix:
    @pytest.mark.parametrize("rows_a,rows_b,bit_length", [
        (1, 1, 1),
        (3, 5, 7),
        (8, 8, 64),
        (17, 9, 65),
        (16, 32, 130),
        (33, 12, 256),
        (10, 10, 1024),
    ])
    def test_matches_naive_xor_sum(self, rng, rows_a, rows_b, bit_length):
        bits_a = rng.integers(0, 2, size=(rows_a, bit_length), dtype=np.uint8)
        bits_b = rng.integers(0, 2, size=(rows_b, bit_length), dtype=np.uint8)
        result = packed_hamming_matrix(pack_bits(bits_a), pack_bits(bits_b))
        assert result.dtype == np.int64
        assert np.array_equal(result, naive_hamming(bits_a, bits_b))

    def test_crosses_the_row_block_boundary(self, rng, monkeypatch):
        monkeypatch.setattr(bitops_impl, "KERNEL_BLOCK_ROWS", 8)
        bits_a = rng.integers(0, 2, size=(37, 130), dtype=np.uint8)
        bits_b = rng.integers(0, 2, size=(19, 130), dtype=np.uint8)
        result = packed_hamming_matrix(pack_bits(bits_a), pack_bits(bits_b))
        assert np.array_equal(result, naive_hamming(bits_a, bits_b))

    def test_empty_operands(self):
        empty = np.empty((0, 2), dtype=np.uint64)
        other = pack_bits(np.ones((3, 128), dtype=np.uint8))
        assert packed_hamming_matrix(empty, other).shape == (0, 3)
        assert packed_hamming_matrix(other, empty).shape == (3, 0)

    def test_word_count_mismatch_rejected(self, rng):
        a = pack_bits(rng.integers(0, 2, size=(2, 64), dtype=np.uint8))
        b = pack_bits(rng.integers(0, 2, size=(2, 128), dtype=np.uint8))
        with pytest.raises(ValueError):
            packed_hamming_matrix(a, b)


class TestPackedHammingVector:
    def test_matches_matrix_row(self, rng):
        bits = rng.integers(0, 2, size=(13, 200), dtype=np.uint8)
        query = rng.integers(0, 2, size=200, dtype=np.uint8)
        packed = pack_bits(bits)
        packed_query = pack_bits(query)
        expected = naive_hamming(query[None, :], bits)[0]
        assert np.array_equal(packed_hamming_vector(packed_query, packed), expected)

    def test_rejects_mismatched_words(self, rng):
        bits = pack_bits(rng.integers(0, 2, size=(4, 128), dtype=np.uint8))
        query = pack_bits(rng.integers(0, 2, size=64, dtype=np.uint8))
        with pytest.raises(ValueError):
            packed_hamming_vector(query, bits)


class TestPackedHashingSurface:
    def test_hash_packed_matches_pack_of_hash(self, rng):
        hasher = RandomProjectionHasher(input_dim=32, hash_length=100, seed=3)
        vector = rng.standard_normal(32)
        assert np.array_equal(hasher.hash_packed(vector),
                              pack_bits(hasher.hash(vector)))

    def test_hash_batch_packed_matches_pack_of_hash_batch(self, rng):
        hasher = RandomProjectionHasher(input_dim=32, hash_length=256, seed=3)
        matrix = rng.standard_normal((6, 32))
        assert np.array_equal(hasher.hash_batch_packed(matrix),
                              pack_bits(hasher.hash_batch(matrix)))

    def test_hashed_vector_packed_words_cached_and_exact(self, rng):
        hasher = RandomProjectionHasher(input_dim=16, hash_length=70, seed=1)
        hashed = hasher.hash_with_norm(rng.standard_normal(16))
        words = hashed.packed_words
        assert np.array_equal(words, pack_bits(hashed.bits))
        assert np.array_equal(unpack_bits(words, 70), hashed.bits)
        assert hashed.packed_words is words  # cached, not recomputed
        with pytest.raises(ValueError):
            words[0] = 0  # the cache is read-only


class TestHammingDistanceMatrixDispatch:
    def test_packed_and_unpacked_paths_agree(self, rng):
        bits_a = rng.integers(0, 2, size=(12, 300), dtype=np.uint8)
        bits_b = rng.integers(0, 2, size=(7, 300), dtype=np.uint8)
        assert np.array_equal(hamming_distance_matrix(bits_a, bits_b),
                              hamming_distance_matrix_unpacked(bits_a, bits_b))

    def test_unpacked_promotes_dtype_beyond_int16_bound(self, rng):
        # At k > 32767 the +-1 agreement matrix no longer fits in int16; the
        # guard must promote the accumulator instead of silently wrapping.
        k = INT16_SAFE_MAX_BITS + 100
        bits_a = np.ones((2, k), dtype=np.uint8)
        bits_b = np.zeros((2, k), dtype=np.uint8)
        bits_b[1] = 1
        distances = hamming_distance_matrix_unpacked(bits_a, bits_b)
        assert np.array_equal(distances, [[k, 0], [k, 0]])
        assert np.array_equal(hamming_distance_matrix(bits_a, bits_b), distances)

    def test_unpacked_regression_at_the_boundary(self, rng):
        # k exactly at the int16-safe bound still uses the narrow path and
        # must be exact for the worst case (all bits disagree).
        k = INT16_SAFE_MAX_BITS
        bits_a = np.ones((1, k), dtype=np.uint8)
        bits_b = np.zeros((1, k), dtype=np.uint8)
        assert hamming_distance_matrix_unpacked(bits_a, bits_b)[0, 0] == k
        assert hamming_distance_matrix(bits_a, bits_b)[0, 0] == k


def _child_matches(a, b, expected):
    """Fork target: a default-args call must finish and match ``expected``."""
    if not np.array_equal(packed_hamming_matrix(a, b), expected):
        raise SystemExit(1)


class TestThreadedKernel:
    """The kernel spans the usable CPUs by default; ``num_threads`` caps it."""

    def test_threaded_matches_serial_across_block_boundaries(self, rng):
        # Rows chosen to span multiple kernel blocks with a ragged tail.
        bits_a = rng.integers(0, 2, size=(1200, 130), dtype=np.uint8)
        bits_b = rng.integers(0, 2, size=(333, 130), dtype=np.uint8)
        packed_a, packed_b = pack_bits(bits_a), pack_bits(bits_b)
        serial = packed_hamming_matrix(packed_a, packed_b, num_threads=1)
        assert np.array_equal(serial, naive_hamming(bits_a, bits_b))
        for workers in (2, 3, 8):
            threaded = packed_hamming_matrix(packed_a, packed_b,
                                             num_threads=workers)
            assert np.array_equal(threaded, serial)

    def test_default_call_spans_usable_cpus(self, rng, monkeypatch):
        bits_a = rng.integers(0, 2, size=(1100, 64), dtype=np.uint8)
        bits_b = rng.integers(0, 2, size=(64, 64), dtype=np.uint8)
        packed_a, packed_b = pack_bits(bits_a), pack_bits(bits_b)
        serial = packed_hamming_matrix(packed_a, packed_b, num_threads=1)
        units = count_units(monkeypatch)
        monkeypatch.setattr(bitops_impl, "usable_cpus", lambda: 2)
        assert np.array_equal(packed_hamming_matrix(packed_a, packed_b), serial)
        assert len(units) == 2  # three row blocks in two groups

    def test_resolve_num_threads_contract(self, monkeypatch):
        monkeypatch.setattr(bitops_impl, "usable_cpus", lambda: 3)
        assert bitops_impl.resolve_num_threads() == 3
        assert bitops_impl.resolve_num_threads(0) == 3
        assert bitops_impl.resolve_num_threads(1) == 1
        assert bitops_impl.resolve_num_threads(7) == 7

    def test_resolve_num_threads_rejects_garbage(self):
        with pytest.raises(ValueError):
            bitops_impl.resolve_num_threads(-1)
        with pytest.raises(ValueError):
            bitops_impl.resolve_num_threads("many")

    def test_kernel_reads_no_executor_environment(self, rng, monkeypatch):
        # The execution-plane variable selects cluster engines only; the
        # kernel splits its own work whatever it holds.
        bits_a = rng.integers(0, 2, size=(5, 70), dtype=np.uint8)
        bits_b = rng.integers(0, 2, size=(40, 70), dtype=np.uint8)
        monkeypatch.setenv(bitops_impl.EXECUTOR_ENV, "warp-drive")
        assert np.array_equal(
            packed_hamming_matrix(pack_bits(bits_a), pack_bits(bits_b)),
            naive_hamming(bits_a, bits_b))

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(bitops_impl, "_USABLE_CPUS", None)
        if hasattr(os, "sched_getaffinity"):
            expected = len(os.sched_getaffinity(0))
        else:
            expected = os.cpu_count() or 1
        assert bitops_impl.usable_cpus() == expected
        monkeypatch.setattr(bitops_impl, "_USABLE_CPUS", None)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert bitops_impl.usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: 9)
        assert bitops_impl.usable_cpus() == 5  # computed once

    def test_resolve_workers_uses_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(exec_base, "usable_cpus", lambda: 3)
        assert exec_base.resolve_workers() == 3
        assert exec_base.resolve_workers(0) == 3
        assert exec_base.resolve_workers(2) == 2

    def test_threaded_small_input_falls_back_to_serial_path(self, rng):
        # A single block never pays the executor overhead; results identical.
        bits = rng.integers(0, 2, size=(8, 96), dtype=np.uint8)
        packed = pack_bits(bits)
        assert np.array_equal(
            packed_hamming_matrix(packed, packed, num_threads=4),
            naive_hamming(bits, bits))

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method")
    def test_forked_child_gets_a_fresh_pool(self, rng, monkeypatch):
        # The parent's pool has live threads; a forked child inherits the
        # pool object without them and must not queue onto it forever.
        monkeypatch.setattr(bitops_impl, "usable_cpus", lambda: 2)
        a = pack_bits(rng.integers(0, 2, size=(16, 64), dtype=np.uint8))
        b = pack_bits(rng.integers(0, 2, size=(40000, 64), dtype=np.uint8))
        assert bitops_impl.tile_columns(16, 40000) < 40000
        expected = packed_hamming_matrix(a, b, num_threads=1)
        assert np.array_equal(packed_hamming_matrix(a, b), expected)
        child = multiprocessing.get_context("fork").Process(
            target=_child_matches, args=(a, b, expected))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("default-args kernel call hung in a forked child")
        assert child.exitcode == 0


BACKENDS = [pytest.param(True, id="bitwise_count",
                         marks=pytest.mark.skipif(
                             not bitops_impl.HAVE_BITWISE_COUNT,
                             reason="np.bitwise_count needs NumPy >= 2.0")),
            pytest.param(False, id="lut")]


class TestTiledKernel:
    """Column tiling of the kernel and its narrow ``out=`` accumulator."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("words", range(1, 18))
    def test_matches_naive_across_tile_and_block_edges(
            self, rng, monkeypatch, small_tiles, backend, words):
        monkeypatch.setattr(bitops_impl, "HAVE_BITWISE_COUNT", backend)
        bit_length = words * 64 - (words * 13) % 64  # rarely a multiple of 64
        assert words_for_bits(bit_length) == words
        bits_a = rng.integers(0, 2, size=(12, bit_length), dtype=np.uint8)
        bits_b = rng.integers(0, 2, size=(23, bit_length), dtype=np.uint8)
        expected = naive_hamming(bits_a, bits_b)
        packed_a, packed_b = pack_bits(bits_a), pack_bits(bits_b)
        assert np.array_equal(packed_hamming_matrix(packed_a, packed_b),
                              expected)
        narrow = np.empty(expected.shape, dtype=np.uint16)
        assert packed_hamming_matrix(packed_a, packed_b, out=narrow) is narrow
        assert np.array_equal(narrow, expected)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_default_tiles_on_a_long_operand(self, rng, monkeypatch, backend):
        # rows_b spans two default-width tiles with a ragged tail.
        monkeypatch.setattr(bitops_impl, "HAVE_BITWISE_COUNT", backend)
        bits_a = rng.integers(0, 2, size=(16, 200), dtype=np.uint8)
        bits_b = rng.integers(0, 2, size=(20000, 200), dtype=np.uint8)
        assert bitops_impl.tile_columns(16, 20000) < 20000
        result = packed_hamming_matrix(pack_bits(bits_a), pack_bits(bits_b))
        for first in range(0, 20000, 2500):
            chunk = slice(first, first + 2500)
            assert np.array_equal(result[:, chunk],
                                  naive_hamming(bits_a, bits_b[chunk]))

    @pytest.mark.parametrize("workers", [None, 3])
    def test_threaded_and_plane_paths_fill_out(self, rng, small_tiles,
                                               workers):
        bits_a = rng.integers(0, 2, size=(17, 130), dtype=np.uint8)
        bits_b = rng.integers(0, 2, size=(30, 130), dtype=np.uint8)
        expected = naive_hamming(bits_a, bits_b)
        narrow = np.empty(expected.shape, dtype=np.uint16)
        packed_hamming_matrix(pack_bits(bits_a), pack_bits(bits_b),
                              num_threads=workers or 1, out=narrow)
        assert np.array_equal(narrow, expected)

    def test_tile_width_comes_from_the_operand_shapes(self):
        # Few queries against many rows tile; the CNN and classify shapes
        # (at most 8192 columns) stay one tile.
        assert bitops_impl.tile_columns(16, 131072) == 16384
        assert bitops_impl.tile_columns(64, 8192) == 8192
        assert bitops_impl.tile_columns(512, 2048) == 2048
        assert bitops_impl.tile_columns(512, 131072) == 8192
        assert bitops_impl.tile_columns(3, 5) == 5

    def test_accumulator_dtype_boundary(self):
        assert accumulator_dtype(1) == np.uint16
        assert accumulator_dtype(1023) == np.uint16
        assert accumulator_dtype(1024) == np.int64

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_narrow_counts_at_the_uint16_boundary(self, monkeypatch, backend):
        # 1023 words is the widest uint16 accumulator: all-disagreeing rows
        # count 65472, a few short of the dtype's maximum.
        monkeypatch.setattr(bitops_impl, "HAVE_BITWISE_COUNT", backend)
        ones = np.full((2, 1023), np.iinfo(np.uint64).max, dtype=np.uint64)
        zeros = np.zeros((3, 1023), dtype=np.uint64)
        narrow = np.empty((2, 3), dtype=np.uint16)
        packed_hamming_matrix(ones, zeros, out=narrow)
        assert narrow.dtype == np.uint16
        assert np.all(narrow == 1023 * 64)
        assert np.all(packed_hamming_matrix(ones, zeros) == 1023 * 64)

    def test_out_must_hold_the_counts(self):
        wide = np.zeros((1, 1024), dtype=np.uint64)
        with pytest.raises(ValueError, match="cannot hold"):
            packed_hamming_matrix(wide, wide,
                                  out=np.empty((1, 1), dtype=np.uint16))
        narrow = np.zeros((2, 4), dtype=np.uint64)
        with pytest.raises(ValueError, match="shape"):
            packed_hamming_matrix(narrow, narrow,
                                  out=np.empty((2, 3), dtype=np.uint16))
        with pytest.raises(ValueError, match="cannot hold"):
            packed_hamming_matrix(narrow, narrow,
                                  out=np.empty((2, 2), dtype=np.uint8))


class TestColumnSpans:
    """One row block split into contiguous groups of its column tiles."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("out_dtype", [np.uint16, np.int64])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("rows_b", [8, 15, 23, 50])
    def test_spans_match_naive(self, rng, monkeypatch, small_tiles, backend,
                               out_dtype, cpus, rows_b):
        monkeypatch.setattr(bitops_impl, "HAVE_BITWISE_COUNT", backend)
        monkeypatch.setattr(bitops_impl, "usable_cpus", lambda: cpus)
        bits_a = rng.integers(0, 2, size=(5, 130), dtype=np.uint8)
        bits_b = rng.integers(0, 2, size=(rows_b, 130), dtype=np.uint8)
        tiles = -(-rows_b // 7)  # ragged tails: 8, 15, 50 are not multiples
        units = count_units(monkeypatch)
        out = np.empty((5, rows_b), dtype=out_dtype)
        assert packed_hamming_matrix(pack_bits(bits_a), pack_bits(bits_b),
                                     out=out) is out
        assert np.array_equal(out, naive_hamming(bits_a, bits_b))
        spans = sorted(units)
        assert len(spans) == min(cpus, tiles)
        assert spans[0][0] == 0 and spans[-1][1] == rows_b
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start and start % 7 == 0

    def test_explicit_cap_limits_the_spans(self, rng, monkeypatch,
                                           small_tiles):
        monkeypatch.setattr(bitops_impl, "usable_cpus", lambda: 8)
        bits_a = rng.integers(0, 2, size=(4, 64), dtype=np.uint8)
        bits_b = rng.integers(0, 2, size=(40, 64), dtype=np.uint8)
        units = count_units(monkeypatch)
        for cap, expected in ((1, 1), (2, 2), (None, 5)):
            units.clear()
            result = packed_hamming_matrix(pack_bits(bits_a),
                                           pack_bits(bits_b), num_threads=cap)
            assert np.array_equal(result, naive_hamming(bits_a, bits_b))
            assert len(units) == expected
