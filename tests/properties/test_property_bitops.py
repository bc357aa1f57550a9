"""Property tests pinning the packed kernels to the unpacked reference paths.

The refactor's invariant is bit-exactness: packing signatures into uint64
words and computing XOR+popcount must agree everywhere with the naive
unpacked computation -- for any shape, any hash length (including lengths
not divisible by 8 or 64), through the CAM array, and through the full
simulator.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro.core.accelerator as accelerator_module
from repro.cam.array import CamArray
from repro.cam.dynamic import DynamicCam, DynamicCamConfig
from repro.cam.sense_amplifier import ClockedSelfReferencedSenseAmp
from repro.core.accelerator import DeepCAMSimulator
from repro.bitops import pack_bits, packed_hamming_matrix, unpack_bits
from repro.core.config import DeepCAMConfig
from repro.core.hashing import hamming_distance_matrix_unpacked
from repro.nn.models.lenet import build_lenet5


def bit_matrix(rows, bits):
    return hnp.arrays(dtype=np.uint8, shape=(rows, bits), elements=st.integers(0, 1))


class TestKernelEquivalence:
    @given(data=st.data(), rows_a=st.integers(1, 24), rows_b=st.integers(1, 24),
           bits=st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_packed_kernel_equals_naive_xor_sum(self, data, rows_a, rows_b, bits):
        bits_a = data.draw(bit_matrix(rows_a, bits))
        bits_b = data.draw(bit_matrix(rows_b, bits))
        naive = (bits_a[:, None, :] != bits_b[None, :, :]).sum(axis=-1)
        packed = packed_hamming_matrix(pack_bits(bits_a), pack_bits(bits_b))
        assert np.array_equal(packed, naive)

    @given(data=st.data(), rows=st.integers(1, 16), bits=st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_packed_kernel_equals_gemm_reference(self, data, rows, bits):
        bits_a = data.draw(bit_matrix(rows, bits))
        bits_b = data.draw(bit_matrix(rows, bits))
        assert np.array_equal(
            packed_hamming_matrix(pack_bits(bits_a), pack_bits(bits_b)),
            hamming_distance_matrix_unpacked(bits_a, bits_b))

    @given(data=st.data(), rows=st.integers(1, 12), bits=st.integers(1, 130))
    @settings(max_examples=40, deadline=None)
    def test_pack_roundtrip_any_length(self, data, rows, bits):
        matrix = data.draw(bit_matrix(rows, bits))
        assert np.array_equal(unpack_bits(pack_bits(matrix), bits), matrix)


class TestCamArrayEquivalence:
    @given(data=st.data(), rows=st.integers(1, 16), bits=st.integers(3, 96),
           queries=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_batch_search_equals_serial_search(self, data, rows, bits, queries):
        stored = data.draw(bit_matrix(rows, bits))
        query_matrix = data.draw(bit_matrix(queries, bits))
        batch_cam = CamArray(rows=rows, word_bits=bits)
        serial_cam = CamArray(rows=rows, word_bits=bits)
        batch_cam.write_rows(stored)
        serial_cam.write_rows(stored)

        distances, energy, latency = batch_cam.search_batch(query_matrix)
        serial = [serial_cam.search(query) for query in query_matrix]
        assert np.array_equal(distances, np.stack([r.distances for r in serial]))
        assert energy == pytest.approx(sum(r.energy_pj for r in serial))
        assert latency == sum(r.latency_cycles for r in serial)
        assert batch_cam.search_count == serial_cam.search_count

    def test_batch_search_matches_serial_with_noisy_sense_amp(self, rng):
        # The batched sense-amp read-out must consume the timing-noise RNG
        # stream in exactly the order the serialised searches would.
        rows, bits, queries = 12, 64, 9
        stored = rng.integers(0, 2, size=(rows, bits), dtype=np.uint8)
        query_matrix = rng.integers(0, 2, size=(queries, bits), dtype=np.uint8)

        def noisy_cam():
            cam = CamArray(rows=rows, word_bits=bits,
                           sense_amp=ClockedSelfReferencedSenseAmp(
                               word_bits=bits, timing_noise_sigma_ps=40.0, seed=99))
            cam.write_rows(stored)
            return cam

        distances, _, _ = noisy_cam().search_batch(query_matrix)
        serial_cam = noisy_cam()
        serial = np.stack([serial_cam.search(q).distances for q in query_matrix])
        assert np.array_equal(distances, serial)

    def test_partially_populated_batch(self, rng):
        cam = CamArray(rows=8, word_bits=32)
        cam.write_rows(rng.integers(0, 2, size=(3, 32), dtype=np.uint8))
        distances, _, _ = cam.search_batch(
            rng.integers(0, 2, size=(4, 32), dtype=np.uint8))
        assert np.all(distances[:, 3:] == -1)
        assert np.all(distances[:, :3] >= 0)

    def test_write_rows_energy_equals_per_row_writes(self, rng):
        bulk = CamArray(rows=8, word_bits=48)
        loop = CamArray(rows=8, word_bits=48)
        block = rng.integers(0, 2, size=(5, 48), dtype=np.uint8)
        bulk_energy = bulk.write_rows(block, start_row=2)
        loop_energy = sum(loop.write_row(2 + i, row) for i, row in enumerate(block))
        assert bulk_energy == pytest.approx(loop_energy)
        assert bulk.accumulated_write_energy_pj == pytest.approx(
            loop.accumulated_write_energy_pj)
        assert np.array_equal(bulk.read_row(4), loop.read_row(4))


class TestDynamicCamEquivalence:
    @given(data=st.data(), queries=st.integers(1, 5))
    @settings(max_examples=15, deadline=None)
    def test_batch_search_equals_serial_at_partial_width(self, data, queries):
        stored = data.draw(bit_matrix(6, 300))
        query_matrix = data.draw(bit_matrix(queries, 300))

        def loaded():
            cam = DynamicCam(DynamicCamConfig(rows=6))
            cam.configure_for_hash_length(300)
            cam.write_rows(stored)
            return cam

        distances, energy, latency = loaded().search_batch(query_matrix)
        serial = [loaded().search(query) for query in query_matrix]
        assert np.array_equal(distances, np.stack([r.distances for r in serial]))
        assert energy == pytest.approx(sum(r.energy_pj for r in serial))
        assert latency == sum(r.latency_cycles for r in serial)


class TestSimulatorEquivalence:
    def _unpacked_kernel(self, a_packed, b_packed):
        # Decode the packed operands back to (zero-padded) bits and run the
        # legacy GEMM; the padding bits agree on both sides so the result is
        # the distance over the true hash length.
        width_a = a_packed.shape[-1] * 64
        width_b = b_packed.shape[-1] * 64
        return hamming_distance_matrix_unpacked(
            unpack_bits(a_packed, width_a), unpack_bits(b_packed, width_b))

    def test_logits_identical_with_packed_and_unpacked_kernels(self, rng, monkeypatch):
        model = build_lenet5(num_classes=4, input_size=28, width_multiplier=0.5,
                             seed=5)
        images = rng.standard_normal((2, 1, 28, 28))
        config = DeepCAMConfig(cam_rows=64)

        packed_logits = DeepCAMSimulator(config).run(model, images)
        monkeypatch.setattr(accelerator_module, "packed_hamming_matrix",
                            self._unpacked_kernel)
        unpacked_logits = DeepCAMSimulator(config).run(model, images)
        assert np.array_equal(packed_logits, unpacked_logits)

    def test_software_and_cam_hardware_paths_agree(self, rng):
        model = build_lenet5(num_classes=3, input_size=28, width_multiplier=0.5,
                             seed=11)
        images = rng.standard_normal((1, 1, 28, 28))
        config = DeepCAMConfig(cam_rows=64)
        software = DeepCAMSimulator(config).run(model, images)
        hardware = DeepCAMSimulator(config, use_cam_hardware=True).run(model, images)
        assert np.array_equal(software, hardware)
