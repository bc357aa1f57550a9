"""Property tests for the tabulated read-out: tables equal their models.

A noise-free sense amplifier and the Eq. 5 cosine unit are both pure
functions of an integer Hamming distance in ``[0, k]``, so the read-out
tabulates them once and gathers.  These properties pin every table entry
to the model it replaces, bit for bit, over widths from 1 bit to 2048.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cam.sense_amplifier import ClockedSelfReferencedSenseAmp
from repro.hw.cosine_unit import CosineUnit, cosine_table, gather_cosines

#: Widths the read-out must handle: 1 bit, odd widths, and the paper's
#: supported hash lengths (256 ... 2048).
WIDTHS = st.one_of(st.sampled_from([1, 3, 255, 256, 512, 768, 2048]),
                   st.integers(1, 2048))


def _per_element_cosines(unit: CosineUnit, counts: np.ndarray, k: int) -> np.ndarray:
    """The model path the table replaces: ``unit(pi * d / k)`` per element."""
    thetas = np.pi * counts / k
    return np.asarray(unit(thetas.ravel())).reshape(thetas.shape)


class TestCosineTable:
    @given(k=WIDTHS, exact=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_table_equals_model_at_every_count(self, k, exact, seed):
        unit = CosineUnit(use_exact=exact)
        table = cosine_table(unit, k)
        assert table.shape == (k + 1,)
        # Every count, laid out as a shuffled matrix the way a read-out
        # sees it, through the per-element model.
        counts = np.random.default_rng(seed).permutation(k + 1)
        gathered = gather_cosines(table, counts)
        expected = _per_element_cosines(unit, counts, k)
        assert np.array_equal(gathered.view(np.uint64), expected.view(np.uint64))

    @given(k=WIDTHS, exact=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_table_equals_scalar_model(self, k, exact):
        unit = CosineUnit(use_exact=exact)
        table = cosine_table(unit, k)
        scalars = np.array([unit(np.pi * d / k) for d in range(k + 1)])
        assert np.array_equal(table.view(np.uint64), scalars.view(np.uint64))

    @given(k=WIDTHS, dtype=st.sampled_from([np.uint16, np.int64, np.float64]))
    @settings(max_examples=30, deadline=None)
    def test_gather_rejects_out_of_range_counts(self, k, dtype):
        table = cosine_table(CosineUnit(), k)
        with pytest.raises(ValueError):
            gather_cosines(table, np.array([k + 1], dtype=dtype))
        if np.dtype(dtype).kind != "u":
            with pytest.raises(ValueError):
                gather_cosines(table, np.array([0, -1], dtype=dtype))

    def test_gather_rejects_fractional_distances(self):
        table = cosine_table(CosineUnit(), 64)
        with pytest.raises(ValueError):
            gather_cosines(table, np.array([1.5]))

    def test_table_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            cosine_table(CosineUnit(), 0)


class TestSenseAmpTable:
    @given(w=WIDTHS, seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.uint16, np.int64]))
    @settings(max_examples=40, deadline=None)
    def test_noise_free_gather_equals_model(self, w, seed, dtype):
        amp = ClockedSelfReferencedSenseAmp(word_bits=w)
        counts = np.random.default_rng(seed).permutation(w + 1).astype(dtype)
        gathered = amp.estimate_distances(counts)
        assert gathered.dtype == np.int64
        assert np.array_equal(gathered, amp._measure(counts)[2])

    @given(w=WIDTHS)
    @settings(max_examples=30, deadline=None)
    def test_out_of_range_counts_raise(self, w):
        amp = ClockedSelfReferencedSenseAmp(word_bits=w)
        # -1 must never wrap round to the table's last entry.
        for bad in (-1, w + 1):
            with pytest.raises(ValueError):
                amp.estimate_distances(np.array([0, bad]))
        with pytest.raises(ValueError):
            amp.estimate_distances(np.array([w + 1], dtype=np.uint16))

    @given(w=WIDTHS, sigma=st.floats(1.0, 200.0), seed=st.integers(0, 2**16),
           cut=st.integers(0, 64), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_noisy_amp_reads_concatenation_like_its_pieces(self, w, sigma,
                                                           seed, cut, data):
        counts = np.asarray(data.draw(st.lists(st.integers(0, w), min_size=1,
                                               max_size=64)))
        cut = min(cut, counts.size)
        whole = ClockedSelfReferencedSenseAmp(
            word_bits=w, timing_noise_sigma_ps=sigma, seed=seed)
        pieces = ClockedSelfReferencedSenseAmp(
            word_bits=w, timing_noise_sigma_ps=sigma, seed=seed)
        expected = np.concatenate([pieces.estimate_distances(counts[:cut]),
                                   pieces.estimate_distances(counts[cut:])])
        assert np.array_equal(whole.estimate_distances(counts), expected)
