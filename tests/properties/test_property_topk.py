"""Property tests pinning ``select_topk`` to a brute-force lexsort oracle.

``select_topk`` never sorts the whole matrix: it bounds each query's top-k
by the k-th smallest value of a column prefix, filters to the survivors
and sorts only those.  These tests hold it to the definition -- per query,
``np.lexsort((ids, values))[:k]`` -- over the cases that stress the bound:
maximal ties, ``k`` at ``1``, ``n - 1`` and ``n``, shared and per-query id
matrices, non-monotonic ids, narrow and wide dtypes, and prefixes that hold
each query's worst columns.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.cam.topk as topk_module
from repro.cam.topk import select_topk


def oracle_topk(values, row_ids, k):
    """Per-query brute force: full lexsort by (value, row id)."""
    batch, n = values.shape
    ids = np.broadcast_to(np.asarray(row_ids, dtype=np.int64), (batch, n))
    k_eff = min(k, n)
    indices = np.zeros((batch, k_eff), dtype=np.int64)
    distances = np.zeros((batch, k_eff), dtype=np.int64)
    for query in range(batch):
        order = np.lexsort((ids[query], values[query]))[:k_eff]
        indices[query] = ids[query][order]
        distances[query] = values[query][order]
    return indices, distances


def assert_matches_oracle(values, row_ids, k, id_bound):
    indices, distances = select_topk(values, row_ids, k, id_bound)
    expected_indices, expected_distances = oracle_topk(values, row_ids, k)
    assert indices.dtype == np.int64 and distances.dtype == np.int64
    assert np.array_equal(indices, expected_indices)
    assert np.array_equal(distances, expected_distances)


def row_ids_for(rng, batch, n, per_query):
    """Non-monotonic, unique-per-query ids drawn from a wider range."""
    if per_query:
        return np.stack([rng.permutation(4 * n)[:n] for _ in range(batch)])
    return rng.permutation(4 * n)[:n]


@pytest.fixture(params=[2048, 1], ids=["default-prefix", "k-column-prefix"])
def prefix_per_k(request, monkeypatch):
    """Run each case with the default bound prefix and the shortest one."""
    monkeypatch.setattr(topk_module, "BOUND_PREFIX_PER_K", request.param)
    return request.param


class TestSelectTopkOracle:
    @pytest.mark.parametrize("dtype", [np.int64, np.uint16])
    @pytest.mark.parametrize("per_query", [False, True])
    @pytest.mark.parametrize("k", [1, 11, 12])
    def test_all_equal_matrix(self, rng, prefix_per_k, dtype, per_query, k):
        # Maximal ties: every column survives the bound; the row ids alone
        # decide the order.
        batch, n = 3, 12
        values = np.full((batch, n), 7, dtype=dtype)
        ids = row_ids_for(rng, batch, n, per_query)
        assert_matches_oracle(values, ids, k, id_bound=4 * n)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16])
    @pytest.mark.parametrize("per_query", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 39, 40])
    def test_prefix_holds_the_worst_columns(self, rng, prefix_per_k, dtype,
                                            per_query, k):
        # Each query's largest values sit in the leading columns, so the
        # prefix bound is as loose as it can be.
        batch, n = 4, 40
        values = np.sort(rng.integers(0, 20, size=(batch, n)), axis=1)[:, ::-1]
        values = np.ascontiguousarray(values).astype(dtype)
        ids = row_ids_for(rng, batch, n, per_query)
        assert_matches_oracle(values, ids, k, id_bound=4 * n)

    def test_prefix_shorter_than_the_matrix_at_scale(self, rng):
        # Default prefix with n > k * BOUND_PREFIX_PER_K: the bound comes
        # from a strict prefix, the survivors from the whole row.
        batch, n, k = 3, 5000, 2
        values = rng.binomial(256, 0.5, size=(batch, n)).astype(np.uint16)
        values[:, -1] = 0  # the best column lies outside the prefix
        assert_matches_oracle(values, np.arange(n), k, id_bound=n)

    def test_non_contiguous_values(self, rng):
        # A column-sliced view: the filter must not assume C order.
        values = rng.integers(0, 9, size=(5, 60))[:, ::2]
        assert_matches_oracle(values, np.arange(30)[::-1].copy(), 4,
                              id_bound=30)

    @given(batch=st.integers(1, 5), n=st.integers(1, 48),
           k=st.integers(1, 52), high=st.sampled_from([1, 3, 300]),
           dtype=st.sampled_from([np.int64, np.uint16]),
           per_query=st.booleans(), prefix=st.sampled_from([1, 2, 2048]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=120, deadline=None)
    def test_random_matrices(self, batch, n, k, high, dtype, per_query,
                             prefix, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, high + 1, size=(batch, n)).astype(dtype)
        ids = row_ids_for(rng, batch, n, per_query)
        previous = topk_module.BOUND_PREFIX_PER_K
        topk_module.BOUND_PREFIX_PER_K = prefix
        try:
            assert_matches_oracle(values, ids, k, id_bound=4 * n)
        finally:
            topk_module.BOUND_PREFIX_PER_K = previous
