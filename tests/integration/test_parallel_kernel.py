"""A fused pipeline search over a CPU-spanning kernel.

The packed kernel splits a long store into groups of its column tiles and
runs them on several threads.  The pipeline must still make exactly one
call through ``repro.shard.pipeline.packed_hamming_matrix`` (and one
through ``select_topk``) per top-k, so profilers that wrap those names
keep counting right, and the answers must equal a serial run's.
"""

import numpy as np
import pytest

import repro.bitops as bitops_impl
import repro.shard.pipeline as pipeline_module
from repro.bitops import EXECUTOR_ENV, pack_bits
from repro.shard.pipeline import ShardedCamPipeline

ROWS, WORD_BITS, QUERIES, K = 600, 130, 4, 9


@pytest.fixture
def spanning_kernel(monkeypatch):
    # 16-column tiles, so the 600-row store is 38 tiles; 3 usable CPUs.
    monkeypatch.delenv(EXECUTOR_ENV, raising=False)
    monkeypatch.setattr(bitops_impl, "KERNEL_TILE_ELEMENTS", 64)
    monkeypatch.setattr(bitops_impl, "KERNEL_MIN_TILE_COLUMNS", 16)
    monkeypatch.setattr(bitops_impl, "usable_cpus", lambda: 3)
    assert bitops_impl.tile_columns(QUERIES, ROWS) == 16
    calls = {"kernel": 0, "select": 0, "units": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(pipeline_module, "packed_hamming_matrix",
                        counting("kernel", pipeline_module.packed_hamming_matrix))
    monkeypatch.setattr(pipeline_module, "select_topk",
                        counting("select", pipeline_module.select_topk))
    monkeypatch.setattr(bitops_impl, "_hamming_unit",
                        counting("units", bitops_impl._hamming_unit))
    return calls


def answers(rows, queries):
    pipeline = ShardedCamPipeline(ROWS, WORD_BITS, num_shards=4,
                                  fanout="fused")
    try:
        pipeline.write_rows(rows)
        top = pipeline.topk_packed(queries, K)
        distances, _, _ = pipeline.search_batch_packed(queries)
        return top.indices, top.distances, distances
    finally:
        pipeline.close()


def test_fused_search_spans_cpus_in_one_kernel_call(rng, monkeypatch,
                                                     spanning_kernel):
    rows = rng.integers(0, 2, size=(ROWS, WORD_BITS), dtype=np.uint8)
    rows[ROWS - 5:] = rows[:5]  # exact ties across the first and last tile
    queries = pack_bits(np.concatenate(
        [rows[:2], rng.integers(0, 2, size=(QUERIES - 2, WORD_BITS),
                                dtype=np.uint8)]))
    pipeline = ShardedCamPipeline(ROWS, WORD_BITS, num_shards=4,
                                  fanout="fused")
    try:
        pipeline.write_rows(rows)
        pipeline.topk_packed(queries, K)
        assert spanning_kernel == {"kernel": 1, "select": 1, "units": 3}
    finally:
        pipeline.close()

    spanned = answers(rows, queries)
    monkeypatch.setattr(bitops_impl, "usable_cpus", lambda: 1)
    serial = answers(rows, queries)
    for got, expected in zip(spanned, serial):
        assert np.array_equal(got, expected)
    assert spanned[0][0, :2].tolist() == [0, ROWS - 5]
