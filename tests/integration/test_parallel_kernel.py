"""A fused pipeline search over a CPU-spanning kernel.

The packed kernel splits a long store into groups of its column tiles and
runs them on several threads.  The pipeline must still make exactly one
call through ``repro.shard.pipeline.packed_hamming_matrix`` (and one
through ``select_topk``) per top-k, so profilers that wrap those names
keep counting right, and the answers must equal a serial run's.

The in-process plane engines add no second split: under ``inline`` and
``threads`` a fused search is the same one kernel call, capped at the
engine's workers, and only ``processes`` fans the store out in spans.
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


PLANE_WORKERS = 3


def plane_probe(monkeypatch, executor):
    """Run a fused 4-shard search and a top-k on ``executor``, counting.

    Wraps the pipeline's kernel name (recording each call's
    ``num_threads``) and the ``hamming_fanout`` of the engine the
    pipeline resolves.  Returns ``(kernel thread caps, fan-out calls,
    engine workers, answers)``.
    """
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 2, size=(ROWS, WORD_BITS), dtype=np.uint8)
    queries = pack_bits(rng.integers(0, 2, size=(QUERIES, WORD_BITS),
                                     dtype=np.uint8))
    caps, fanouts, engines = [], [], []
    kernel = pipeline_module.packed_hamming_matrix
    resolve = pipeline_module.resolve_executor

    def counting_kernel(*args, num_threads=None, **kwargs):
        caps.append(num_threads)
        return kernel(*args, num_threads=num_threads, **kwargs)

    def counting_resolve(*args, **kwargs):
        engine = resolve(*args, **kwargs)
        fanout = engine.hamming_fanout

        def counting_fanout(*fan_args, **fan_kwargs):
            fanouts.append(len(fan_args[2]))
            return fanout(*fan_args, **fan_kwargs)

        engine.hamming_fanout = counting_fanout
        engines.append(engine)
        return engine

    with monkeypatch.context() as patch:
        patch.delenv(EXECUTOR_ENV, raising=False)
        patch.setattr(pipeline_module, "packed_hamming_matrix",
                      counting_kernel)
        patch.setattr(pipeline_module, "resolve_executor", counting_resolve)
        pipeline = ShardedCamPipeline(ROWS, WORD_BITS, num_shards=4,
                                      fanout="fused", executor=executor,
                                      num_workers=PLANE_WORKERS)
        try:
            pipeline.write_rows(rows)
            distances, _, _ = pipeline.search_batch_packed(queries)
            top = pipeline.topk_packed(queries, K)
        finally:
            pipeline.close()
    workers = engines[0].workers if engines else None
    return caps, fanouts, workers, (distances, top.indices, top.distances)


@pytest.mark.parametrize("executor", ["inline", "threads"])
def test_in_process_engines_make_one_kernel_call(monkeypatch, executor):
    # One kernel call per search over the whole store, capped at the
    # engine's workers; the plane's count fan-out is never entered.
    caps, fanouts, workers, got = plane_probe(monkeypatch, executor)
    assert workers == (1 if executor == "inline" else PLANE_WORKERS)
    assert caps == [workers, workers]
    assert fanouts == []
    _, _, _, expected = plane_probe(monkeypatch, None)
    for answer, reference in zip(got, expected):
        assert np.array_equal(answer, reference)


def test_process_engine_still_fans_out_spans(monkeypatch):
    # 600 rows over 3 workers at >= 256 rows a span: three spans a search.
    caps, fanouts, _, got = plane_probe(monkeypatch, "processes")
    assert caps == []
    assert fanouts == [3, 3]
    _, _, _, expected = plane_probe(monkeypatch, None)
    for answer, reference in zip(got, expected):
        assert np.array_equal(answer, reference)
