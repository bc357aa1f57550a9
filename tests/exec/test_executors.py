"""The execution plane's engine contract: bit-identity and lifecycle.

Every engine must produce byte-for-byte the results of the serial
reference kernel for both fan-out primitives, shapes and selectors
included, because the layers above (kernel, shard, serve, net) treat the
engine as a pure substitution.
"""

import os

import numpy as np
import pytest

from repro.bitops import packed_hamming_matrix
from repro.exec import (
    DEFAULT_EXECUTOR,
    EXECUTOR_ENV,
    EXECUTOR_NAMES,
    FallbackExecutor,
    InlineExecutor,
    ProcessExecutor,
    StorageHandle,
    ThreadExecutor,
    resolve_executor,
    resolve_executor_name,
    resolve_workers,
    split_rows,
)

EXECUTORS = list(EXECUTOR_NAMES)


def shm_segments():
    """Live execution-plane SharedMemory segments on this host."""
    try:
        return sorted(name for name in os.listdir("/dev/shm")
                      if name.startswith("repro_exec_"))
    except FileNotFoundError:  # non-Linux fallback: nothing to observe
        return []


@pytest.fixture
def engine(request):
    executor = resolve_executor(request.param, workers=2)
    yield executor
    executor.close()


def packed(rng, rows, words):
    return rng.integers(0, 2 ** 63, size=(rows, words), dtype=np.uint64)


class TestEngineBitIdentity:
    @pytest.mark.parametrize("engine", EXECUTORS, indirect=True)
    @pytest.mark.parametrize("rows_a,rows_b,words", [
        (1, 1, 1), (7, 13, 3), (700, 90, 2), (65, 1300, 4),
    ])
    def test_spanned_fanout_matches_kernel(self, rng, engine,
                                           rows_a, rows_b, words):
        # The worker spans of a fused search, concatenated, are the kernel.
        a, b = packed(rng, rows_a, words), packed(rng, rows_b, words)
        blocks = engine.hamming_fanout(a, b, split_rows(rows_b, 2))
        assert np.array_equal(np.concatenate(blocks, axis=1),
                              packed_hamming_matrix(a, b))

    @pytest.mark.parametrize("engine", EXECUTORS, indirect=True)
    def test_hamming_fanout_matches_kernel_slices(self, rng, engine):
        queries, storage = packed(rng, 9, 3), packed(rng, 500, 3)
        selectors = [(0, 200), (200, 450), (450, 500),
                     np.array([499, 0, 17, 17, 3], dtype=np.int64),
                     np.array([], dtype=np.int64)]
        handle = engine.publish(storage)
        try:
            blocks = engine.hamming_fanout(queries, handle, selectors)
        finally:
            handle.retire()
        for selector, block in zip(selectors, blocks):
            rows = (storage[selector[0]:selector[1]]
                    if isinstance(selector, tuple) else storage[selector])
            assert np.array_equal(block, packed_hamming_matrix(queries, rows))

    @pytest.mark.parametrize("engine", EXECUTORS, indirect=True)
    def test_fanout_blocks_are_narrow_counts(self, rng, engine):
        # A process worker pickles its block back through the pipe, so the
        # blocks stay in the kernel's accumulator dtype, not int64.
        queries, storage = packed(rng, 5, 4), packed(rng, 300, 4)
        blocks = engine.hamming_fanout(queries, storage, split_rows(300, 2))
        assert [block.dtype for block in blocks] == [np.uint16, np.uint16]

    @pytest.mark.parametrize("engine", EXECUTORS, indirect=True)
    def test_raw_array_storage_is_accepted(self, rng, engine):
        queries, storage = packed(rng, 4, 2), packed(rng, 64, 2)
        blocks = engine.hamming_fanout(queries, storage, [(0, 64)])
        assert np.array_equal(blocks[0],
                              packed_hamming_matrix(queries, storage))

    @pytest.mark.parametrize("engine", EXECUTORS, indirect=True)
    def test_empty_query_batch_is_a_shaped_noop(self, rng, engine):
        queries = np.zeros((0, 2), dtype=np.uint64)
        storage = packed(rng, 32, 2)
        blocks = engine.hamming_fanout(queries, storage, [(0, 32)])
        assert blocks[0].shape == (0, 32)

    @pytest.mark.parametrize("engine", EXECUTORS, indirect=True)
    def test_selector_bounds_are_validated(self, rng, engine):
        queries, storage = packed(rng, 2, 1), packed(rng, 8, 1)
        with pytest.raises(ValueError):
            engine.hamming_fanout(queries, storage, [(0, 9)])
        with pytest.raises(ValueError):
            engine.hamming_fanout(queries, storage,
                                  [np.array([8], dtype=np.int64)])


class TestResolution:
    def test_name_precedence(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        assert resolve_executor_name() == DEFAULT_EXECUTOR
        monkeypatch.setenv(EXECUTOR_ENV, "inline")
        assert resolve_executor_name() == "inline"
        assert resolve_executor_name("processes") == "processes"
        with pytest.raises(ValueError):
            resolve_executor_name("gpu")

    def test_resolve_executor_wraps_processes_in_fallback(self):
        executor = resolve_executor("processes", workers=1)
        try:
            assert isinstance(executor, FallbackExecutor)
            assert isinstance(executor.primary, ProcessExecutor)
            assert isinstance(executor.fallback, InlineExecutor)
            assert executor.name == "processes"
            assert not executor.in_process
        finally:
            executor.close()

    def test_resolve_executor_passthrough_instance(self):
        inline = InlineExecutor()
        assert resolve_executor(inline) is inline

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_engine_types(self):
        assert isinstance(resolve_executor("inline"), InlineExecutor)
        threads = resolve_executor("threads", workers=2)
        try:
            assert isinstance(threads, ThreadExecutor)
            assert threads.workers == 2
        finally:
            threads.close()


class TestSplitRows:
    def test_spans_partition_exactly(self):
        for total in (1, 7, 64, 513, 2048):
            for parts in (1, 2, 4, 9):
                spans = split_rows(total, parts)
                assert spans[0][0] == 0 and spans[-1][1] == total
                for (_, stop), (start, _) in zip(spans, spans[1:]):
                    assert stop == start
                assert len(spans) <= parts

    def test_min_rows_caps_the_span_count(self):
        spans = split_rows(100, 8, min_rows=64)
        assert len(spans) == 2  # ceil(100/64)
        assert split_rows(0, 4) == []


class TestStorageHandle:
    def test_refcount_defers_destroy_until_release(self, rng):
        engine = ProcessExecutor(workers=1)
        try:
            handle = engine.publish(packed(rng, 16, 1))
            assert shm_segments()  # the segment exists while published
            handle.acquire()       # an in-flight search pins it...
            handle.retire()        # ...so the owner's retire must not free it
            assert shm_segments()
            handle.release()       # the search finishes -> segment unlinked
            assert shm_segments() == []
        finally:
            engine.close()

    def test_inprocess_publish_wraps_without_copy(self, rng):
        storage = packed(rng, 8, 1)
        handle = InlineExecutor().publish(storage)
        assert handle.array is storage
        handle.retire()

    def test_release_below_zero_raises(self, rng):
        handle = StorageHandle(packed(rng, 2, 1))
        handle.retire()
        with pytest.raises(RuntimeError):
            handle.release()
