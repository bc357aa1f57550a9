"""Fault injection: a process worker dies mid-search.

The contract has two layers.  The raw :class:`ProcessExecutor` must
surface the death as a typed :class:`WorkerCrashError` (never a hang,
never a silent partial result); the :class:`FallbackExecutor` wrapper the
pipeline actually uses must catch it, replay the whole batch on the
inline engine and return bit-identical results, while the broken pool
respawns lazily for the next search.
"""

import os

import numpy as np
import pytest

from repro.bitops import packed_hamming_matrix
from repro.cam.array import CamArray
from repro.exec import (
    CrashInjector,
    FallbackExecutor,
    InlineExecutor,
    ProcessExecutor,
    WorkerCrashError,
    split_rows,
)
from repro.shard import ShardedCamPipeline

WORD_BITS = 96


def shm_segments():
    try:
        return sorted(name for name in os.listdir("/dev/shm")
                      if name.startswith("repro_exec_"))
    except FileNotFoundError:
        return []


def spanned(engine, a, b):
    """The count matrix of ``a`` vs ``b``, fanned out over two row spans."""
    return np.concatenate(
        engine.hamming_fanout(a, b, split_rows(b.shape[0], 2)), axis=1)


def crashing_executor(workers=2):
    injector = CrashInjector()
    primary = ProcessExecutor(workers=workers, crash_injector=injector)
    return FallbackExecutor(primary, InlineExecutor()), injector


class TestRawCrashSurfaces:
    def test_killed_worker_raises_typed_error(self, rng):
        injector = CrashInjector()
        engine = ProcessExecutor(workers=2, crash_injector=injector)
        try:
            a = rng.integers(0, 2 ** 63, size=(64, 2), dtype=np.uint64)
            b = rng.integers(0, 2 ** 63, size=(700, 2), dtype=np.uint64)
            injector.arm(1)
            with pytest.raises(WorkerCrashError):
                engine.hamming_fanout(a, b, split_rows(b.shape[0], 2))
            assert injector.injected == 1
            stats = engine.stats()
            assert stats["worker_crashes"] == 1
            assert not stats["pool_alive"]  # the broken pool was discarded
            # The next search respawns a pool lazily and succeeds.
            assert np.array_equal(spanned(engine, a, b),
                                  packed_hamming_matrix(a, b))
            assert engine.stats()["pools_spawned"] == 2
        finally:
            engine.close()

    def test_crash_during_fanout_raises_too(self, rng):
        injector = CrashInjector()
        engine = ProcessExecutor(workers=2, crash_injector=injector)
        try:
            queries = rng.integers(0, 2 ** 63, size=(4, 2), dtype=np.uint64)
            storage = rng.integers(0, 2 ** 63, size=(128, 2), dtype=np.uint64)
            injector.arm(1)
            with pytest.raises(WorkerCrashError):
                engine.hamming_fanout(queries, storage, [(0, 64), (64, 128)])
        finally:
            engine.close()


class TestFallbackReplay:
    def test_batch_replayed_bit_identically(self, rng):
        engine, injector = crashing_executor()
        try:
            a = rng.integers(0, 2 ** 63, size=(40, 3), dtype=np.uint64)
            b = rng.integers(0, 2 ** 63, size=(900, 3), dtype=np.uint64)
            reference = packed_hamming_matrix(a, b)
            injector.arm(1)
            assert np.array_equal(spanned(engine, a, b), reference)
            stats = engine.stats()
            assert stats["worker_crashes"] == 1
            assert stats["fallback_batches"] == 1
            # Uncrashed searches go back to the (respawned) primary.
            assert np.array_equal(spanned(engine, a, b), reference)
            assert engine.stats()["fallback_batches"] == 1
        finally:
            engine.close()

    def test_pipeline_search_survives_worker_kill(self, rng):
        # End to end: one process worker is SIGKILLed mid-search inside a
        # sharded cluster; the search must return bit-identical distances
        # (replayed inline) and surface the crash only in the stats.
        bits = rng.integers(0, 2, size=(200, WORD_BITS), dtype=np.uint8)
        queries = rng.integers(0, 2, size=(6, WORD_BITS), dtype=np.uint8)
        cam = CamArray(rows=200, word_bits=WORD_BITS)
        cam.write_rows(bits)
        expected, ref_energy, _ = cam.search_batch(queries)

        engine, injector = crashing_executor()
        pipeline = ShardedCamPipeline(
            total_rows=200, word_bits=WORD_BITS, num_shards=4,
            fanout="ports", executor=engine, num_workers=2)
        try:
            pipeline.write_rows(bits)
            injector.arm(1)
            distances, energy, _ = pipeline.search_batch(queries)
            assert np.array_equal(distances, expected)
            assert energy == pytest.approx(ref_energy, rel=1e-12)
            stats = pipeline.stats()["executor_stats"]
            assert stats["worker_crashes"] == 1
            assert stats["fallback_batches"] == 1
            # And the very next search runs clean on a fresh pool.
            again, _, _ = pipeline.search_batch(queries)
            assert np.array_equal(again, expected)
        finally:
            pipeline.close()
            engine.close()

    def test_no_segments_leak_across_a_crash(self, rng):
        baseline = shm_segments()
        engine, injector = crashing_executor()
        handle = engine.publish(
            rng.integers(0, 2 ** 63, size=(256, 2), dtype=np.uint64))
        queries = rng.integers(0, 2 ** 63, size=(3, 2), dtype=np.uint64)
        injector.arm(1)
        engine.hamming_fanout(queries, handle, [(0, 128), (128, 256)])
        handle.retire()
        engine.close()
        assert shm_segments() == baseline
