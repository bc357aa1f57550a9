"""Execution-plane demo: one search, three engines, in four acts.

Runs in a few seconds:

1. the engine matrix: the same sharded search on ``inline``, ``threads``
   and ``processes`` -- bit-identical counts, because the plane only ever
   fans out pure XOR+popcount work;
2. what the plane adds: the packed kernel already spans the CPUs by
   itself, so ``hamming_fanout`` on the process engine (worker spans
   over published storage) must match one direct kernel call, and the
   ``executor=`` argument beats the ``REPRO_EXECUTOR`` environment
   variable;
3. crash containment: a worker SIGKILLed mid-search surfaces as a typed
   :class:`~repro.exec.WorkerCrashError` on the raw pool, while the
   default :class:`~repro.exec.FallbackExecutor` wiring replays the batch
   inline and the caller never notices;
4. lifecycle: lazy pool spawn, copy-on-write storage republish across a
   rebalance, and a clean ``close()`` that unlinks every SharedMemory
   segment.

Usage::

    python examples/exec_demo.py
"""

from __future__ import annotations

import os

import numpy as np

from repro.bitops import pack_bits, packed_hamming_matrix
from repro.exec import (
    EXECUTOR_ENV,
    EXECUTOR_NAMES,
    CrashInjector,
    ProcessExecutor,
    WorkerCrashError,
    resolve_executor,
    split_rows,
)
from repro.shard import ShardedCamPipeline


def shm_segments() -> list[str]:
    """Live execution-plane SharedMemory segments on this host."""
    try:
        return [name for name in os.listdir("/dev/shm")
                if name.startswith("repro_exec_")]
    except FileNotFoundError:  # non-Linux: nothing to observe
        return []


def check(ok: bool, what: str) -> bool:
    """Pass ``ok`` through for printing; exit nonzero when it is false."""
    if not ok:
        raise SystemExit(f"exec demo: {what} failed")
    return ok


def main() -> None:
    rng = np.random.default_rng(0)
    rows, word_bits = 512, 256
    bits = rng.integers(0, 2, size=(rows, word_bits), dtype=np.uint8)
    queries = rng.integers(0, 2, size=(16, word_bits), dtype=np.uint8)

    print("== 1. Three engines, one answer ==")
    reference = None
    for name in EXECUTOR_NAMES:
        pipeline = ShardedCamPipeline(total_rows=rows, word_bits=word_bits,
                                      num_shards=4, executor=name,
                                      num_workers=2)
        pipeline.write_rows(bits)
        counts, energy, _ = pipeline.search_batch(queries)
        pipeline.close()
        if reference is None:
            reference = counts
        identical = check(np.array_equal(counts, reference),
                          f"{name} bit-identity")
        print(f"{name:>10}: counts identical to inline = {identical}, "
              f"energy = {energy:.1f} pJ")

    print()
    print("== 2. Picking the engine ==")
    packed_q = pack_bits(queries)
    packed_r = pack_bits(bits)
    spans = split_rows(rows, 2)
    serial = packed_hamming_matrix(packed_q, packed_r)
    with resolve_executor("processes", workers=2) as engine:
        handle = engine.publish(packed_r)
        try:
            spanned = np.concatenate(
                engine.hamming_fanout(packed_q, handle, spans), axis=1)
        finally:
            handle.retire()
    print(f"process spans {spans} == direct kernel: "
          f"{check(np.array_equal(spanned, serial), 'span fan-out')}")
    os.environ[EXECUTOR_ENV] = "processes"
    pinned = ShardedCamPipeline(total_rows=rows, word_bits=word_bits,
                                num_shards=4, executor="inline")
    print(f"{EXECUTOR_ENV}=processes, executor='inline' -> "
          f"{pinned.stats()['executor']}")
    pinned.close()
    del os.environ[EXECUTOR_ENV]
    print("precedence: executor= argument > REPRO_EXECUTOR > defaults")

    print()
    print("== 3. Crash containment ==")
    injector = CrashInjector()
    raw = ProcessExecutor(workers=2, crash_injector=injector)
    injector.arm(1)
    try:
        raw.hamming_fanout(packed_q, packed_r, spans)
    except WorkerCrashError as error:
        print(f"raw pool: WorkerCrashError surfaced ({error})")
    raw.close()

    guarded = resolve_executor("processes", workers=2)  # FallbackExecutor
    guarded.primary.crash_injector = injector
    injector.arm(1)
    replayed = np.concatenate(
        guarded.hamming_fanout(packed_q, packed_r, spans), axis=1)
    stats = guarded.stats()
    print(f"guarded pool: batch replayed inline, identical = "
          f"{check(np.array_equal(replayed, serial), 'crash replay')} "
          f"(crashes={stats['worker_crashes']}, "
          f"fallback_batches={stats['fallback_batches']})")
    guarded.close()

    print()
    print("== 4. Lifecycle: publish once, republish on write, clean close ==")
    before = set(shm_segments())
    pipeline = ShardedCamPipeline(total_rows=rows, word_bits=word_bits,
                                  num_shards=4, executor="processes",
                                  num_workers=2)
    pipeline.write_rows(bits)
    pipeline.search_batch(queries)
    serving = len(shm_segments())
    print(f"published segments while serving: {serving}")
    pipeline.rebalance(num_shards=6)
    pipeline.write_rows(bits[:32], start_row=0)    # copy-on-write republish
    pipeline.search_batch(queries)
    print(f"executor stats: {pipeline.stats()['executor_stats']}")
    pipeline.close()
    check(set(shm_segments()) <= before, "segment cleanup")
    print(f"segments after close(): {len(shm_segments())} "
          f"(was {serving} while serving)")


if __name__ == "__main__":
    main()
