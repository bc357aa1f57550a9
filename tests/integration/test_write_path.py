"""The sharded pipeline's write path: allocation bound and lost updates.

A write must cost memory in proportion to what searches need copied, not
to a one-byte-per-bit row store: the pipeline keeps no unpacked copy, and
only the packed words (8 bytes per 64 bits per row) and the populated
mask are replaced copy-on-write.  The allocation is measured with
``tracemalloc``, so no clock; the stress test races writes against
rebalances, which reload every port by unpacking the packed words.
"""

import sys
import threading
import tracemalloc

import numpy as np

from repro.bitops import pack_bits
from repro.shard.pipeline import ShardedCamPipeline

ROWS, WORD_BITS, WRITE_ROWS = 131072, 256, 64


def test_small_write_does_not_copy_the_unpacked_rows(rng):
    pipeline = ShardedCamPipeline(ROWS, WORD_BITS, num_shards=4)
    try:
        bits = rng.integers(0, 2, size=(WRITE_ROWS, WORD_BITS), dtype=np.uint8)
        pipeline.write_rows(bits, start_row=0)  # first-touch outside the trace
        tracemalloc.start()
        try:
            pipeline.write_rows(bits, start_row=ROWS // 2)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        # The unpacked store alone is ROWS * WORD_BITS bytes = 32 MB; the
        # copy-on-write packed words are 4 MB.
        assert peak_mb < 8, f"write allocated {peak_mb:.1f} MB"
        assert pipeline.occupancy == 2 * WRITE_ROWS
        result = pipeline.topk_packed(pack_bits(bits[:1]), 2)
        assert result.indices.tolist() == [[0, ROWS // 2]]
        assert result.distances.tolist() == [[0, 0]]
    finally:
        pipeline.close()


def test_concurrent_writes_and_rebalances_lose_no_rows(rng):
    rows, word_bits, writers, blocks, block_rows = 192, 80, 4, 24, 2
    pipeline = ShardedCamPipeline(rows, word_bits, num_shards=3,
                                  fanout="ports")
    expected = rng.integers(0, 2, size=(rows, word_bits), dtype=np.uint8)
    errors = []

    def write(writer):
        try:
            # Writer w owns blocks w, w + writers, ...: disjoint rows.
            for block in range(writer, writers * blocks, writers):
                start = block * block_rows
                pipeline.write_rows(expected[start:start + block_rows],
                                    start_row=start)
        except Exception as error:  # surfaced by the assertion below
            errors.append(error)

    def rebalance():
        try:
            for shards in (2, 5, 1, 4, 3) * 10:
                pipeline.rebalance(num_shards=shards)
        except Exception as error:
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(writer,))
                   for writer in range(writers)]
        threads.append(threading.Thread(target=rebalance))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    try:
        assert pipeline.occupancy == rows
        # Ports fan-out reads the port arrays, which the last rebalance
        # rebuilt from the unpacked bits: every write must be there.
        counts, _, _ = pipeline.search_batch_packed(pack_bits(expected))
        naive = (expected[:, None, :] != expected[None, :, :]).sum(axis=-1)
        assert np.array_equal(counts, pipeline.sense_amp.estimate_distances(
            naive.reshape(-1)).reshape(rows, rows))
    finally:
        pipeline.close()
