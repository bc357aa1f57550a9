"""The sharded pipeline's memory per stored row.

The packed words are the only row copy the pipeline owns; every replica
port holds its own packed copy.  Anything else that scales with rows --
the plan's three ``int64`` row maps and the populated masks -- must fit
in one more packed row's worth of bytes.  Measured with ``tracemalloc``
as the bytes still allocated once the pipeline is built and full.
"""

import tracemalloc

import numpy as np
import pytest

from repro.shard.pipeline import ShardedCamPipeline

ROWS, WORD_BITS, SHARDS = 131072, 256, 4
PACKED_ROW_BYTES = WORD_BITS // 8


@pytest.mark.parametrize("replicas", [1, 2])
def test_retained_bytes_per_row(rng, replicas):
    bits = rng.integers(0, 2, size=(ROWS, WORD_BITS), dtype=np.uint8)
    tracemalloc.start()
    try:
        pipeline = ShardedCamPipeline(ROWS, WORD_BITS, num_shards=SHARDS,
                                      num_replicas=replicas)
        pipeline.write_rows(bits)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    try:
        assert pipeline.occupancy == ROWS
        bound = ((1 + replicas) * PACKED_ROW_BYTES + PACKED_ROW_BYTES) * ROWS
        assert retained <= bound, (
            f"{replicas} replica(s): retained {retained / 2**20:.1f} MiB, "
            f"bound {bound / 2**20:.1f} MiB")
    finally:
        pipeline.close()
