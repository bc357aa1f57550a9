"""The pipeline's kernel and top-k selection stay behind module attributes.

Profilers time the packed kernel and the top-k selection, and count the
kernel's word operations, by wrapping
``repro.shard.pipeline.packed_hamming_matrix`` and
``repro.shard.pipeline.select_topk``.  Every fused search must call through
those names exactly once per batch, or such measurements silently read
zero or double-count.
"""

import numpy as np
import pytest

import repro.shard.pipeline as pipeline_module
from repro.bitops import EXECUTOR_ENV, pack_bits
from repro.cam.sense_amplifier import ClockedSelfReferencedSenseAmp
from repro.shard.pipeline import ShardedCamPipeline

ROWS, WORD_BITS = 512, 128


@pytest.fixture
def calls(monkeypatch):
    # With no plane engine configured, fused mode runs the one in-process
    # kernel -- the path the probes wrap.
    monkeypatch.delenv(EXECUTOR_ENV, raising=False)
    counts = {"kernel": 0, "select": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(pipeline_module, "packed_hamming_matrix",
                        counting("kernel", pipeline_module.packed_hamming_matrix))
    monkeypatch.setattr(pipeline_module, "select_topk",
                        counting("select", pipeline_module.select_topk))
    return counts


def fused_pipeline(rng, noisy=False):
    amp = ClockedSelfReferencedSenseAmp(
        word_bits=WORD_BITS, timing_noise_sigma_ps=2.5 if noisy else 0.0,
        seed=0)
    pipeline = ShardedCamPipeline(ROWS, WORD_BITS, num_shards=4,
                                  sense_amp=amp, fanout="fused")
    pipeline.write_rows(rng.integers(0, 2, size=(ROWS, WORD_BITS),
                                     dtype=np.uint8))
    return pipeline


def queries(rng):
    return pack_bits(rng.integers(0, 2, size=(3, WORD_BITS), dtype=np.uint8))


def test_search_calls_the_kernel_once(rng, calls):
    pipeline = fused_pipeline(rng)
    try:
        assert pipeline.fanout == "fused" and pipeline.num_shards == 4
        pipeline.search_batch_packed(queries(rng))
        assert calls == {"kernel": 1, "select": 0}
    finally:
        pipeline.close()


@pytest.mark.parametrize("noisy", [False, True])
def test_topk_calls_kernel_and_select_once(rng, calls, noisy):
    pipeline = fused_pipeline(rng, noisy=noisy)
    try:
        result = pipeline.topk_packed(queries(rng), 5)
        assert result.indices.shape == (3, 5)
        assert calls == {"kernel": 1, "select": 1}
    finally:
        pipeline.close()
