"""cnn-vhl: VGG-11 through the DeepCAM simulator with per-layer hash lengths.

The paper's own pipeline: every conv/FC dot-product becomes hashing, a
packed XOR+popcount search and the cosine post-process, with a hash length
chosen per layer.  A closed loop on one thread runs batches of synthetic
CIFAR-10-like images; one op is one image.
"""

from __future__ import annotations

import time
import zlib
from typing import Any, Dict, List, Union

import numpy as np

import repro.core.context as context
import repro.nn.functional as functional
from repro.api import deepcam
from repro.datasets.synthetic import make_cifar10_like
from repro.nn.models.vgg import build_vgg11

from harness import Workload as BaseWorkload
from harness import (NULL_SPANS, NullSpans, Phase, Spans, SpanStats,
                     checkpoint, patched)
from probes import kernel_wraps


class Workload(BaseWorkload):
    """See the module docstring; ``perfbench/workloads.json`` has the knobs."""

    roots = ("cnn.batch",)

    def __init__(self, cfg: Dict[str, Any], seed: int) -> None:
        self.cfg = cfg
        self.seed = seed
        images, _, _ = make_cifar10_like(
            num_samples=cfg["batch"] * cfg["pool_batches"], seed=seed)
        self.batches = images.reshape(cfg["pool_batches"], cfg["batch"],
                                      *images.shape[1:])
        self.outputs: Dict[int, np.ndarray] = {}
        self.runs: List[tuple] = []

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        self.model = build_vgg11(seed=self.seed)
        self.backend = deepcam(rows=self.cfg["rows"],
                               hash_lengths=self.cfg["hash_lengths"])
        # The first batch builds every layer's weight contexts.
        self.backend.infer(self.model, self.batches[0])
        self.outputs = {}
        self.runs = []
        self._done = 0

    # -- load --------------------------------------------------------------

    def _phase(self, seconds: float, spans: Union[Spans, NullSpans]) -> Phase:
        images = self.cfg["batch"]
        done: List[float] = []
        latencies: List[float] = []
        samples = [checkpoint()]
        deadline = samples[0][0] + seconds
        while time.perf_counter() < deadline:
            which = self._done % len(self.batches)
            self._done += 1
            started = time.perf_counter()
            with spans.span("cnn.batch"):
                logits = self.backend.infer(self.model, self.batches[which])
            ended = time.perf_counter()
            samples.append(checkpoint())
            done.extend([ended] * images)
            latencies.extend([(ended - started) * 1e3] * images)
            self.outputs.setdefault(which, logits)
            stats = self.backend.run_stats()
            self.runs.append((which, zlib.crc32(np.ascontiguousarray(logits)),
                              stats["contexts_hashed"], stats["cam_searches"],
                              stats["cam_fills"]))
        return Phase(done_times=done, samples=samples, latencies_ms=latencies,
                     attempted=len(done), failed=0)

    # -- measurement -------------------------------------------------------

    def measure(self, seconds: float) -> Phase:
        return self._phase(seconds, NULL_SPANS)

    def measure_traced(self, seconds: float, spans: Spans) -> Phase:
        simulator = self.backend.simulator
        generator = context.ContextGenerator
        with kernel_wraps(spans), patched(
                (functional, "im2col", spans.wrap(functional.im2col, "im2col")),
                (generator, "activation_contexts_from_patches",
                 spans.wrap(generator.activation_contexts_from_patches, "hash",
                            lambda _generator, patches: {"queries": len(patches)})),
                (simulator, "cosine_unit",
                 spans.wrap(simulator.cosine_unit, "postprocess"))):
            return self._phase(seconds, spans)

    # -- results -----------------------------------------------------------

    def verify(self) -> tuple[int, int]:
        """Repeat batches must agree; a fixed subset must match the bit-level CAM.

        The oracle runs the first ``oracle_images`` images of batch 0 through
        ``use_cam_hardware=True`` (``DynamicCam`` searches) and compares them
        bit for bit with the vectorised path's answers.
        """
        images = self.cfg["batch"]
        first = {which: zlib.crc32(np.ascontiguousarray(logits))
                 for which, logits in self.outputs.items()}
        failed = images * sum(crc != first[which]
                              for which, crc, *_ in self.runs)
        subset = self.cfg["oracle_images"]
        hardware = deepcam(rows=self.cfg["rows"],
                           hash_lengths=self.cfg["hash_lengths"],
                           use_cam_hardware=True)
        expected = hardware.infer(self.model, self.batches[0][:subset])
        failed += int(np.count_nonzero(
            (self.outputs[0][:subset] != expected).any(axis=1)))
        return len(self.runs) * images, failed

    def counters(self) -> Dict[str, Any]:
        images = self.cfg["batch"]
        per_batch = {run[2:] for run in self.runs}
        return {"images": len(self.runs) * images, "batches": len(self.runs),
                "contexts_searches_fills_per_batch": sorted(per_batch)}

    def layer_metrics(self, plain: Phase, traced: Phase,
                      stats: SpanStats) -> Dict[str, float]:
        images = max(traced.ops, 1)
        runs = self.runs[-(traced.ops // self.cfg["batch"]):]
        return {
            "cnn.hash_ms": stats.total_s("hash") * 1e3 / images,
            "cnn.kernel_ms": stats.total_s("kernel") * 1e3 / images,
            "cnn.postprocess_ms": stats.total_s("postprocess") * 1e3 / images,
            "cnn.im2col_ms": stats.total_s("im2col") * 1e3 / images,
            "cnn.contexts_hashed": sum(run[2] for run in runs) / images,
            "cnn.cam_searches": sum(run[3] for run in runs) / images,
            "cnn.cam_fills": sum(run[4] for run in runs) / images,
        }
