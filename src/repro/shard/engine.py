"""The sharded CAM cluster behind the serving engine contract.

:class:`ShardedEngine` is a drop-in
:class:`~repro.serve.engine.InferenceEngine`: the same prototype classifier
as :class:`~repro.serve.engine.CamPipelineEngine` (identical hashing,
post-processing and cache keys), except the prototype rows live in a
:class:`~repro.shard.pipeline.ShardedCamPipeline` instead of one
:class:`~repro.cam.array.CamArray`.  Logits are bit-identical to the
unsharded engine by construction -- the cluster gathers raw mismatch
counts and digitises them in global row order -- so
:class:`~repro.serve.server.MicroBatchServer` serves it unchanged and
cached entries are even shared with an unsharded twin.

What changes is concurrency and capacity: the cluster is internally
synchronised per replica port, so the engine does *not* hold a global CAM
lock during the search -- concurrent server workers land on different
replicas instead of serialising, and ``rebalance()`` / ``add_shard()``
restructure the cluster under live traffic without changing results.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

import numpy as np

from repro.cam.topk import TopKResult
from repro.serve.engine import CamPipelineEngine, PreparedBatch
from repro.shard.pipeline import ShardedCamPipeline


class ShardedEngine(CamPipelineEngine):
    """Prototype classifier served off a row-sharded CAM cluster.

    Accepts every :class:`CamPipelineEngine` parameter plus the cluster
    geometry:

    Parameters
    ----------
    num_shards / policy:
        Row partitioning (``"contiguous"`` or ``"strided"``).
    num_replicas / routing:
        Copies per shard and the replica-selection policy
        (``"round_robin"`` or ``"least_loaded"``).
    fanout:
        Cluster execution mode: ``"fused"`` (default, one vectorised
        kernel over the fused storage) or ``"ports"`` (hardware-faithful
        per-port execution).  Results are bit-identical either way.
    executor:
        Execution-plane engine for the cluster fan-outs (``"inline"``,
        ``"threads"``, ``"processes"`` or a ready
        :class:`repro.exec.Executor`).  In-process engines run fused
        searches as one kernel call capped at their worker count; only
        ``"processes"`` splits the store.  ``None`` defers to
        ``REPRO_EXECUTOR`` and then to the defaults (fused searches on
        the kernel's own CPU split, ports on threads).
    num_shard_workers:
        Worker budget of the cluster's plane engine (``None``/``0`` size
        to the machine; ``1`` fans out serially).
    observers:
        Per-shard search listeners.  A :class:`MicroBatchServer` attaches
        its own observers automatically through :meth:`bind_observers`, so
        ``ServeMetrics`` picks up per-shard counters without wiring.
    """

    name = "sharded_cam_pipeline"

    def __init__(self, prototypes: np.ndarray, num_shards: int = 2,
                 policy: str = "contiguous", num_replicas: int = 1,
                 routing: str = "round_robin", fanout: str = "fused",
                 executor: Optional[Any] = None,
                 num_shard_workers: Optional[int] = None,
                 observers: Iterable[Any] = (),
                 **engine_kwargs: Any) -> None:
        self.num_shards = int(num_shards)
        self.policy = policy
        self.num_replicas = int(num_replicas)
        self.routing = routing
        self.fanout = fanout
        self.executor = executor
        self._num_shard_workers = num_shard_workers
        self._shard_observers = tuple(observers)
        super().__init__(prototypes, **engine_kwargs)

    def _build_cam_port(self, cam_rows: int) -> ShardedCamPipeline:
        """The cluster takes the single array's place behind ``self.cam``."""
        return ShardedCamPipeline(
            total_rows=cam_rows,
            word_bits=self.hash_length,
            num_shards=self.num_shards,
            policy=self.policy,
            num_replicas=self.num_replicas,
            routing=self.routing,
            fanout=self.fanout,
            executor=self.executor,
            sense_amp=self.sense_amp,
            num_workers=self._num_shard_workers,
            observers=self._shard_observers,
        )

    # -- engine contract ---------------------------------------------------------

    def _search_counts(self, prepared: PreparedBatch) -> np.ndarray:
        """Fan out without a global lock; the cluster synchronises itself."""
        distances, _energy, _latency = self.cam.search_batch_packed(
            prepared.packed_words)
        with self._cam_lock:  # only the served-queries counter needs it
            self._queries_served += prepared.size
        return distances[:, : self.classes]

    def _topk_result(self, prepared: PreparedBatch, k: int) -> TopKResult:
        """Partial-gather top-k without a global lock (cluster synchronises)."""
        result = self.cam.topk_packed(prepared.packed_words, k)
        with self._cam_lock:  # only the served-queries counter needs it
            self._queries_served += prepared.size
        return result

    # -- cluster management ------------------------------------------------------

    def bind_observers(self, observers: Iterable[Any]) -> None:
        """Attach a server's observers to the cluster's per-shard events."""
        self.cam.add_observers(observers)

    def unbind_observers(self, observers: Iterable[Any]) -> None:
        """Detach a stopping server's observers from the cluster."""
        self.cam.remove_observers(observers)

    def rebalance(self, num_shards: Optional[int] = None,
                  policy: Optional[str] = None) -> None:
        """Re-partition the cluster online; logits are unchanged."""
        plan = self.cam.rebalance(num_shards=num_shards, policy=policy)
        self.num_shards = plan.num_shards
        self.policy = plan.policy

    def add_shard(self) -> None:
        """Grow the cluster by one shard; logits are unchanged."""
        plan = self.cam.add_shard()
        self.num_shards = plan.num_shards

    def close(self) -> None:
        """Release the cluster's execution plane and published storage."""
        self.cam.close()

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Engine counters plus the cluster snapshot."""
        base = super().stats()
        base["shards"] = self.cam.stats()
        return base


def build_demo_sharded_engine(classes: int = 16, input_dim: int = 128,
                              hash_length: int = 256, seed: int = 0,
                              **engine_kwargs: Any) -> ShardedEngine:
    """Sharded twin of :func:`repro.serve.engine.build_demo_engine`.

    Same prototype generation from the same seed, so its responses are
    bit-identical to the unsharded demo engine -- the property the load
    generator's ``--engine sharded`` verification leans on.
    """
    rng = np.random.default_rng(seed)
    prototypes = rng.standard_normal((classes, input_dim))
    return ShardedEngine(prototypes, hash_length=hash_length, seed=seed + 1,
                         **engine_kwargs)
