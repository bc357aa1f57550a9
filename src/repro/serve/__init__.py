"""``repro.serve`` -- dynamic micro-batching inference over the packed CAM pipeline.

The DeepCAM accelerator only reaches its amortised energy/latency numbers
when CAM searches run over full batches, but real traffic arrives one
request at a time.  This subsystem closes that gap:

* :class:`~repro.serve.batching.ServeConfig` + the bounded request queue --
  backpressure and the size/time flush triggers (``max_batch`` /
  ``max_wait_ms``);
* :class:`~repro.serve.server.MicroBatchServer` -- worker threads that
  coalesce requests and execute them as one batched packed-kernel pass
  (``hash_batch_packed`` -> ``CamArray.search_batch_packed``);
* :class:`~repro.serve.cache.PackedSignatureCache` -- LRU memoisation of
  logits keyed on the query's packed ``uint64`` words (hits are
  bit-identical to fresh computation by construction);
* :class:`~repro.serve.metrics.ServeMetrics` and the
  :class:`~repro.serve.metrics.ServeObserver` hook protocol -- queue depth,
  batch-size histogram, p50/p99 latency, throughput, cache hit rate;
* :class:`~repro.serve.client.ServeClient` /
  :class:`~repro.serve.async_client.AsyncServeClient` -- the synchronous
  and awaitable facades.  Both are the shared client core
  (:class:`~repro.serve.client.ClientCore`: one request surface, empty
  batches and top-k decoding included) and its one async adapter
  (:class:`~repro.serve.async_client.AsyncClient`); the in-process seam
  is this server's futures.  :mod:`repro.net` specialises the same core
  for the wire.

Engines that outgrow one CAM array scale out through :mod:`repro.shard`:
a :class:`~repro.shard.engine.ShardedEngine` serves through this subsystem
unchanged, bit-identical to its unsharded twin.  Retrieval traffic rides
the same queue: ``MicroBatchServer.submit_topk`` enqueues a
:class:`~repro.serve.batching.TopKRequest`, drained batches are grouped by
request kind, and top-k answers are cached under (query, k)-suffixed keys
(see :mod:`repro.retrieval`).

Quickstart::

    from repro.serve import ServeClient, ServeConfig, build_demo_engine

    engine = build_demo_engine(classes=16, input_dim=128, hash_length=256)
    with ServeClient(engine, config=ServeConfig(max_batch=64)) as client:
        logits = client.infer_many(queries)      # micro-batched under the hood
        print(client.stats()["throughput_rps"])

``scripts/loadgen.py`` drives the server with uniform, bursty and Zipf
traffic; ``make serve-smoke`` runs its quick self-verifying pass.
"""

from repro.serve.async_client import AsyncServeClient
from repro.serve.batching import (
    FULL_POLICIES,
    QueueFullError,
    ServeConfig,
    ServeRequest,
    TopKRequest,
    adaptive_wait_s,
    drain_batch,
)
from repro.serve.cache import CacheStats, PackedSignatureCache, signature_key
from repro.serve.client import ServeClient
from repro.serve.engine import (
    BackendEngine,
    CamPipelineEngine,
    InferenceEngine,
    PreparedBatch,
    build_demo_engine,
    demo_queries,
)
from repro.serve.metrics import (
    PrintObserver,
    RecordingObserver,
    ServeMetrics,
    ServeObserver,
    notify_all,
)
from repro.serve.server import MicroBatchServer
from repro.serve.tenancy import (
    DEFAULT_TENANT,
    DEGRADATION_MODES,
    AdmissionError,
    QuotaExceededError,
    RateLimitedError,
    TenantPolicy,
    TenantQueues,
    TenantRegistry,
    TokenBucket,
)

__all__ = [
    "AdmissionError",
    "AsyncServeClient",
    "BackendEngine",
    "CacheStats",
    "CamPipelineEngine",
    "DEFAULT_TENANT",
    "DEGRADATION_MODES",
    "FULL_POLICIES",
    "InferenceEngine",
    "MicroBatchServer",
    "PackedSignatureCache",
    "PreparedBatch",
    "PrintObserver",
    "QueueFullError",
    "QuotaExceededError",
    "RateLimitedError",
    "RecordingObserver",
    "ServeClient",
    "ServeConfig",
    "ServeMetrics",
    "ServeObserver",
    "ServeRequest",
    "TenantPolicy",
    "TenantQueues",
    "TenantRegistry",
    "TokenBucket",
    "TopKRequest",
    "adaptive_wait_s",
    "build_demo_engine",
    "demo_queries",
    "drain_batch",
    "notify_all",
    "signature_key",
]
