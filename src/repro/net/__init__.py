"""``repro.net`` -- the serving stack and the shard cluster over sockets.

Everything before this subsystem lived in one process.  ``repro.net`` puts
the serve surface and the sharded CAM cluster on real (loopback or LAN)
HTTP, without changing a single answer -- remote responses are bit-exact
against in-process execution, which the smoke run verifies end to end:

* :mod:`~repro.net.protocol` -- the wire protocol: every array-bearing
  request and response is one versioned, length-prefixed binary frame
  with exact array bytes, its fields fixed by one declarative kind table;
  errors and the GET control routes are versioned JSON envelopes with
  typed error codes;
* :class:`~repro.net.server.NetServer` -- a stdlib ``ThreadingHTTPServer``
  fronting any :class:`~repro.serve.engine.InferenceEngine` /
  :class:`~repro.serve.server.MicroBatchServer` (``/v1/classify`` and
  ``/v1/topk`` submit through the in-process client helpers,
  ``/v1/healthz``, ``/v1/metrics``) or one shard replica
  (``/v1/shard/{write,search,topk,info}``);
* :class:`~repro.net.client.NetClient` / :class:`~repro.net.async_client.AsyncNetClient`
  -- the client SDK: the wire seam of the shared client core
  (:class:`~repro.serve.client.ClientCore`) and the one async adapter
  over it, so they answer exactly like ``ServeClient`` /
  ``AsyncServeClient``, plus ``healthz``/``metrics``/``trace``/``slo``.
  One transport core carries every call (keep-alive pooling,
  connect/read timeout split, retries with exponential backoff +
  decorrelated jitter, a retry budget, idempotency keys);
* :class:`~repro.net.transport.FlakyTransport` -- deterministic seeded
  fault injection (drops / 5xx / delays / ``kill()``) below the retry
  layer, so failure-path tests never kill real processes;
* :class:`~repro.net.remote.RemoteCamCluster` /
  :class:`~repro.net.remote.RemoteShardedEngine` -- the sharded pipeline
  whose shards are :class:`~repro.net.remote.RemoteShardTransport` ports:
  scatter-gather and partial top-k gather over sockets, with dead-replica
  detection, failover to surviving replicas and re-replication of lost
  shards from pipeline-owned storage;
* :class:`~repro.net.cluster.LocalShardCluster` -- the in-process
  loopback launcher (spawn / kill / replace replica servers) behind the
  tests, the smoke run and ``examples/net_demo.py``.

Quickstart::

    from repro.net import LocalShardCluster, NetClient, NetServer
    from repro.net import build_demo_remote_engine

    with LocalShardCluster(total_rows=16, word_bits=256) as shards:
        engine = build_demo_remote_engine(
            shards.endpoints, replacement_factory=shards.spawn_replacement)
        with NetServer(engine=engine) as front:
            with NetClient(front.base_url) as client:
                logits = client.infer_many(queries)
                indices, distances = client.topk(queries[0], k=8)

``make net-smoke`` drives that topology with bit-identity verification
and a forced mid-run replica kill; it runs as part of ``make check``.
"""

from repro.net.async_client import AsyncNetClient
from repro.net.client import NetClient
from repro.net.cluster import LocalShardCluster
from repro.net.protocol import PROTOCOL_VERSION, TENANT_HEADER, WireError
from repro.net.remote import (
    RemoteCamCluster,
    RemoteShardTransport,
    RemoteShardedEngine,
    ShardUnavailableError,
    build_demo_remote_engine,
)
from repro.net.server import NetApp, NetServer
from repro.net.transport import (
    ConnectError,
    FlakyConfig,
    FlakyTransport,
    HttpTransport,
    RetryBudgetExhausted,
    RetryPolicy,
    RetryingTransport,
    TransportError,
    TransportResponse,
)

__all__ = [
    "PROTOCOL_VERSION",
    "AsyncNetClient",
    "ConnectError",
    "FlakyConfig",
    "FlakyTransport",
    "HttpTransport",
    "LocalShardCluster",
    "NetApp",
    "NetClient",
    "NetServer",
    "RemoteCamCluster",
    "RemoteShardTransport",
    "RemoteShardedEngine",
    "RetryBudgetExhausted",
    "RetryPolicy",
    "RetryingTransport",
    "ShardUnavailableError",
    "TENANT_HEADER",
    "TransportError",
    "TransportResponse",
    "WireError",
]
