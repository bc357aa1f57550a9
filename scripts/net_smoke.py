#!/usr/bin/env python
"""Loopback network smoke: remote loadgen, self-verification, forced failover.

The full client -> serve-plane server -> remote shard cluster path on
loopback sockets, verified end to end (``make net-smoke``):

1. a :class:`~repro.net.cluster.LocalShardCluster` provisions a grid of
   shard-plane servers (2 shards x 2 replicas by default);
2. :func:`~repro.net.remote.build_demo_remote_engine` builds the remote
   sharded engine over that grid, with the cluster's
   ``spawn_replacement`` wired as the re-replication factory;
3. a serve-plane :class:`~repro.net.server.NetServer` fronts the engine
   and a :class:`~repro.net.client.NetClient` drives classify and top-k
   chunks through it;
4. **every** remote response is checked bit-identical against an
   in-process :class:`~repro.serve.client.ServeClient` on an identically
   seeded :func:`~repro.serve.engine.build_demo_engine`;
5. halfway through, one shard replica is killed outright (port unbound,
   connections severed); the run must keep answering identically, and the
   cluster must report at least one failover and one re-replication;
6. one last chunk goes through an
   :class:`~repro.net.async_client.AsyncNetClient` (classify and top-k
   awaited concurrently), so the async adapter is checked over real
   sockets against the same oracle.

Exit status is nonzero on any divergence or if the chaos went unnoticed.

Usage::

    PYTHONPATH=src python scripts/net_smoke.py          # make net-smoke
    PYTHONPATH=src python scripts/net_smoke.py --chunks 12 --batch 8
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402  (path bootstrap above)

from repro.net import (  # noqa: E402
    AsyncNetClient,
    LocalShardCluster,
    NetClient,
    NetServer,
    build_demo_remote_engine,
)
from repro.serve import ServeClient, build_demo_engine  # noqa: E402

#: Demo engine geometry shared by the remote cluster and the oracle.
GEOMETRY = dict(classes=16, input_dim=128, hash_length=256)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chunks", type=int, default=8,
                        help="request chunks per phase (before + after kill)")
    parser.add_argument("--batch", type=int, default=16,
                        help="samples per chunk")
    parser.add_argument("--k", type=int, default=4,
                        help="neighbours per top-k request")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.chunks < 2 or args.batch < 1:
        parser.error("need at least 2 chunks and 1 sample per chunk")

    rng = np.random.default_rng(args.seed)
    mismatches = 0

    print(f"[net-smoke] cluster: {args.shards} shards x {args.replicas} "
          f"replicas, {GEOMETRY['classes']} rows @ "
          f"{GEOMETRY['hash_length']} bits")
    with LocalShardCluster(total_rows=GEOMETRY["classes"],
                           word_bits=GEOMETRY["hash_length"],
                           num_shards=args.shards,
                           num_replicas=args.replicas) as cluster:
        engine = build_demo_remote_engine(
            cluster.endpoints,
            replacement_factory=cluster.spawn_replacement,
            seed=args.seed, **GEOMETRY)
        with ServeClient(build_demo_engine(seed=args.seed,
                                           **GEOMETRY)) as oracle, \
                NetServer(engine=engine) as front, \
                NetClient(front.base_url) as client:
            print(f"[net-smoke] serve plane at {front.base_url}")

            def sync_answers(queries):
                return (client.infer_many(queries),
                        client.topk_many(queries, args.k))

            async def async_answers(queries):
                async with AsyncNetClient(front.base_url) as async_client:
                    return await asyncio.gather(
                        async_client.infer_many(queries),
                        async_client.topk_many(queries, args.k))

            def drive(chunk_index: int, answers=sync_answers) -> int:
                bad = 0
                queries = rng.standard_normal(
                    (args.batch, GEOMETRY["input_dim"]))
                logits, (remote_i, remote_d) = answers(queries)
                if not np.array_equal(logits, oracle.infer_many(queries)):
                    print(f"[net-smoke] MISMATCH: classify chunk "
                          f"{chunk_index}")
                    bad += 1
                local_i, local_d = oracle.topk_many(queries, args.k)
                if not (np.array_equal(remote_i, local_i)
                        and np.array_equal(remote_d, local_d)):
                    print(f"[net-smoke] MISMATCH: top-k chunk {chunk_index}")
                    bad += 1
                return bad

            for chunk in range(args.chunks):
                mismatches += drive(chunk)
            print(f"[net-smoke] phase 1: {args.chunks} chunks x "
                  f"{args.batch} classify + top-k requests verified")

            kill_shard, kill_replica = 0, 0
            print(f"[net-smoke] killing shard {kill_shard} replica "
                  f"{kill_replica} (port unbound, connections severed)")
            cluster.kill(kill_shard, kill_replica)

            for chunk in range(args.chunks, 2 * args.chunks):
                mismatches += drive(chunk)
            print(f"[net-smoke] phase 2: {args.chunks} chunks verified "
                  f"through the node loss")

            mismatches += drive(2 * args.chunks,
                                lambda queries: asyncio.run(
                                    async_answers(queries)))
            print(f"[net-smoke] async pass: 1 chunk x {args.batch} classify "
                  f"+ top-k requests verified through AsyncNetClient")

            net = engine.cam.stats()["net"]
            requests = client.stats()["retry"]["requests"]

    total = 2 * args.chunks * args.batch
    print(f"[net-smoke] {total} classify + {total} top-k samples over "
          f"{requests} HTTP requests")
    print(f"[net-smoke] failovers: {net['failovers']}, "
          f"re-replications: {net['re_replications']}, "
          f"dead replicas now: {net['dead_replicas']}")

    failed = False
    if mismatches:
        print(f"[net-smoke] FAILED: {mismatches} diverging chunks")
        failed = True
    if net["failovers"] < 1:
        print("[net-smoke] FAILED: the kill never triggered a failover")
        failed = True
    if net["re_replications"] < 1:
        print("[net-smoke] FAILED: the lost replica was never re-replicated")
        failed = True
    if net["dead_replicas"]:
        print("[net-smoke] FAILED: dead replicas remain after repair")
        failed = True
    if failed:
        return 1
    print("[net-smoke] OK: remote answers bit-identical to in-process, "
          "failover + re-replication exercised")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
