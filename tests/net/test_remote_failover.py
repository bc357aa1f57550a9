"""Remote shard cluster: bit-identity, replica failover, re-replication.

Failures are injected two ways: :class:`FlakyTransport` wrappers below the
retry layer (deterministic, no sockets harmed) and real server kills
through :class:`LocalShardCluster` (port unbound, connections severed).
Either way the oracle is the in-process cluster: a remote answer must be
``array_equal`` to it before, during and after the chaos.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.bitops import pack_bits
from repro.net.cluster import LocalShardCluster
from repro.net.remote import (
    RemoteCamCluster,
    RemoteShardTransport,
    RemoteShardedEngine,
    ShardUnavailableError,
    build_demo_remote_engine,
)
from repro.net.server import NetServer
from repro.net.transport import FlakyConfig, FlakyTransport, HttpTransport
from repro.serve import ServeClient, build_demo_engine, demo_queries
from repro.shard import ShardRouter
from repro.shard.pipeline import ShardedCamPipeline

ROWS, BITS = 16, 256


@pytest.fixture
def row_bits(rng):
    return rng.integers(0, 2, size=(ROWS, BITS)).astype(np.uint8)


@pytest.fixture
def queries(rng):
    return rng.integers(0, 2, size=(5, BITS)).astype(np.uint8)


@pytest.fixture
def reference(row_bits):
    pipeline = ShardedCamPipeline(total_rows=ROWS, word_bits=BITS,
                                  num_shards=2, num_replicas=2,
                                  fanout="ports")
    pipeline.write_rows(row_bits)
    try:
        yield pipeline
    finally:
        pipeline.close()


@pytest.fixture
def shard_servers():
    with LocalShardCluster(total_rows=ROWS, word_bits=BITS, num_shards=2,
                           num_replicas=2) as cluster:
        yield cluster


def make_remote(cluster, flaky=None, **kwargs):
    """A remote cluster over ``cluster``; ``flaky`` collects the wrappers."""
    factory = None
    if flaky is not None:
        def factory(base_url):
            transport = FlakyTransport(HttpTransport(base_url), seed=0)
            flaky.append(transport)
            return transport
    return RemoteCamCluster(cluster.endpoints, total_rows=ROWS,
                            word_bits=BITS, transport_factory=factory,
                            **kwargs)


class TestRemoteShardTransport:
    @pytest.fixture
    def server(self):
        with NetServer(shard_rows=ROWS, word_bits=BITS) as server:
            yield server

    def test_port_surface_matches_local_array(self, server, row_bits,
                                              queries):
        port = RemoteShardTransport(
            server.base_url, global_rows=np.arange(ROWS, dtype=np.int64),
            id_bound=ROWS, word_bits=BITS)
        try:
            assert port.rows == ROWS
            energy = port.write_rows(row_bits)
            assert energy > 0
            packed = pack_bits(queries)
            counts, search_energy, latency = (
                port.mismatch_counts_packed(packed))
            expected = (queries[:, None, :] != row_bits[None, :, :]).sum(axis=2)
            assert np.array_equal(counts, expected)
            assert search_energy > 0 and latency > 0
            indices, raw, _, _ = port.topk_candidates(packed, 3)
            order = np.argsort(expected, axis=1, kind="stable")[:, :3]
            assert np.array_equal(indices, order)
            assert np.array_equal(raw, np.take_along_axis(expected, order,
                                                          axis=1))
            assert port.healthz()["plane"] == "shard"
            assert port.info()["occupancy"] == ROWS
            assert port.stats()["retry"]["requests"] >= 4
        finally:
            port.close()


class TestRemoteClusterBitIdentity:
    def test_search_and_topk_match_inprocess(self, shard_servers, row_bits,
                                             queries, reference):
        remote = make_remote(shard_servers)
        try:
            remote.write_rows(row_bits)
            expected = reference.search_batch(queries)[0]
            assert np.array_equal(remote.search_batch(queries)[0], expected)
            packed = pack_bits(queries)
            ours = remote.topk_packed(packed, 4)
            theirs = reference.topk_packed(packed, 4)
            assert np.array_equal(ours.indices, theirs.indices)
            assert np.array_equal(ours.distances, theirs.distances)
        finally:
            remote.close()

    def test_fixed_geometry(self, shard_servers, row_bits):
        remote = make_remote(shard_servers)
        try:
            remote.write_rows(row_bits)
            with pytest.raises(NotImplementedError):
                remote.add_shard()
            with pytest.raises(NotImplementedError):
                remote.rebalance(num_shards=4)
        finally:
            remote.close()

    def test_endpoint_grid_validation(self):
        with pytest.raises(ValueError):
            RemoteCamCluster([], total_rows=ROWS, word_bits=BITS)
        with pytest.raises(ValueError):
            RemoteCamCluster([["http://a:1", "http://a:2"], ["http://b:1"]],
                             total_rows=ROWS, word_bits=BITS)


class TestFailover:
    def test_killed_replica_fails_over(self, shard_servers, row_bits,
                                       queries, reference):
        flaky = []
        remote = make_remote(shard_servers, flaky=flaky)
        try:
            remote.write_rows(row_bits)
            expected = reference.search_batch(queries)[0]
            # Port order is (shard 0 replicas..., shard 1 replicas...).
            flaky[0].kill()
            for _ in range(3):
                assert np.array_equal(remote.search_batch(queries)[0],
                                      expected)
            stats = remote.stats()["net"]
            assert stats["failovers"] >= 1
            assert stats["re_replications"] == 0  # no factory configured
            assert (0, 0) in stats["dead_replicas"]
        finally:
            remote.close()

    def test_topk_fails_over_too(self, shard_servers, row_bits, queries,
                                 reference):
        flaky = []
        remote = make_remote(shard_servers, flaky=flaky)
        try:
            remote.write_rows(row_bits)
            packed = pack_bits(queries)
            theirs = reference.topk_packed(packed, 4)
            flaky[1].kill()  # shard 0, replica 1
            ours = remote.topk_packed(packed, 4)
            assert np.array_equal(ours.indices, theirs.indices)
            assert np.array_equal(ours.distances, theirs.distances)
        finally:
            remote.close()

    def test_transient_faults_absorbed_by_retries(self, shard_servers,
                                                  row_bits, queries,
                                                  reference):
        # A lossy-but-alive replica: the transport's retry layer recovers
        # without ever declaring the replica dead.
        flaky = []
        remote = make_remote(shard_servers, flaky=flaky)
        try:
            remote.write_rows(row_bits)
            for transport in flaky:
                transport.config = FlakyConfig(drop_rate=0.2)
            expected = reference.search_batch(queries)[0]
            for _ in range(5):
                assert np.array_equal(remote.search_batch(queries)[0],
                                      expected)
            assert remote.stats()["net"]["dead_replicas"] == []
        finally:
            remote.close()

    def test_all_replicas_dead_raises(self, shard_servers, row_bits,
                                      queries):
        flaky = []
        remote = make_remote(shard_servers, flaky=flaky)
        try:
            remote.write_rows(row_bits)
            for transport in flaky[:2]:  # the whole of shard 0
                transport.kill()
            with pytest.raises(ShardUnavailableError):
                remote.search_batch(queries)
        finally:
            remote.close()

    def test_check_health_reports_and_marks(self, shard_servers, row_bits):
        flaky = []
        remote = make_remote(shard_servers, flaky=flaky)
        try:
            remote.write_rows(row_bits)
            report = remote.check_health()
            assert len(report["alive"]) == 4 and report["dead"] == []
            flaky[2].kill()  # shard 1, replica 0
            report = remote.check_health()
            assert (1, 0) in report["dead"]
            assert not remote.router.alive(1, 0)
            flaky[2].revive()
            report = remote.check_health()
            assert report["dead"] == [] and remote.router.alive(1, 0)
        finally:
            remote.close()


class TestReReplication:
    def test_real_kill_repairs_onto_fresh_server(self, shard_servers,
                                                 row_bits, queries,
                                                 reference):
        remote = make_remote(
            shard_servers,
            replacement_factory=shard_servers.spawn_replacement)
        try:
            remote.write_rows(row_bits)
            expected = reference.search_batch(queries)[0]
            dead_url = shard_servers.endpoints[0][0]
            shard_servers.kill(0, 0)
            for _ in range(4):  # round-robin lands on the slot both ways
                assert np.array_equal(remote.search_batch(queries)[0],
                                      expected)
            stats = remote.stats()["net"]
            assert stats["failovers"] >= 1
            assert stats["re_replications"] >= 1
            # The repaired slot points at the replacement, is marked
            # alive again, and serves bit-identical answers.
            assert stats["endpoints"][0][0] != dead_url
            assert stats["dead_replicas"] == []
            packed = pack_bits(queries)
            ours = remote.topk_packed(packed, 4)
            theirs = reference.topk_packed(packed, 4)
            assert np.array_equal(ours.indices, theirs.indices)
            assert np.array_equal(ours.distances, theirs.distances)
        finally:
            remote.close()

    def test_replacement_failure_leaves_slot_dead(self, shard_servers,
                                                  row_bits, queries,
                                                  reference):
        def broken_factory(shard):
            return "http://127.0.0.1:1"  # nothing listens there

        flaky = []
        remote = make_remote(shard_servers, flaky=flaky,
                             replacement_factory=broken_factory)
        try:
            remote.write_rows(row_bits)
            expected = reference.search_batch(queries)[0]
            flaky[0].kill()
            assert np.array_equal(remote.search_batch(queries)[0], expected)
            stats = remote.stats()["net"]
            assert stats["re_replications"] == 0
            assert (0, 0) in stats["dead_replicas"]
        finally:
            remote.close()


class OnFirstSend:
    """A transport that runs ``hook`` once, before its first request."""

    def __init__(self, inner, hook):
        self.inner, self.hook = inner, hook

    def send_once(self, *args, **kwargs):
        hook, self.hook = self.hook, None
        if hook is not None:
            hook()
        return self.inner.send_once(*args, **kwargs)

    def close(self):
        self.inner.close()

    def stats(self):
        return self.inner.stats()


def assert_matches_reference(remote, reference, queries):
    assert np.array_equal(remote.search_batch(queries)[0],
                          reference.search_batch(queries)[0])
    packed = pack_bits(queries)
    ours = remote.topk_packed(packed, 4)
    theirs = reference.topk_packed(packed, 4)
    assert np.array_equal(ours.indices, theirs.indices)
    assert np.array_equal(ours.distances, theirs.distances)


class TestWriteFailover:
    """A write that hits a dead replica must still land on the others."""

    def test_write_after_kill_lands_on_survivor(self, shard_servers,
                                                row_bits, queries,
                                                reference):
        flaky = []
        remote = make_remote(shard_servers, flaky=flaky)
        try:
            flaky[0].kill()  # shard 0, replica 0, before any row is stored
            remote.write_rows(row_bits)
            assert remote.occupancy == ROWS
            stats = remote.stats()["net"]
            assert (0, 0) in stats["dead_replicas"]
            assert stats["re_replications"] == 0  # no factory configured
            assert_matches_reference(remote, reference, queries)
        finally:
            remote.close()

    def test_write_after_kill_re_replicates(self, shard_servers, row_bits,
                                            queries, reference):
        flaky = []
        remote = make_remote(
            shard_servers, flaky=flaky,
            replacement_factory=shard_servers.spawn_replacement)
        try:
            dead_url = shard_servers.endpoints[0][0]
            flaky[0].kill()
            remote.write_rows(row_bits)
            stats = remote.stats()["net"]
            assert stats["re_replications"] == 1
            assert stats["dead_replicas"] == []
            assert stats["endpoints"][0][0] != dead_url
            # Both replicas of shard 0 must serve the write: round-robin
            # lands on each of them across these searches.
            for _ in range(2):
                assert_matches_reference(remote, reference, queries)
            assert remote.stats()["net"]["failovers"] == 1
        finally:
            remote.close()

    def test_write_during_repair_reaches_the_replacement(
            self, shard_servers, row_bits, queries, reference):
        # The replacement's first load request lets a second write land
        # (it fails on the dead slot, so the failover count reaches 2)
        # before the load goes on: the repair must reload, not swap in a
        # replica that misses those rows.
        errors = []

        def write_second_block():
            try:
                remote.write_rows(row_bits[4:8], start_row=4)
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        def interleave():
            writer.start()
            deadline = time.monotonic() + 30
            while remote.stats()["net"]["failovers"] < 2:
                assert time.monotonic() < deadline, "second write never ran"
                time.sleep(0.005)

        created = []

        def factory(base_url):
            created.append(FlakyTransport(HttpTransport(base_url), seed=0))
            # Ports 0-3 are the initial replicas; the fifth replaces (0, 0).
            if len(created) == 5:
                return OnFirstSend(created[-1], interleave)
            return created[-1]

        remote = RemoteCamCluster(
            shard_servers.endpoints, total_rows=ROWS, word_bits=BITS,
            transport_factory=factory,
            replacement_factory=shard_servers.spawn_replacement)
        writer = threading.Thread(target=write_second_block)
        try:
            created[0].kill()
            remote.write_rows(row_bits[:4])
            writer.join(timeout=30)
            assert not writer.is_alive() and errors == []
            remote.write_rows(row_bits[8:], start_row=8)
            stats = remote.stats()["net"]
            assert stats["re_replications"] == 1
            assert stats["dead_replicas"] == []
            for _ in range(2):  # both replicas of every shard
                assert_matches_reference(remote, reference, queries)
        finally:
            remote.close()

    def test_write_raises_only_when_no_replica_took_it(self, shard_servers,
                                                       row_bits):
        flaky = []
        remote = make_remote(shard_servers, flaky=flaky)
        try:
            for transport in flaky[:2]:  # the whole of shard 0
                transport.kill()
            with pytest.raises(ShardUnavailableError):
                remote.write_rows(row_bits)
        finally:
            remote.close()


class TestRemoteEngine:
    def test_bit_identical_to_demo_engine_through_chaos(self):
        geometry = dict(classes=16, input_dim=64, hash_length=BITS)
        with LocalShardCluster(total_rows=16, word_bits=BITS) as cluster:
            engine = build_demo_remote_engine(
                cluster.endpoints,
                replacement_factory=cluster.spawn_replacement, **geometry)
            try:
                local = build_demo_engine(**geometry)
                queries = demo_queries(local, 6)
                with ServeClient(local) as oracle:
                    expected_logits = oracle.infer_many(queries)
                    expected_i, expected_d = oracle.topk_many(queries, 4)
                with ServeClient(engine) as client:
                    assert np.array_equal(client.infer_many(queries),
                                          expected_logits)
                    cluster.kill(0, 1)
                    assert np.array_equal(client.infer_many(queries),
                                          expected_logits)
                    indices, distances = client.topk_many(queries, 4)
                assert np.array_equal(indices, expected_i)
                assert np.array_equal(distances, expected_d)
                stats = engine.cam.stats()["net"]
                assert stats["failovers"] >= 1
                assert stats["re_replications"] >= 1
                with pytest.raises(NotImplementedError):
                    engine.rebalance()
                with pytest.raises(NotImplementedError):
                    engine.add_shard()
                assert engine.name == "remote_sharded_cam_pipeline"
            finally:
                engine.close()


class TestRouterHealthMarks:
    def test_round_robin_skips_dead_replica(self):
        router = ShardRouter(num_shards=1, num_replicas=3,
                             policy="round_robin")
        router.mark_dead(0, 1)
        picks = []
        for _ in range(4):
            selection = router.begin_search()
            picks.append(selection[0])
            router.end_search(selection)
        assert 1 not in picks
        assert set(picks) == {0, 2}

    def test_selection_identical_when_nothing_dead(self):
        healthy = ShardRouter(num_shards=2, num_replicas=3)
        marked = ShardRouter(num_shards=2, num_replicas=3)
        marked.mark_dead(0, 2)
        marked.mark_alive(0, 2)
        for _ in range(6):
            ours = marked.begin_search()
            theirs = healthy.begin_search()
            assert ours == theirs
            marked.end_search(ours)
            healthy.end_search(theirs)

    def test_least_loaded_prefers_live(self):
        router = ShardRouter(num_shards=1, num_replicas=2,
                             policy="least_loaded")
        router.mark_dead(0, 0)
        for _ in range(3):
            selection = router.begin_search()
            assert selection == (1,)
            router.end_search(selection)

    def test_all_dead_falls_back_to_policy(self):
        router = ShardRouter(num_shards=1, num_replicas=2)
        router.mark_dead(0, 0)
        router.mark_dead(0, 1)
        selection = router.begin_search()  # caller's failover owns give-up
        assert selection[0] in (0, 1)
        router.end_search(selection)

    def test_dead_replicas_and_stats(self):
        router = ShardRouter(num_shards=2, num_replicas=2)
        router.mark_dead(1, 0)
        assert router.dead_replicas() == ((1, 0),)
        assert router.stats()["dead"] == [(1, 0)]
        assert not router.alive(1, 0) and router.alive(0, 0)
        with pytest.raises(ValueError):
            router.mark_dead(5, 0)
