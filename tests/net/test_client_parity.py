"""One method table and one set of answers across the four clients.

``ServeClient``/``AsyncServeClient`` (in-process) and ``NetClient``/
``AsyncNetClient`` (over the wire) share one request surface: the same
public methods per sync/async twin, and bit-identical answers on one
engine -- empty batches included, which must keep the engine's width
rather than collapse or raise on the wire.
"""

from __future__ import annotations

import asyncio
import inspect

import numpy as np
import pytest

from repro.net import protocol
from repro.net.async_client import AsyncNetClient
from repro.net.client import NetClient
from repro.net.server import NetApp, NetServer
from repro.serve import (
    AsyncServeClient,
    MicroBatchServer,
    ServeClient,
    build_demo_engine,
    demo_queries,
)

GEOMETRY = dict(classes=8, input_dim=32, hash_length=128)

CORE = {"infer", "infer_many", "topk", "topk_many", "stats", "close"}
REMOTE = CORE | {"healthz", "metrics", "trace", "slo"}

#: (sync client, async twin, public methods both must expose)
METHOD_TABLE = [
    (ServeClient, AsyncServeClient, CORE),
    (NetClient, AsyncNetClient, REMOTE),
]

#: Every empty spelling a caller may pass.
EMPTY_BATCHES = ([], np.empty((0, GEOMETRY["input_dim"])))


def public_methods(cls):
    return {name for name, _ in inspect.getmembers(cls, callable)
            if not name.startswith("_")}


@pytest.mark.parametrize("sync_cls, async_cls, methods", METHOD_TABLE,
                         ids=["serve", "net"])
def test_method_table(sync_cls, async_cls, methods):
    assert public_methods(sync_cls) == methods
    assert public_methods(async_cls) == methods
    for name in methods - {"stats"}:
        assert inspect.iscoroutinefunction(getattr(async_cls, name)), name
    assert not inspect.iscoroutinefunction(async_cls.stats)


@pytest.fixture
def served():
    """One engine behind one micro-batch server, reachable both ways."""
    engine = build_demo_engine(**GEOMETRY)
    server = MicroBatchServer(engine).start()
    try:
        with NetServer(server=server) as front:
            yield engine, server, front.base_url
    finally:
        server.stop()


def answers(client, queries, k):
    logits = client.infer_many(queries)
    one = client.infer(queries[0])
    indices, distances = client.topk_many(queries, k)
    one_i, one_d = client.topk(queries[0], k)
    empties = [client.infer_many(empty) for empty in EMPTY_BATCHES]
    for empty in EMPTY_BATCHES:
        empties.extend(client.topk_many(empty, k))
    return [logits, one, indices, distances, one_i, one_d, *empties]


async def async_answers(client, queries, k):
    logits = await client.infer_many(queries)
    one = await client.infer(queries[0])
    indices, distances = await client.topk_many(queries, k)
    one_i, one_d = await client.topk(queries[0], k)
    empties = [await client.infer_many(empty) for empty in EMPTY_BATCHES]
    for empty in EMPTY_BATCHES:
        empties.extend(await client.topk_many(empty, k))
    return [logits, one, indices, distances, one_i, one_d, *empties]


@pytest.mark.parametrize("k", [3, 20])  # 20 > classes: k_eff = classes
def test_four_clients_answer_bit_identically(served, k):
    engine, server, url = served
    queries = demo_queries(engine, 5, seed=7)
    with ServeClient(server=server) as client:
        expected = answers(client, queries, k)
    with NetClient(url) as client:
        remote = answers(client, queries, k)

    async def scenario():
        async with AsyncServeClient(server=server) as serve_client, \
                AsyncNetClient(url) as net_client:
            return (await async_answers(serve_client, queries, k),
                    await async_answers(net_client, queries, k))

    results = [remote, *asyncio.run(scenario())]
    width = min(k, GEOMETRY["classes"])
    assert expected[2].shape == (5, width)
    assert expected[6].shape == (0, GEOMETRY["classes"])
    assert expected[8].shape == (0, width)
    for result in results:
        assert len(result) == len(expected)
        for got, want in zip(result, expected):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestEmptyBatchOverTheWire:
    def test_empty_topk_route_has_engine_width(self):
        app = NetApp(engine=build_demo_engine(**GEOMETRY))
        try:
            frame = protocol.encode(
                "topk.request", samples=np.empty((0, GEOMETRY["input_dim"])),
                k=3)
            _, _, body = app.handle(
                "POST", "/v1/topk",
                {"Content-Type": protocol.CONTENT_TYPE_FRAME}, frame)
            rows = protocol.decode("topk.response", body)["rows"]
            assert rows.shape == (0, app.server.engine.topk_width(3))
        finally:
            app.close()

    def test_empty_sequence_is_an_empty_batch(self, served):
        _, _, url = served
        with NetClient(url) as client:
            before = client.metrics()["serve"]["requests"]["enqueued"]
            logits = client.infer_many([])
            indices, distances = client.topk_many([], 3)
            after = client.metrics()["serve"]["requests"]["enqueued"]
        assert logits.shape == (0, GEOMETRY["classes"])
        assert indices.shape == distances.shape == (0, 3)
        assert indices.dtype == distances.dtype == np.int64
        assert before == after
