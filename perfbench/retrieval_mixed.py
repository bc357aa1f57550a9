"""retrieval-mixed: k-NN searches mixed with re-index writes on one thread.

A ``RetrievalIndex`` is filled to capacity during set-up.  The closed loop
then runs searches (hash a query batch, then the sharded partial-gather
top-k) with a write of freshly hashed rows at a seeded offset after every
few searches.  There is no serve plane: the packed kernel and top-k
selection dominate searches, and each write copies the row stores.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.core.hashing import RandomProjectionHasher
from repro.retrieval import RetrievalIndex

from harness import Workload as BaseWorkload
from harness import (NULL_SPANS, NullSpans, Phase, Spans, SpanStats,
                     checkpoint, percentile)
from probes import kernel_wraps


class Oracle:
    """Brute-force top-k over its own packed copy of the rows.

    Keeps the current ``k`` best ``(distance, row id)`` pairs of every pool
    query, updated per write, so a replay costs little beyond the writes.
    """

    def __init__(self, rows: np.ndarray, queries: np.ndarray, k: int) -> None:
        self.rows = rows            # (n, words) uint64, packbits layout
        self.queries = queries      # (q, words) uint64
        self.k = k
        self.best = [self._full(query) for query in range(len(queries))]

    @staticmethod
    def pack(bits: np.ndarray) -> np.ndarray:
        return np.packbits(bits.astype(np.uint8), axis=1).view(np.uint64)

    def _distances(self, query: int, rows: np.ndarray) -> np.ndarray:
        return np.bitwise_count(rows ^ self.queries[query]).sum(
            axis=1, dtype=np.int64)

    def _top(self, distances: np.ndarray, ids: np.ndarray) -> tuple:
        order = np.lexsort((ids, distances))[: self.k]
        return ids[order], distances[order]

    def _full(self, query: int) -> tuple:
        return self._top(self._distances(query, self.rows),
                         np.arange(len(self.rows)))

    def write(self, start: int, bits: np.ndarray) -> None:
        stop = start + len(bits)
        self.rows[start:stop] = self.pack(bits)
        fresh_ids = np.arange(start, stop)
        for query, (ids, distances) in enumerate(self.best):
            if np.any((ids >= start) & (ids < stop)):
                self.best[query] = self._full(query)
            else:
                fresh = self._distances(query, self.rows[start:stop])
                self.best[query] = self._top(np.concatenate([distances, fresh]),
                                             np.concatenate([ids, fresh_ids]))

    def search(self, queries: np.ndarray) -> tuple:
        ids, distances = zip(*(self.best[query] for query in queries))
        return np.stack(ids), np.stack(distances)


class Workload(BaseWorkload):
    """See the module docstring; ``perfbench/workloads.json`` has the knobs."""

    roots = ("retrieval.search", "retrieval.write")

    def __init__(self, cfg: Dict[str, Any], seed: int) -> None:
        self.cfg = cfg
        self.seed = seed
        self.index: Optional[RetrievalIndex] = None
        rng = np.random.default_rng([seed, 1])
        dim, batch = cfg["index"]["input_dim"], cfg["search_batch"]
        self.queries = rng.standard_normal((cfg["query_batches"] * batch, dim))
        self.writes = rng.standard_normal((cfg["write_batches"],
                                           cfg["write_rows"], dim))
        self.offsets = np.random.default_rng([seed, 2]).integers(
            0, cfg["index"]["capacity"] - cfg["write_rows"], size=1 << 16)
        self.ops: List[tuple] = []

    def _fill_chunks(self):
        """The set-up vectors, regenerated identically for the oracle."""
        rng = np.random.default_rng([self.seed, 0])
        dim, capacity = self.cfg["index"]["input_dim"], self.cfg["index"]["capacity"]
        for start in range(0, capacity, self.cfg["fill_chunk"]):
            yield rng.standard_normal((min(self.cfg["fill_chunk"],
                                           capacity - start), dim))

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        self.index = RetrievalIndex(seed=self.seed, **self.cfg["index"])
        for chunk in self._fill_chunks():
            self.index.add(chunk)
        self.ops = []
        self._writes_done = 0
        self._searches_done = 0
        for _ in range(self.cfg["warmup_cycles"]):
            self._cycle(NULL_SPANS, [], [], [])
        self._warmup_ops = len(self.ops)  # verified, but not counted

    def close(self) -> None:
        if self.index is not None:
            self.index.pipeline.close()
            self.index = None

    # -- load --------------------------------------------------------------

    def _search(self, spans: Union[Spans, NullSpans]) -> float:
        batch = self.cfg["search_batch"]
        first = (self._searches_done % self.cfg["query_batches"]) * batch
        self._searches_done += 1
        queries = np.arange(first, first + batch)
        index = self.index
        started = time.perf_counter()
        with spans.span("retrieval.search"):
            with spans.span("hash", queries=batch):
                packed = index.hasher.hash_batch_packed(self.queries[queries])
            with spans.span("shard.topk"):
                result = index.pipeline.topk_packed(packed, self.cfg["k"])
        ended = time.perf_counter()
        self.ops.append(("search", queries, result.indices, result.distances))
        return ended - started

    def _write(self, spans: Union[Spans, NullSpans]) -> tuple:
        """One re-index write; the traced run also takes its allocation peak."""
        block = self._writes_done % self.cfg["write_batches"]
        offset = int(self.offsets[self._writes_done % len(self.offsets)])
        self._writes_done += 1
        index = self.index
        alloc = None
        started = time.perf_counter()
        with spans.span("retrieval.write"):
            with spans.span("hash", queries=self.cfg["write_rows"]):
                bits = index.hasher.hash_batch(self.writes[block])
            if spans.recording:
                tracemalloc.start()
            with spans.span("shard.write"):
                index.pipeline.write_rows(bits, start_row=offset)
            if spans.recording:
                alloc = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
        ended = time.perf_counter()
        self.ops.append(("write", block, offset))
        return ended - started, alloc

    def _cycle(self, spans: Union[Spans, NullSpans], searches: list, writes: list,
               samples: list) -> None:
        """``searches_per_write`` searches, then one write."""
        for _ in range(self.cfg["searches_per_write"]):
            seconds = self._search(spans)
            searches.append((time.perf_counter(), seconds * 1e3))
            samples.append(checkpoint())
        seconds, alloc = self._write(spans)
        writes.append((seconds * 1e3, alloc))
        samples.append(checkpoint())

    def _phase(self, seconds: float, spans: Union[Spans, NullSpans]) -> Phase:
        searches: List[tuple] = []
        writes: List[tuple] = []
        samples = [checkpoint()]
        deadline = samples[0][0] + seconds
        while time.perf_counter() < deadline:
            self._cycle(spans, searches, writes, samples)
        write_ms = [ms for ms, _ in writes]
        return Phase(done_times=[end for end, _ in searches], samples=samples,
                     latencies_ms=[ms for _, ms in searches],
                     attempted=len(searches) + len(writes), failed=0,
                     extra={"write_ms": write_ms,
                            "write_alloc_mb": [mb for _, mb in writes
                                               if mb is not None]})

    # -- measurement -------------------------------------------------------

    def measure(self, seconds: float) -> Phase:
        return self._phase(seconds, NULL_SPANS)

    def measure_traced(self, seconds: float, spans: Spans) -> Phase:
        with kernel_wraps(spans):
            return self._phase(seconds, spans)

    # -- results -----------------------------------------------------------

    def verify(self) -> tuple[int, int]:
        """Replay every op on the brute-force oracle, in order."""
        cfg = self.cfg["index"]
        hasher = RandomProjectionHasher(cfg["input_dim"], cfg["hash_length"],
                                        seed=self.seed)
        rows = np.concatenate([Oracle.pack(hasher.hash_batch(chunk))
                               for chunk in self._fill_chunks()])
        oracle = Oracle(rows, Oracle.pack(hasher.hash_batch(self.queries)),
                        self.cfg["k"])
        failed = 0
        for op in self.ops:
            if op[0] == "write":
                _, block, offset = op
                oracle.write(offset, hasher.hash_batch(self.writes[block]))
            else:
                _, queries, indices, distances = op
                ids, expected = oracle.search(queries)
                failed += not (np.array_equal(indices, ids)
                               and np.array_equal(distances, expected))
        return len(self.ops), failed

    def counters(self) -> Dict[str, Any]:
        """Exact counts over the timed phases (set-up excluded)."""
        timed = self.ops[self._warmup_ops:]
        searches = sum(op[0] == "search" for op in timed)
        return {"searches": searches, "writes": len(timed) - searches}

    def extra_metrics(self, phase: Phase) -> Dict[str, tuple]:
        writes = phase.extra["write_ms"]
        return {"write_latency_p50_ms": (percentile(writes, 50), "ms"),
                "write_latency_p90_ms": (percentile(writes, 90), "ms")}

    def layer_metrics(self, plain: Phase, traced: Phase,
                      stats: SpanStats) -> Dict[str, float]:
        return {
            "write_latency_p50_ms": percentile(plain.extra["write_ms"], 50),
            "write_latency_p90_ms": percentile(plain.extra["write_ms"], 90),
            "shard.write_alloc_mb": percentile(traced.extra["write_alloc_mb"], 50),
        }
