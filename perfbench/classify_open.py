"""classify-open: open-loop classify + top-k traffic into an in-process server.

One generator thread submits Poisson arrivals to a ``MicroBatchServer`` over
the 4-shard demo engine; queries are drawn Zipf from a fixed pool, so the
packed-signature cache serves most of them.  A reference rate gives the
latency and CPU metrics.  A closed loop that keeps a fixed number of
requests in flight then gives ``ops_per_s``: the server's capacity, which
the offered rate of an open loop would pin.  An ascending ladder of fixed
rates last gives ``goodput_rps``: the highest rate whose p99 (timed from
each request's due time) meets the limit with no growing backlog.
"""

from __future__ import annotations

import functools
import math
import time
import zlib
from collections import deque
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.serve import MicroBatchServer, ServeConfig, build_demo_engine
from repro.shard.engine import build_demo_sharded_engine

from harness import Workload as BaseWorkload
from harness import CpuSampler, Phase, Spans, SpanStats, peak_rss_mb, percentile
from probes import BatchObserver, TimedEngine, kernel_wraps, serve_metrics

#: A request not answered within this long counts as failed.
RESULT_TIMEOUT_S = 30.0
#: Requests drawn per second of the capacity loop, more than a host completes.
CAPACITY_DRAW_RPS = 40000
#: Slices each of the reference rate and the capacity loop, run in turns.
ROUNDS = 4


class Traffic:
    """One seeded arrival schedule: due offsets, pool indices and kinds."""

    def __init__(self, rng: np.random.Generator, rate: float, count: int,
                 pool: int, alpha: float, topk_share: float) -> None:
        self.offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
        self.index = rng.zipf(alpha, size=count) % pool
        self.topk = rng.random(count) < topk_share


class Workload(BaseWorkload):
    """See the module docstring; ``perfbench/workloads.json`` has the knobs."""

    roots = ("serve.batch",)

    def __init__(self, cfg: Dict[str, Any], seed: int) -> None:
        self.cfg = cfg
        self.seed = seed
        self.config = ServeConfig(**cfg["serve"])
        self.log: List[Dict[str, np.ndarray]] = []
        self.server: Optional[MicroBatchServer] = None
        self.engine: Any = None

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        cfg = self.cfg
        self.engine = build_demo_sharded_engine(
            seed=self.seed, num_shards=cfg["num_shards"], **cfg["engine"])
        self.pool = np.random.default_rng([self.seed, 0]).standard_normal(
            (cfg["pool"], cfg["engine"]["input_dim"]))
        self.server = MicroBatchServer(self.engine, self.config).start()
        # Fill the result cache and touch every buffer before timing.
        warm = self._traffic(np.random.default_rng([self.seed, 2]),
                             1.0, cfg["warmup_requests"])
        for start in range(0, len(warm.index), 256):
            futures = [self._submit(self.server.submit, self.server.submit_topk,
                                    warm, i)
                       for i in range(start, min(start + 256, len(warm.index)))]
            for future in futures:
                future.result(timeout=RESULT_TIMEOUT_S)
        # Then settle at the reference rate, the first timed operating point.
        self._traffic_rng = np.random.default_rng([self.seed, 3])
        self._phase(cfg["reference_rps"], cfg["settle_s"], self.server.submit,
                    self.server.submit_topk, log=False)
        self._traffic_rng = np.random.default_rng([self.seed, 1])
        self._cache0 = self.server.cache.stats()
        self._queries0 = self.engine.stats()["queries_served"]

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    # -- load --------------------------------------------------------------

    def _traffic(self, rng: np.random.Generator, rate: float,
                 count: int) -> Traffic:
        return Traffic(rng, rate, count, self.cfg["pool"],
                       self.cfg["zipf_alpha"], 1.0 / self.cfg["topk_every"])

    def _submit(self, submit: Callable, submit_topk: Callable,
                traffic: Traffic, i: int) -> Any:
        sample = self.pool[traffic.index[i]]
        if traffic.topk[i]:
            return submit_topk(sample, self.cfg["k"])
        return submit(sample)

    def _drive(self, traffic: Traffic, submit: Callable, submit_topk: Callable,
               in_flight: Optional[int] = None,
               seconds: float = math.inf) -> Dict[str, Any]:
        """Send ``traffic`` and time each request.

        Open loop (the default): on schedule, timed from each due time.
        Closed loop: with ``in_flight`` requests outstanding until
        ``seconds`` have passed, timed from each send.  Completion times are
        stamped by a done-callback; the generator checksums finished
        answers while it waits, so no answer is held in memory after it has
        been checked.
        """
        count = len(traffic.offsets)
        sent = np.zeros(count)
        done = np.zeros(count)
        crc = np.zeros(count, dtype=np.int64)
        failed = np.zeros(count, dtype=bool)
        pending: deque = deque()

        def mark(i: int, _future: Any) -> None:
            done[i] = time.perf_counter()

        def reap(limit: float) -> None:
            """Check finished answers; wait while more than ``limit`` are pending."""
            while pending and (len(pending) > limit or pending[0][1].done()):
                i, future = pending.popleft()
                try:
                    crc[i] = zlib.crc32(future.result(timeout=RESULT_TIMEOUT_S))
                except Exception:  # noqa: BLE001 -- any failure is counted
                    failed[i] = True

        start = time.perf_counter() + 1e-3
        due = start + traffic.offsets
        for i in range(count):
            if in_flight is None:
                reap(math.inf)
                delay = due[i] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            else:
                reap(in_flight - 1)
                if time.perf_counter() - start >= seconds:
                    count = i
                    break
            sent[i] = time.perf_counter()
            try:
                future = self._submit(submit, submit_topk, traffic, i)
            except Exception:  # noqa: BLE001 -- a refused request is a failure
                failed[i] = True
                done[i] = sent[i]
                continue
            future.add_done_callback(functools.partial(mark, i))
            pending.append((i, future))
        generated = time.perf_counter()
        reap(0)
        sent, done = sent[:count], done[:count]
        crc, failed = crc[:count], failed[:count]
        due = due[:count] if in_flight is None else sent
        done[failed & (done == 0)] = np.inf
        latency_ms = np.where(failed, np.inf, done - due) * 1e3
        return {"latency_ms": latency_ms, "lag_ms": (sent - due) * 1e3,
                "done": done, "log": {"index": traffic.index[:count],
                                      "topk": traffic.topk[:count], "crc": crc,
                                      "failed": failed},
                "backlog": int(np.count_nonzero(
                    (sent <= generated) & (done > generated))),
                "failed": int(np.count_nonzero(failed)), "count": count}

    def _phase(self, rate: float, seconds: float, submit: Callable,
               submit_topk: Callable, log: bool = True,
               in_flight: Optional[int] = None) -> Phase:
        """An open loop at ``rate``, or a closed loop of ``in_flight`` requests.

        A closed loop draws enough requests for ``rate`` per second and
        stops sending after ``seconds``.
        """
        traffic = self._traffic(self._traffic_rng, rate,
                                max(1, int(rate * seconds)))
        with CpuSampler(self.cfg["cpu_sample_s"]) as sampler:
            out = self._drive(traffic, submit, submit_topk, in_flight,
                              seconds if in_flight else math.inf)
        if log:
            self.log.append(out["log"])
        ok = np.isfinite(out["latency_ms"])
        return Phase(done_times=out["done"][ok], samples=sampler.samples,
                     latencies_ms=list(out["latency_ms"][ok]),
                     attempted=out["count"], failed=out["failed"],
                     extra={"lag_ms": out["lag_ms"], "backlog": out["backlog"]})

    def _ladder(self, seconds: float) -> Dict[str, Any]:
        """Ascend the rate ladder; stop after two failing rungs in a row."""
        cfg = self.cfg
        rates = cfg["ladder_rps"]
        rung_s = seconds / len(rates)
        rungs = []
        failing = 0
        for rate in rates:
            # At least 1000 requests, so p99 has ten samples beyond it.
            rung = self._phase(rate, max(rung_s, 1000.0 / rate),
                               self.server.submit, self.server.submit_topk)
            p99 = (percentile(rung.latencies_ms, 99) if not rung.failed
                   else float("inf"))
            passed = (p99 <= cfg["latency_limit_p99_ms"]
                      and rung.extra["backlog"] <= cfg["max_backlog"])
            rungs.append({"rate": rate, "p50_ms": percentile(rung.latencies_ms, 50),
                          "p99_ms": p99, "backlog": rung.extra["backlog"],
                          "lag_p99_ms": percentile(rung.extra["lag_ms"], 99),
                          "requests": rung.attempted, "failed": rung.failed,
                          "passed": passed})
            failing = 0 if passed else failing + 1
            if failing == 2:
                break
        best = max((rung for rung in rungs if rung["passed"]),
                   key=lambda rung: rung["rate"], default=None)
        return {"goodput_rps": best["rate"] if best else 0.0,
                "lag_p99_ms": best["lag_p99_ms"] if best else 0.0,
                "backlog": best["backlog"] if best else 0, "rungs": rungs}

    # -- measurement -------------------------------------------------------

    def measure(self, seconds: float) -> Phase:
        """Reference rate and capacity closed loop in turns, then the ladder.

        The two alternate in ``ROUNDS`` slices each, so both sample the
        host's drifting speed over most of the run.  The joined reference
        slices are returned; ``extra["ops_per_s"]`` carries the capacity,
        which ``run.py`` reports as this workload's ``ops_per_s``.
        """
        cfg = self.cfg
        submit, submit_topk = self.server.submit, self.server.submit_topk
        reference, capacity = [], []
        for _ in range(ROUNDS):
            reference.append(self._phase(
                cfg["reference_rps"], seconds * cfg["reference_share"] / ROUNDS,
                submit, submit_topk))
            if not capacity:
                # Memory at the reference rate: the closed loop's and the
                # ladder's in-flight requests vary with the host's speed.
                rss_mb = peak_rss_mb()
            capacity.append(self._phase(
                CAPACITY_DRAW_RPS, seconds * cfg["capacity_share"] / ROUNDS,
                submit, submit_topk, in_flight=cfg["capacity_in_flight"]))
        lag_ms = np.concatenate([part.extra["lag_ms"] for part in reference])
        phase, capacity = Phase.joined(reference), Phase.joined(capacity)
        ladder = self._ladder(seconds * (1.0 - cfg["reference_share"]
                                         - cfg["capacity_share"]))
        phase.attempted += capacity.attempted + sum(
            rung["requests"] for rung in ladder["rungs"])
        phase.failed += capacity.failed + sum(
            rung["failed"] for rung in ladder["rungs"])
        phase.extra = {"ops_per_s": capacity.ops_per_s, "ladder": ladder,
                       "capacity_windows": capacity.window_summary(),
                       "rss_mb": rss_mb,
                       "lag_p99_ms": percentile(lag_ms, 99)}
        return phase

    def measure_traced(self, seconds: float, spans: Spans) -> Phase:
        """The reference rate again, through the timing wrappers.

        A new server over the same engine shares the warm result cache.
        """
        self.server.stop()
        self.observer = BatchObserver(spans)
        self.server = MicroBatchServer(
            TimedEngine(self.engine, spans), self.config,
            cache=self.server.cache, observers=[self.observer]).start()
        before = self.server.cache.stats()
        with kernel_wraps(spans):
            phase = self._phase(
                self.cfg["reference_rps"], seconds * self.cfg["reference_share"],
                spans.wrap(self.server.submit, "serve.submit"),
                spans.wrap(self.server.submit_topk, "serve.submit"))
        after = self.server.cache.stats()
        lookups = (after.hits + after.misses) - (before.hits + before.misses)
        phase.extra = {"hit_rate": (after.hits - before.hits) / lookups
                       if lookups else 0.0}
        return phase

    # -- results -----------------------------------------------------------

    def verify(self) -> tuple[int, int]:
        """Every answer against an unsharded engine built from the same seed."""
        oracle = build_demo_engine(seed=self.seed, **self.cfg["engine"])
        expected = np.empty((2, len(self.pool)), dtype=np.int64)
        for start in range(0, len(self.pool), 256):
            prepared = oracle.prepare(self.pool[start:start + 256])
            for kind, rows in enumerate((
                    oracle.execute(prepared),
                    oracle.execute_topk(prepared, self.cfg["k"]))):
                expected[kind, start:start + len(rows)] = [
                    zlib.crc32(np.ascontiguousarray(row)) for row in rows]
        attempted = failed = 0
        for entry in self.log:
            want = expected[entry["topk"].astype(int), entry["index"]]
            failed += int(np.count_nonzero(entry["failed"]
                                           | (entry["crc"] != want)))
            attempted += entry["index"].size
        return attempted, failed

    def counters(self) -> Dict[str, Any]:
        """Exact counts over the timed phases (set-up excluded)."""
        cache = self.server.cache.stats()
        queries = self.engine.stats()["queries_served"] - self._queries0
        words = -(-self.cfg["engine"]["hash_length"] // 64)
        return {"cache_lookups": cache.hits + cache.misses
                - self._cache0.hits - self._cache0.misses,
                "cache_hits": cache.hits - self._cache0.hits,
                "engine_queries": queries,
                "kernel_word_ops": queries * self.cfg["engine"]["classes"] * words}

    def extra_metrics(self, phase: Phase) -> Dict[str, tuple]:
        ladder = phase.extra["ladder"]
        return {"goodput_rps": (ladder["goodput_rps"], "1/s")}

    def layer_metrics(self, plain: Phase, traced: Phase,
                      stats: SpanStats) -> Dict[str, float]:
        ladder = plain.extra["ladder"]
        return {
            "goodput_rps": ladder["goodput_rps"],
            "loadgen.lag_p99_ms": ladder["lag_p99_ms"],
            "loadgen.backlog": ladder["backlog"],
            **serve_metrics(self.observer.collected, self.observer.completed),
            "serve.cache_hit_rate": traced.extra["hit_rate"],
        }

    def trace_overhead_pct(self, plain: Phase, traced: Phase) -> float:
        """Open loop: the offered rate is fixed, so compare CPU per request."""
        return (traced.cpu_ms_per_op / plain.cpu_ms_per_op - 1.0) * 100.0
