#!/usr/bin/env python
"""Load generator for the ``repro.serve`` micro-batching server.

Drives the demo CAM-pipeline engine with one of several traffic scenarios
and prints the server's metrics snapshot (throughput, batch-size histogram,
p50/p99 latency, cache hit rate):

* ``uniform`` -- unique queries submitted as fast as possible (optionally
  paced with ``--rate``): the pure batching workload;
* ``bursty``  -- bursts of ``--burst`` requests separated by ``--gap-ms``
  idle gaps: exercises the time-flush trigger on the trailing partial
  batches;
* ``zipf``    -- queries drawn from a ``--pool`` of distinct vectors with
  Zipf(``--zipf-alpha``) popularity: exercises the packed-signature cache;
* ``cache_busting`` -- a hot working set interleaved with floods of
  one-shot unique queries, served twice: once with plain LRU (the hit rate
  collapses -- every flood evicts the hot set) and once with the
  doorkeeper admission policy (``--cache-admission``), which keeps the hot
  set resident;
* ``retrieval`` -- top-k requests (``--topk`` nearest CAM rows per query,
  ``submit_topk``) with a repeated tail that exercises the (query, k)
  cache keys: the retrieval workload the partial gather exists for;
* ``tenants`` -- multi-tenant Zipf traffic through a tenanted server
  (:mod:`repro.serve.tenancy`): two well-behaved tenants (``gold`` at
  weight 3, ``silver`` at weight 1) paced at ``--wb-rate`` beside a
  ``flood`` tenant submitting at ``--flood-factor`` times its token
  bucket (``--tenant-rate``/``--tenant-burst``, degradation ``shed``).
  Reports client-side per-tenant p50/p99 and admit/shed counts;
  ``--no-flood`` runs the same well-behaved traffic alone (the baseline
  ``scripts/tenant_smoke.py`` gates against).

``--engine sharded`` serves every scenario through a
:class:`~repro.shard.ShardedEngine` cluster (``--shards`` / ``--replicas``
/ ``--routing`` / ``--fanout`` / ``--executor``) instead of the
single-array engine; the verification reference stays the *unsharded*
engine, so a verified run is an end-to-end proof that sharding never
changes a response (``make shard-smoke``); with
``--executor processes`` the same proof covers the SharedMemory
execution plane end to end (``make exec-smoke``).

``--verify`` (on by default in ``--quick``) recomputes every distinct query
directly on an identical engine and checks the served responses against it
-- the smoke proof that batching, caching and sharding change *when* work
happens, never *what* comes back.

Usage::

    PYTHONPATH=src python scripts/loadgen.py                      # 1000 uniform
    PYTHONPATH=src python scripts/loadgen.py --scenario zipf
    PYTHONPATH=src python scripts/loadgen.py --quick              # make serve-smoke
    PYTHONPATH=src python scripts/loadgen.py --quick --engine sharded --shards 4
    PYTHONPATH=src python scripts/loadgen.py --json /tmp/serve.json

Exit status is nonzero when verification fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import (  # noqa: E402  (path bootstrap above)
    InMemoryExporter,
    JsonlExporter,
    SloEngine,
    SloSpec,
    TailSampler,
    Tracer,
    report as obs_report,
)
from repro.serve import (  # noqa: E402
    AdmissionError,
    MicroBatchServer,
    PrintObserver,
    ServeConfig,
    TenantPolicy,
    TenantRegistry,
    build_demo_engine,
)
from repro.shard import build_demo_sharded_engine  # noqa: E402

SCENARIOS = ("uniform", "bursty", "zipf", "cache_busting", "retrieval")

#: The tenants scenario's cast: two well-behaved tenants and one flood.
WELL_BEHAVED = (("gold", 3.0), ("silver", 1.0))


def build_queries(scenario: str, args: argparse.Namespace,
                  rng: np.random.Generator) -> np.ndarray:
    """The ``(requests, input_dim)`` query stream of one scenario."""
    if scenario == "retrieval":
        # Mostly-unique lookups with a repeated tail: the tail replays the
        # head, so the (query, k)-keyed result cache sees genuine hits.
        unique = max(1, (args.requests * 3) // 4)
        head = rng.standard_normal((unique, args.input_dim))
        tail = head[: args.requests - unique]
        return np.concatenate([head, tail]) if len(tail) else head
    if scenario == "zipf":
        pool = rng.standard_normal((args.pool, args.input_dim))
        draws = rng.zipf(args.zipf_alpha, size=args.requests) % args.pool
        return pool[draws]
    if scenario == "cache_busting":
        # Rounds of the hot working set followed by a flood of one-shot
        # uniques longer than the cache: plain LRU evicts the entire hot
        # set between its reuses.
        hot_size, flood_len, _ = busting_geometry(args.requests)
        hot = rng.standard_normal((hot_size, args.input_dim))
        stream = []
        while len(stream) < args.requests:
            stream.extend(hot)
            stream.extend(rng.standard_normal((flood_len, args.input_dim)))
        return np.asarray(stream[: args.requests])
    return rng.standard_normal((args.requests, args.input_dim))


def busting_geometry(requests: int) -> tuple[int, int, int]:
    """(hot set, flood length, cache capacity) of the cache_busting stream.

    Sized so the stream holds ~5 hot-set reuses regardless of the request
    budget, with the flood longer than the cache (every round evicts the
    whole hot set under plain LRU) and the cache big enough for the hot
    set (a doorkeeper keeps it resident).
    """
    round_len = max(requests // 5, 10)
    hot = max(round_len // 5, 2)
    flood = round_len - hot
    capacity = max(flood // 2, hot)
    return hot, flood, capacity


def build_engine(args: argparse.Namespace):
    """The served engine: the demo single-array engine, or a sharded cluster."""
    if args.engine == "sharded":
        return build_demo_sharded_engine(
            classes=args.classes, input_dim=args.input_dim,
            hash_length=args.hash_length, seed=args.seed,
            num_shards=args.shards, num_replicas=args.replicas,
            routing=args.routing, fanout=args.fanout,
            executor=args.executor)
    return build_demo_engine(classes=args.classes, input_dim=args.input_dim,
                             hash_length=args.hash_length, seed=args.seed)


def serve_queries(scenario: str, args: argparse.Namespace,
                  queries: np.ndarray, config: ServeConfig,
                  tracer: Tracer | None = None,
                  slo_specs: tuple = ()) -> tuple[list, float, dict, dict | None]:
    """Serve one query stream; returns (responses, serving_s, stats, slo)."""
    observers = (PrintObserver(every=args.verbose),) if args.verbose else ()
    engine = build_engine(args)
    server = MicroBatchServer(engine, config=config, observers=observers,
                              tracer=tracer)
    server.start()
    # The SLO engine baselines at construction, so it must exist before
    # traffic for its windows to cover the run.
    slo_engine = (SloEngine(list(slo_specs), server.metrics.registry)
                  if slo_specs else None)
    try:
        start = time.perf_counter()
        futures = []
        for index, query in enumerate(queries):
            if scenario == "retrieval":
                futures.append(server.submit_topk(query, args.topk))
            else:
                futures.append(server.submit(query))
            if scenario == "bursty" and (index + 1) % args.burst == 0:
                time.sleep(args.gap_ms / 1e3)
            elif args.rate > 0:
                time.sleep(1.0 / args.rate)
        responses = [future.result(timeout=args.timeout_s) for future in futures]
        serving_s = time.perf_counter() - start
        slo = slo_engine.evaluate() if slo_engine is not None else None
    finally:
        server.stop(drain=True)
        # Sharded engines hold an execution plane (worker pools, published
        # SharedMemory storage); release it rather than leaning on the
        # resource tracker's exit sweep.
        close = getattr(engine, "close", None)
        if callable(close):
            close()
    return responses, serving_s, server.stats(), slo


def run_scenario(scenario: str, args: argparse.Namespace) -> dict:
    """Serve one scenario; returns the scenario report (stats + timings)."""
    rng = np.random.default_rng(args.seed)
    queries = build_queries(scenario, args, rng)
    if args.no_cache:
        cache_capacity = 0
    elif args.cache_capacity is not None:
        cache_capacity = args.cache_capacity
    elif scenario == "cache_busting":
        cache_capacity = busting_geometry(args.requests)[2]
    else:
        cache_capacity = 4096
    if args.cache_admission is not None:
        cache_admission = args.cache_admission
    else:
        cache_admission = 2 if scenario == "cache_busting" else 1
    config = ServeConfig(
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        queue_depth=args.queue_depth,
        num_workers=args.workers,
        cache_capacity=cache_capacity,
        adaptive_wait=args.adaptive_wait,
        cache_admission=cache_admission,
    )
    lru_hit_rate = None
    if scenario == "cache_busting" and cache_capacity > 0:
        # The contrast run: same adversarial stream, plain LRU admission.
        # (Pointless without a cache, so --no-cache skips it.)
        _, _, lru_stats, _ = serve_queries(
            scenario, args, queries,
            dataclasses.replace(config, cache_admission=1))
        lru_hit_rate = lru_stats["cache"]["hit_rate"]
    tracer = exporter = tail = tail_sink = None
    if args.trace or args.tail_slow_ms is not None:
        exporter = InMemoryExporter()
        exporters: list = [exporter]
        if args.trace_out is not None:
            exporters.append(JsonlExporter(args.trace_out))
        if args.tail_slow_ms is not None:
            # The tail sampler sees every span regardless of head
            # sampling, so slow traces export whole even at
            # --sample-rate 0.01.
            tail_sink = InMemoryExporter()
            tail = TailSampler([tail_sink], keep_slow_ms=args.tail_slow_ms)
        tracer = Tracer(exporters=exporters, sample_rate=args.sample_rate,
                        tail_sampler=tail)
    slo_specs = build_slo_specs(args)
    responses, serving_s, stats, slo = serve_queries(
        scenario, args, queries, config, tracer=tracer, slo_specs=slo_specs)

    report = {
        "scenario": scenario,
        "engine": args.engine,
        "executor": args.executor,
        "requests": int(args.requests),
        "serving_s": serving_s,
        "throughput_rps": args.requests / serving_s,
        "stats": stats,
    }
    if lru_hit_rate is not None:
        report["cache_busting"] = {
            "lru_hit_rate": lru_hit_rate,
            "admission_hit_rate": stats["cache"]["hit_rate"],
            "admission_threshold": cache_admission,
        }
    if slo is not None:
        report["slo"] = slo
    if args.verify:
        if scenario == "retrieval":
            report["verified"] = verify_topk_responses(args, queries, responses)
        else:
            report["verified"] = verify_responses(args, queries, responses)
    if tracer is not None:
        tracer.shutdown()
        if args.trace and args.sample_rate >= 1.0:
            trees = obs_report.build_run_trees(exporter.spans())
            complete, problems = obs_report.verify_run_trees(
                trees, expected_requests=int(args.requests))
            report["trace"] = {
                "run_trees": len(trees),
                "complete": complete,
                "problems": problems,
                "stages": obs_report.stage_table(trees),
                "obs": tracer.snapshot(),
            }
        elif args.trace:
            # Head-sampled runs cannot expect every request in the sink.
            trees = obs_report.build_run_trees(exporter.spans())
            report["trace"] = {
                "run_trees": len(trees),
                "complete": True,
                "problems": [],
                "stages": obs_report.stage_table(trees),
                "obs": tracer.snapshot(),
            }
        if tail is not None:
            tail_trees = obs_report.build_run_trees(tail_sink.spans())
            report["tail"] = {
                "run_trees": len(tail_trees),
                "kept_request_traces": sum(
                    1 for tree in tail_trees
                    if tree.root.name == "request"),
                **{key: value for key, value in tail.snapshot().items()
                   if not key.startswith("export_")},
            }
    return report


def run_tenants_scenario(args: argparse.Namespace,
                         flood: bool | None = None) -> dict:
    """The multi-tenant scenario: Zipf traffic from three tenants.

    Two well-behaved tenants (paced at ``--wb-rate``) run beside a flood
    tenant submitting at ``--flood-factor`` times its token-bucket rate
    (shed on overflow).  Latency is measured *client-side* per tenant --
    submit to future resolution -- because that is what a tenant
    experiences; the server's bucket-resolution histogram is too coarse
    for the smoke gate's 1.5x comparison.  ``flood=False`` (or
    ``--no-flood``) runs only the well-behaved traffic: the baseline
    ``scripts/tenant_smoke.py`` gates the flooded run against.
    """
    if flood is None:
        flood = not args.no_flood
    rng = np.random.default_rng(args.seed)
    pool = rng.standard_normal((args.pool, args.input_dim))
    burst = (args.tenant_burst if args.tenant_burst is not None
             else args.tenant_rate)
    registry = TenantRegistry()
    registry.register("flood", TenantPolicy(
        weight=1.0, rate=args.tenant_rate, burst=burst, degradation="shed"))
    for name, weight in WELL_BEHAVED:
        registry.register(name, TenantPolicy(weight=weight))
    config = ServeConfig(
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        queue_depth=args.queue_depth, num_workers=args.workers,
        cache_capacity=(0 if args.no_cache
                        else (args.cache_capacity or 4096)),
        adaptive_wait=args.adaptive_wait)
    engine = build_engine(args)
    server = MicroBatchServer(engine, config=config, tenancy=registry)

    lock = threading.Lock()
    names = [name for name, _ in WELL_BEHAVED] + ["flood"]
    latencies: dict[str, list[float]] = {name: [] for name in names}
    completions: list[tuple[str, int, np.ndarray]] = []
    counts = {name: {"submitted": 0, "rejected": 0, "failed": 0}
              for name in names}
    stop = threading.Event()

    def pump(name: str, indices, interval_s: float,
             until_stop: bool = False) -> None:
        iterator = itertools.cycle(indices) if until_stop else iter(indices)
        for pool_index in iterator:
            if until_stop and stop.is_set():
                break
            submitted_at = time.perf_counter()
            with lock:
                counts[name]["submitted"] += 1
            try:
                future = server.submit(pool[pool_index], tenant=name)
            except AdmissionError:
                with lock:
                    counts[name]["rejected"] += 1
            else:
                def done(resolved, name=name, pool_index=pool_index,
                         submitted_at=submitted_at):
                    latency_ms = (time.perf_counter() - submitted_at) * 1e3
                    with lock:
                        if resolved.exception() is None:
                            latencies[name].append(latency_ms)
                            completions.append(
                                (name, pool_index, resolved.result()))
                        else:
                            counts[name]["failed"] += 1
                future.add_done_callback(done)
            if interval_s > 0:
                time.sleep(interval_s)

    def zipf_indices(name: str, size: int) -> np.ndarray:
        tenant_rng = np.random.default_rng(
            [args.seed, abs(hash(name)) % (2 ** 31)])
        return tenant_rng.zipf(args.zipf_alpha, size=size) % args.pool

    wb_interval = 1.0 / args.wb_rate if args.wb_rate > 0 else 0.0
    flood_interval = 1.0 / (args.flood_factor * args.tenant_rate)
    wb_threads = [
        threading.Thread(target=pump, name=f"wb-{name}",
                         args=(name, zipf_indices(name, args.requests),
                               wb_interval))
        for name, _ in WELL_BEHAVED]
    flood_thread = threading.Thread(
        target=pump, name="flood",
        args=("flood", zipf_indices("flood", args.pool), flood_interval, True))

    server.start()
    try:
        start = time.perf_counter()
        if flood:
            flood_thread.start()
        for thread in wb_threads:
            thread.start()
        for thread in wb_threads:
            thread.join()
        stop.set()
        if flood:
            flood_thread.join()
        elapsed_s = time.perf_counter() - start
    finally:
        server.stop(drain=True)  # resolves every admitted future
        close = getattr(engine, "close", None)
        if callable(close):
            close()

    def percentile(name: str, q: float) -> float:
        values = latencies[name]
        return float(np.percentile(values, q)) if values else 0.0

    tenants = {}
    for name in names:
        entry = dict(counts[name])
        entry["admitted"] = entry["submitted"] - entry["rejected"]
        entry["completed"] = len(latencies[name])
        entry["p50_ms"] = percentile(name, 50.0)
        entry["p99_ms"] = percentile(name, 99.0)
        tenants[name] = entry
    report = {
        "scenario": "tenants",
        "engine": args.engine,
        "flood": bool(flood),
        "elapsed_s": elapsed_s,
        "tenant_rate": args.tenant_rate,
        "tenant_burst": burst,
        "flood_factor": args.flood_factor,
        "tenants": tenants,
        "stats": server.stats(),
    }
    if args.verify:
        report["verified"] = verify_tenant_completions(args, pool, completions)
    return report


def verify_tenant_completions(args: argparse.Namespace, pool: np.ndarray,
                              completions: list) -> bool:
    """Every served row must match direct execution on an identical engine.

    Repeats within one tenant ride its cache namespace, so they must be
    *bit-identical* to each other; against the independently built
    reference engine the check is ``allclose`` plus exact argmax
    equality, exactly as the single-tenant scenarios verify.
    """
    reference_engine = build_demo_engine(classes=args.classes,
                                         input_dim=args.input_dim,
                                         hash_length=args.hash_length,
                                         seed=args.seed)
    reference = reference_engine.execute(reference_engine.prepare(pool))
    seen: dict[tuple[str, int], np.ndarray] = {}
    for tenant, pool_index, row in completions:
        expected = reference[pool_index]
        if not np.allclose(row, expected) \
                or int(np.argmax(row)) != int(np.argmax(expected)):
            print(f"[loadgen] VERIFY FAIL: tenant {tenant!r} pool row "
                  f"{pool_index} deviates from direct execution")
            return False
        key = (tenant, int(pool_index))
        if key in seen and not np.array_equal(seen[key], row):
            print(f"[loadgen] VERIFY FAIL: tenant {tenant!r} served "
                  f"non-identical repeats of pool row {pool_index}")
            return False
        seen[key] = row
    return True


def print_tenants_report(report: dict) -> None:
    flood = "flood on" if report["flood"] else "no flood (baseline)"
    print(f"[loadgen] scenario=tenants engine={report['engine']} {flood} "
          f"elapsed={report['elapsed_s']:.2f}s")
    for name, entry in report["tenants"].items():
        print(f"[loadgen]   {name}: submitted={entry['submitted']} "
              f"admitted={entry['admitted']} rejected={entry['rejected']} "
              f"p50={entry['p50_ms']:.2f}ms p99={entry['p99_ms']:.2f}ms")
    server_tenants = report["stats"].get("tenants", {})
    shed = {name: entry.get("shed", 0)
            for name, entry in server_tenants.items()}
    print(f"[loadgen]   server shed counts={shed}")
    if "verified" in report:
        print(f"[loadgen]   verified={'OK' if report['verified'] else 'FAIL'}")


def build_slo_specs(args: argparse.Namespace) -> tuple:
    """SloSpecs from the --slo-* flags ([] when none are set)."""
    if (args.slo_p99_ms is None and args.slo_error_rate_max is None
            and args.slo_hit_rate_min is None):
        return ()
    return (SloSpec(name="loadgen",
                    latency_p99_ms=args.slo_p99_ms,
                    error_rate_max=args.slo_error_rate_max,
                    hit_rate_min=args.slo_hit_rate_min),)


def verify_topk_responses(args: argparse.Namespace, queries: np.ndarray,
                          responses: list) -> bool:
    """Served top-k rows must be bit-identical to direct engine execution.

    The reference is the *unsharded* demo engine, so a sharded run proves
    the partial gather end to end; indices and distances are integers, so
    the check is exact equality, never allclose.
    """
    reference_engine = build_demo_engine(classes=args.classes,
                                         input_dim=args.input_dim,
                                         hash_length=args.hash_length,
                                         seed=args.seed)
    expected = reference_engine.execute_topk(
        reference_engine.prepare(queries), args.topk)
    served = np.stack(responses)
    if served.shape != expected.shape:
        print(f"[loadgen] VERIFY FAIL: top-k shape {served.shape} != "
              f"{expected.shape}")
        return False
    if not np.array_equal(served, expected):
        print("[loadgen] VERIFY FAIL: served top-k rows are not "
              "bit-identical to direct execution")
        return False
    return True


def verify_responses(args: argparse.Namespace, queries: np.ndarray,
                     responses: list) -> bool:
    """Served responses must match a direct pass on an identical engine.

    The reference is always the *unsharded* demo engine, so a sharded run
    additionally proves scatter-gather correctness end to end.  Duplicate
    queries (the cache path) must be *bit-identical* to each other;
    against the independently built reference engine the check is
    ``allclose`` plus exact equality of the argmax classes.
    """
    reference_engine = build_demo_engine(classes=args.classes,
                                         input_dim=args.input_dim,
                                         hash_length=args.hash_length,
                                         seed=args.seed)
    reference = reference_engine.execute(reference_engine.prepare(queries))
    served = np.stack(responses)
    if served.shape != reference.shape:
        print(f"[loadgen] VERIFY FAIL: shape {served.shape} != {reference.shape}")
        return False
    if not np.allclose(served, reference):
        worst = float(np.max(np.abs(served - reference)))
        print(f"[loadgen] VERIFY FAIL: responses deviate (max abs err {worst:g})")
        return False
    seen: dict[bytes, np.ndarray] = {}
    for query, row in zip(queries, served):
        key = query.tobytes()
        if key in seen and not np.array_equal(seen[key], row):
            print("[loadgen] VERIFY FAIL: duplicate query served "
                  "non-identical responses")
            return False
        seen[key] = row
    return True


def print_report(report: dict) -> None:
    stats = report["stats"]
    print(f"[loadgen] scenario={report['scenario']} "
          f"engine={report['engine']} "
          f"requests={report['requests']} "
          f"throughput={report['throughput_rps']:,.0f} req/s")
    if "cache_busting" in report:
        busting = report["cache_busting"]
        print(f"[loadgen]   cache-busting: LRU hit_rate="
              f"{busting['lru_hit_rate']:.2f} -> doorkeeper(admission="
              f"{busting['admission_threshold']}) hit_rate="
              f"{busting['admission_hit_rate']:.2f}")
    if "shards" in stats and stats["shards"]:
        searches = {shard: entry["searches"]
                    for shard, entry in stats["shards"].items()}
        print(f"[loadgen]   shard searches={searches}")
    batches = stats["batches"]
    print(f"[loadgen]   batches={batches['count']} "
          f"mean_size={batches['mean_size']:.1f} "
          f"histogram={batches['size_histogram']}")
    latency = stats["latency_ms"]
    print(f"[loadgen]   latency p50={latency['p50']:.2f}ms "
          f"p99={latency['p99']:.2f}ms max={latency['max']:.2f}ms")
    cache = stats["cache"]
    print(f"[loadgen]   cache hits={cache['hits']} misses={cache['misses']} "
          f"hit_rate={cache['hit_rate']:.2f}")
    print(f"[loadgen]   queue depth max={stats['queue_depth']['max']}")
    if "verified" in report:
        print(f"[loadgen]   verified={'OK' if report['verified'] else 'FAIL'}")
    if "trace" in report:
        trace = report["trace"]
        status = "OK" if trace["complete"] else "INCOMPLETE"
        print(f"[loadgen]   trace: {trace['run_trees']} run trees "
              f"({status}), {trace['obs']['spans_ended']} spans, "
              f"dropped={trace['obs']['export_dropped']}")
        for problem in trace["problems"][:5]:
            print(f"[loadgen]     problem: {problem}")
        for line in obs_report.render_stage_table(trace["stages"]).splitlines():
            print(f"[loadgen]   {line}")
    if "tail" in report:
        tail = report["tail"]
        print(f"[loadgen]   tail: kept {tail['kept_traces']} traces "
              f"({tail['kept_slow']} slow, {tail['kept_error']} error, "
              f"{tail['kept_link']} linked) of {tail['roots_seen']} roots; "
              f"{tail['kept_request_traces']} slow request trees exported "
              f"whole")
    if "slo" in report:
        slo = report["slo"]
        print(f"[loadgen]   slo: {slo['status']}")
        for spec in slo["specs"]:
            for objective in spec["objectives"]:
                short = objective["windows"]["short"]
                print(f"[loadgen]     {spec['name']}/"
                      f"{objective['objective']}: {objective['status']} "
                      f"(burn {short['burn']:.2f}, "
                      f"bad {short['bad']:.0f}/{short['total']:.0f})")


def build_parser() -> argparse.ArgumentParser:
    """The loadgen CLI (exposed so tenant_smoke reuses the defaults)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", choices=(*SCENARIOS, "tenants", "all"),
                        default="uniform",
                        help="traffic shape ('tenants' is the multi-tenant "
                             "flood scenario; not part of 'all')")
    parser.add_argument("--requests", type=int, default=1000)
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--queue-depth", type=int, default=1024)
    parser.add_argument("--cache-capacity", type=int, default=None,
                        help="result-cache entries (default 4096; the "
                             "cache_busting scenario sizes it from the "
                             "stream unless set explicitly)")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--classes", type=int, default=16)
    parser.add_argument("--input-dim", type=int, default=128)
    parser.add_argument("--hash-length", type=int, default=256)
    parser.add_argument("--rate", type=float, default=0.0,
                        help="paced arrivals in req/s (0 = as fast as possible)")
    parser.add_argument("--burst", type=int, default=64,
                        help="bursty scenario: requests per burst")
    parser.add_argument("--gap-ms", type=float, default=5.0,
                        help="bursty scenario: idle gap between bursts")
    parser.add_argument("--pool", type=int, default=128,
                        help="zipf scenario: distinct queries in the pool")
    parser.add_argument("--topk", type=int, default=8,
                        help="retrieval scenario: nearest rows per query")
    parser.add_argument("--zipf-alpha", type=float, default=1.3)
    parser.add_argument("--engine", choices=("cam", "sharded"), default="cam",
                        help="serve through the single-array demo engine or "
                             "a sharded cluster")
    parser.add_argument("--shards", type=int, default=4,
                        help="sharded engine: number of shards")
    parser.add_argument("--replicas", type=int, default=1,
                        help="sharded engine: replicas per shard")
    parser.add_argument("--routing", choices=("round_robin", "least_loaded"),
                        default="round_robin")
    parser.add_argument("--fanout", choices=("fused", "ports"),
                        default="fused")
    parser.add_argument("--executor", choices=("inline", "threads",
                                               "processes"), default=None,
                        help="execution-plane engine for the sharded "
                             "cluster's fan-outs (default: REPRO_EXECUTOR, "
                             "then the pre-plane behaviour)")
    parser.add_argument("--adaptive-wait", action="store_true",
                        help="scale max_wait_ms with queue depth")
    parser.add_argument("--cache-admission", type=int, default=None,
                        help="doorkeeper admission threshold for any "
                             "scenario (default: 2 for cache_busting, "
                             "1 = plain LRU otherwise)")
    parser.add_argument("--tenant-rate", type=float, default=20.0,
                        help="tenants scenario: the flood tenant's "
                             "token-bucket rate (req/s)")
    parser.add_argument("--tenant-burst", type=float, default=None,
                        help="tenants scenario: the flood tenant's bucket "
                             "capacity (default: its rate)")
    parser.add_argument("--flood-factor", type=float, default=10.0,
                        help="tenants scenario: flood submits at this "
                             "multiple of its admitted rate")
    parser.add_argument("--wb-rate", type=float, default=200.0,
                        help="tenants scenario: each well-behaved tenant's "
                             "submit pace (req/s)")
    parser.add_argument("--no-flood", action="store_true",
                        help="tenants scenario: run only the well-behaved "
                             "tenants (the tenant_smoke baseline)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout-s", type=float, default=60.0)
    parser.add_argument("--verify", action="store_true",
                        help="check served responses against a direct pass")
    parser.add_argument("--trace", action="store_true",
                        help="trace every request (repro.obs) and print the "
                             "per-stage latency attribution; fails the run "
                             "unless every request lands in exactly one "
                             "complete run tree")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="also export the spans to this JSONL file "
                             "(read it back with scripts/trace_report.py)")
    parser.add_argument("--sample-rate", type=float, default=1.0,
                        help="head-sampling rate for --trace (1.0 = every "
                             "request; tail-kept traces export regardless)")
    parser.add_argument("--tail-slow-ms", type=float, default=None,
                        help="attach a tail sampler keeping whole traces "
                             "whose request root is at least this slow "
                             "(works even when head-sampled out)")
    parser.add_argument("--slo-p99-ms", type=float, default=None,
                        help="evaluate a p99 latency SLO against the run")
    parser.add_argument("--slo-error-rate-max", type=float, default=None,
                        help="evaluate an error-rate SLO against the run")
    parser.add_argument("--slo-hit-rate-min", type=float, default=None,
                        help="evaluate a cache-hit-rate SLO against the run")
    parser.add_argument("--verbose", type=int, default=0, metavar="N",
                        help="print every N-th batch (0 = silent)")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the report(s) to this JSON file")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: all scenarios, 200 requests each, "
                             "verification on (make serve-smoke)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.quick:
        args.requests = min(args.requests, 200)
        args.scenario = "all"
        args.verify = True

    scenarios = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    reports = []
    all_verified = True
    for scenario in scenarios:
        if scenario == "tenants":
            report = run_tenants_scenario(args)
            print_tenants_report(report)
        else:
            report = run_scenario(scenario, args)
            print_report(report)
        reports.append(report)
        all_verified = all_verified and report.get("verified", True)
        if "trace" in report:
            all_verified = all_verified and report["trace"]["complete"]

    if args.json is not None:
        args.json.write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n")
        print(f"[loadgen] wrote {args.json}")

    if not all_verified:
        print("[loadgen] FAILED: served responses do not match direct execution")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
