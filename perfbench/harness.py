"""Shared pieces of the benchmark: clocks, resource readings, spans, output.

Nothing here imports ``repro``; the workload modules do.  A workload
returns one :class:`Phase` per timed phase; ``run.py`` turns phases and
span statistics into metrics and hands them to :func:`emit`.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import resource
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

OUT_DIR = Path(__file__).resolve().parent / "out"


# -- resources ---------------------------------------------------------------


def cpu_seconds() -> float:
    """User + system CPU of this process (all threads) so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def host_steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over this VM's CPUs.

    Recorded beside each run: wall-clock metrics drift with it.
    """
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (linear interpolation); ``nan`` when empty."""
    if len(values) == 0:
        return math.nan
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def supported_tail(samples: int) -> Optional[int]:
    """Highest of p99/p90 with at least ten samples beyond it."""
    for tail in (99, 90):
        if samples * (100 - tail) / 100.0 >= 10:
            return tail
    return None


# -- one timed phase ---------------------------------------------------------


def checkpoint(child_cpu: float = 0.0) -> tuple:
    """``(time, cpu_s, steal_s)`` now; ``child_cpu`` adds a child's CPU."""
    return time.perf_counter(), cpu_seconds() + child_cpu, host_steal_s()


@dataclass
class Phase:
    """What one timed phase measured.

    ``done_times`` holds the completion time of every successful op (a
    request, call, search batch or image) and ``latencies_ms`` its latency,
    in the same order.  ``samples`` are :func:`checkpoint` readings from the
    phase's start to its end, with any server child's CPU included.

    The phase is cut into ``WINDOWS`` consecutive windows: rates are medians
    over the windows and latency percentiles are taken over their samples.
    A window in which the hypervisor stole more than ``STEAL_LIMIT`` of this
    VM's CPUs is dropped, unless that would drop more than half of them; then
    the half with the least steal counts.  The host's speed drifts by a fifth
    over tens of seconds with no steal at all, so every other window counts,
    and the run record keeps them all.

    :meth:`joined` makes one phase of slices run apart in time, so that a
    metric samples the host across the whole run; its windows are the
    slices' windows.
    """

    done_times: Sequence[float]
    samples: List[tuple]
    latencies_ms: List[float]
    attempted: int
    failed: int
    extra: Dict[str, Any] = field(default_factory=dict)
    parts: List["Phase"] = field(default_factory=list)

    WINDOWS = 10
    STEAL_LIMIT = 0.05

    @classmethod
    def joined(cls, parts: List["Phase"]) -> "Phase":
        """One phase of ``parts``, which keep their own ``extra``."""
        return cls(done_times=np.concatenate([p.done_times for p in parts]),
                   samples=[s for p in parts for s in p.samples],
                   latencies_ms=[ms for p in parts for ms in p.latencies_ms],
                   attempted=sum(p.attempted for p in parts),
                   failed=sum(p.failed for p in parts), parts=parts)

    @property
    def wall_s(self) -> float:
        if self.parts:
            return sum(p.wall_s for p in self.parts)
        return self.samples[-1][0] - self.samples[0][0]

    @property
    def ops(self) -> int:
        return len(self.done_times)

    def _windows(self) -> List[Dict[str, Any]]:
        if self.parts:
            return [w for p in self.parts for w in p._windows()]
        done = np.asarray(self.done_times, dtype=np.float64)
        order = np.argsort(done, kind="stable")
        done = done[order]
        latencies = np.asarray(self.latencies_ms, dtype=np.float64)[order]
        edges = np.unique(np.linspace(0, len(self.samples) - 1,
                                      self.WINDOWS + 1).round().astype(int))
        windows = []
        for a, b in zip(edges[:-1], edges[1:]):
            (t0, cpu0, steal0), (t1, cpu1, steal1) = self.samples[a], self.samples[b]
            first, last = np.searchsorted(done, (t0, t1), "right")
            windows.append({"seconds": t1 - t0, "cpu_s": cpu1 - cpu0,
                            "steal_s": steal1 - steal0, "ops": int(last - first),
                            "latencies_ms": latencies[first:last]})
        return windows

    def _kept(self) -> List[Dict[str, Any]]:
        """The windows the host did not steal from, or the least-stolen half."""
        windows = [window for window in self._windows() if window["seconds"] > 0]
        capacity = os.cpu_count() or 1
        kept = [w for w in windows
                if w["steal_s"] <= self.STEAL_LIMIT * capacity * w["seconds"]]
        if 2 * len(kept) >= len(windows):
            return kept
        windows.sort(key=lambda window: window["steal_s"] / window["seconds"])
        return windows[: max(1, (len(windows) + 1) // 2)]

    @property
    def ops_per_s(self) -> float:
        kept = self._kept()
        return float(np.median([w["ops"] / w["seconds"] for w in kept]))

    @property
    def cpu_ms_per_op(self) -> float:
        costs = [w["cpu_s"] * 1e3 / w["ops"] for w in self._kept() if w["ops"]]
        return float(np.median(costs)) if costs else math.nan

    def latency_ms(self, q: float) -> float:
        """``q``-th percentile of the kept windows' latencies."""
        return percentile(np.concatenate(
            [w["latencies_ms"] for w in self._kept()]), q)

    def window_summary(self) -> List[Dict[str, float]]:
        """Every window's steal, rate and latencies, for the run record."""
        return [{"seconds": w["seconds"], "steal_s": w["steal_s"], "ops": w["ops"],
                 "cpu_ms_per_op": w["cpu_s"] * 1e3 / w["ops"] if w["ops"] else None,
                 "p50_ms": percentile(w["latencies_ms"], 50),
                 "p90_ms": percentile(w["latencies_ms"], 90)}
                for w in self._windows()]


class CpuSampler:
    """Background :func:`checkpoint` readings through a phase with many ops.

    ``child_cpu`` adds a server child's CPU to every reading.
    """

    def __init__(self, interval_s: float,
                 child_cpu: Callable[[], float] = lambda: 0.0) -> None:
        self.interval_s = interval_s
        self.child_cpu = child_cpu
        self.samples: List[tuple] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _read(self) -> None:
        self.samples.append(checkpoint(self.child_cpu()))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._read()

    def __enter__(self) -> "CpuSampler":
        self._read()
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()
        self._read()


# -- spans -------------------------------------------------------------------


class NullSpans:
    """The untraced run's stand-in for :class:`Spans`: records nothing.

    Workloads open their op spans on whichever recorder they are given, so
    the traced and untraced runs execute the same code.
    """

    recording = False
    _null = nullcontext()

    def span(self, name: str, **attrs: Any) -> nullcontext:
        return self._null


NULL_SPANS = NullSpans()


class Spans:
    """In-memory span recorder for the traced run.

    A span is ``(id, name, start, end, parent, attrs)`` with ``perf_counter``
    times (CLOCK_MONOTONIC, so a child process's spans share the clock).
    Parents come from a per-thread stack: a wrapped call made inside another
    wrapped call on the same thread is its child.
    """

    recording = True

    def __init__(self) -> None:
        self.records: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> tuple:
        """Start a span on this thread; returns the token :meth:`close` takes."""
        stack = self._stack()
        token = (next(self._ids), name, stack[-1] if stack else None,
                 time.perf_counter())
        stack.append(token[0])
        return token

    def close(self, token: tuple, **attrs: Any) -> None:
        end = time.perf_counter()
        span_id, name, parent, start = token
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        self.records.append((span_id, name, start, end, parent, attrs or None))

    @contextmanager
    def span(self, name: str, **attrs: Any):
        token = self.open(name)
        try:
            yield
        finally:
            self.close(token, **attrs)

    def wrap(self, fn: Callable, name: str,
             attrs: Optional[Callable[..., Dict[str, Any]]] = None) -> Callable:
        """``fn`` recording a span per call (``attrs(*args)`` adds counts)."""
        def timed(*args: Any, **kwargs: Any) -> Any:
            token = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(token, **(attrs(*args, **kwargs) if attrs else {}))
        timed.__wrapped__ = fn
        return timed

    def extend(self, records: Iterable[Sequence[Any]], prefix: str) -> None:
        """Adopt spans recorded in another process, keeping their ids apart."""
        for span_id, name, start, end, parent, attrs in records:
            self.records.append((
                f"{prefix}:{span_id}", name, start, end,
                None if parent is None else f"{prefix}:{parent}", attrs))

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (the run's trace file)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span_id, name, start, end, parent, attrs in self.records:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "attrs": attrs}) + "\n")


@contextmanager
def patched(*targets: tuple):
    """Temporarily replace ``(owner, attribute, replacement)`` triples."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
    try:
        for owner, name, replacement in targets:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


class SpanStats:
    """Durations and self times of a span log, grouped by span name."""

    def __init__(self, spans: Spans) -> None:
        child_time: Dict[Any, float] = {}
        for _, _, start, end, parent, _ in spans.records:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        self.durations: Dict[str, List[float]] = {}
        self.self_time: Dict[str, float] = {}
        self.attrs: Dict[str, List[Dict[str, Any]]] = {}
        for span_id, name, start, end, _parent, attrs in spans.records:
            duration = end - start
            self.durations.setdefault(name, []).append(duration)
            self.self_time[name] = self.self_time.get(name, 0.0) + max(
                0.0, duration - child_time.get(span_id, 0.0))
            if attrs:
                self.attrs.setdefault(name, []).append(attrs)

    def p50_ms(self, *names: str) -> float:
        values = [d for name in names for d in self.durations.get(name, [])]
        return percentile(values, 50) * 1e3 if values else 0.0

    def total_s(self, *names: str) -> float:
        return sum(sum(self.durations.get(name, [])) for name in names)

    def attr_sum(self, name: str, key: str) -> float:
        return float(sum(attrs.get(key, 0) for attrs in self.attrs.get(name, [])))

    def unattributed_share(self, roots: Sequence[str]) -> float:
        """Share of the op spans' time no wrapped inner call covers."""
        total = self.total_s(*roots)
        own = sum(self.self_time.get(name, 0.0) for name in roots)
        return own / total if total > 0 else 0.0

    def layer_metrics(self, ops: int, wall_s: float) -> Dict[str, float]:
        """The per-layer metrics every workload reads off the same span names.

        A layer a workload never calls has no spans and reads 0.
        """
        values = {metric: self.p50_ms(name)
                  for metric, name in SPAN_P50_MS.items()}
        values["serve.submit_us_p50"] = self.p50_ms("serve.submit") * 1e3
        if values["net.call_ms_p50"]:
            values["net.wire_ms_p50"] = (values["net.call_ms_p50"]
                                         - values["net.handle_ms_p50"])
        hash_s = self.total_s("hash")
        queries = self.attr_sum("hash", "queries")  # rows hashed, not ops
        values["hash.ms_per_query"] = hash_s * 1e3 / queries if queries else 0.0
        values["hash.busy_share"] = hash_s / wall_s
        values["kernel.word_ops"] = self.attr_sum("kernel", "word_ops") / max(ops, 1)
        return values


#: Per-layer median latencies and the span each is read from.
SPAN_P50_MS = {
    "net.call_ms_p50": "net.call",
    "net.handle_ms_p50": "net.handle",
    "shard.search_ms_p50": "shard.search",
    "shard.topk_ms_p50": "shard.topk",
    "kernel.ms_p50": "kernel",
    "select.ms_p50": "select",
    "shard.write_ms_p50": "shard.write",
}


class Workload:
    """Defaults shared by the workload modules' ``Workload`` classes."""

    #: Span names of one op; what no wrapped call inside covers is unattributed.
    roots: tuple = ()

    def close(self) -> None:
        """Release what ``setup`` built (idempotent)."""

    def extra_metrics(self, phase: Phase) -> Dict[str, tuple]:
        """Workload-specific figures printed beside the end-to-end metrics."""
        return {}

    def trace_overhead_pct(self, plain: Phase, traced: Phase) -> float:
        """The traced half's throughput deficit against the untraced half."""
        return (1.0 - traced.ops_per_s / plain.ops_per_s) * 100.0


# -- output ------------------------------------------------------------------


def emit(workload: str, seed: int, trace: int, metrics: Dict[str, tuple],
         attempted: int, failed: int, correct: bool,
         record: Dict[str, Any]) -> None:
    """Print the table, write the run record, print the result line last."""
    print(f"# workload {workload}  seed {seed}  trace {trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    for name, (value, unit) in record.get("extra_metrics", {}).items():
        print(f"  {name:<28} {value:>14.6g} {unit}   (not in the result line)")
    print(f"  attempted {attempted}  failed {failed}  correct {correct}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "attempted": attempted, "failed": failed, "correct": correct,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()},
              **record}
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, default=_jsonable) + "\n")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)
