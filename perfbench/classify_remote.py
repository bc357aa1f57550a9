"""classify-remote: closed-loop NetClient calls to a NetServer in a child process.

Each client thread owns one ``NetClient`` and repeats a cycle of single-sample
``infer`` calls followed by one batch ``infer_many``, with queries drawn
uniformly from a pool and the server's result cache off, so the wire, HTTP
and the JSON/base64 codecs dominate.  The child is started and reaped here;
its CPU and peak RSS are folded into the workload's numbers.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

import repro.net.protocol as protocol
from repro.net import NetClient
from repro.net.transport import HttpTransport
from repro.serve import build_demo_engine

from harness import Workload as BaseWorkload
from harness import (NULL_SPANS, CpuSampler, NullSpans, Phase, Spans,
                     SpanStats, patched)
from probes import serve_metrics

HERE = Path(__file__).resolve().parent
#: Longest the child may take to start, answer a command or exit.
CHILD_TIMEOUT_S = 60.0


class CountingTransport:
    """Single-attempt transport counting body bytes on the wire."""

    def __init__(self, inner: HttpTransport) -> None:
        self.inner = inner
        self.sends = 0
        self.request_bytes = 0
        self.response_bytes = 0

    def send_once(self, method: str, path: str, body: bytes = b"",
                  headers: Any = None) -> Any:
        response = self.inner.send_once(method, path, body, headers)
        self.sends += 1
        self.request_bytes += len(body)
        self.response_bytes += len(response.body)
        return response

    def close(self) -> None:
        self.inner.close()

    def stats(self) -> Dict[str, Any]:
        return self.inner.stats()


class ServerChild:
    """The ``netchild.py`` process; always reaped by :meth:`stop`."""

    def __init__(self, cfg: Dict[str, Any], seed: int, traced: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "netchild.py"), json.dumps(cfg),
             str(seed), "1" if traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=HERE.parent)
        try:
            self.port = self._read()["port"]
        except BaseException:
            self.kill()
            raise
        self.final: Optional[Dict[str, Any]] = None

    def _read(self) -> Dict[str, Any]:
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("server child did not answer")
        return json.loads(line)

    def ask(self, command: str) -> Dict[str, Any]:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def cpu_s(self) -> float:
        return self.ask("cpu")["cpu_s"]

    def stop(self) -> Dict[str, Any]:
        """Ask the child to exit and wait for it; kill it if it will not."""
        if self.final is None:
            try:
                self.final = self.ask("stop")
                self.proc.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                self.kill()
        return self.final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


class Workload(BaseWorkload):
    """See the module docstring; ``perfbench/workloads.json`` has the knobs."""

    roots = ("net.call",)

    def __init__(self, cfg: Dict[str, Any], seed: int) -> None:
        self.cfg = cfg
        self.seed = seed
        self.pool = np.random.default_rng([seed, 0]).standard_normal(
            (cfg["pool"], cfg["engine"]["input_dim"]))
        self.calls: List[tuple] = []
        self.child: Optional[ServerChild] = None
        self.transports: List[CountingTransport] = []
        self.clients: List[NetClient] = []
        self._streams = 0
        # Over every timed phase, like ``calls``; each phase's transports are new.
        self.totals = dict.fromkeys(
            ("sends", "request_bytes", "response_bytes", "kernel_word_ops"), 0)

    # -- set-up ------------------------------------------------------------

    def _start(self, traced: bool, spans: Optional[Spans] = None) -> None:
        """Start a child and one client per thread, then warm both up."""
        self.child = ServerChild(self.cfg, self.seed, traced)
        url = f"http://127.0.0.1:{self.child.port}"
        self.transports = [CountingTransport(HttpTransport(url))
                           for _ in range(self.cfg["clients"])]
        if spans is not None:
            for transport in self.transports:
                transport.send_once = spans.wrap(transport.send_once,
                                                 "net.transport")
        self.clients = [NetClient(transport=transport, seed=index)
                        for index, transport in enumerate(self.transports)]
        warm = np.random.default_rng([self.seed, 2])
        for client in self.clients:
            for size in self.cfg["cycle"] * self.cfg["warmup_cycles"]:
                client.infer_many(self.pool[warm.integers(0, len(self.pool),
                                                          size)])

    def _stop(self) -> Dict[str, Any]:
        for client in self.clients:
            client.close()
        final = self.child.stop() if self.child is not None else {}
        self.child = None
        return final

    def setup(self) -> None:
        self._start(traced=False)

    def close(self) -> None:
        self._stop()

    # -- load --------------------------------------------------------------

    def _client_loop(self, client: NetClient, stream: int, deadline: float,
                     out: List[tuple], spans: Union[Spans, NullSpans]) -> None:
        rng = np.random.default_rng([self.seed, 3, stream])
        cycle = self.cfg["cycle"]
        call = 0
        while time.perf_counter() < deadline:
            size = cycle[call % len(cycle)]
            call += 1
            indices = rng.integers(0, len(self.pool), size)
            batch = self.pool[indices]
            with spans.span("net.call"):
                started = time.perf_counter()
                try:
                    result = (client.infer(batch[0]) if size == 1
                              else client.infer_many(batch))
                except Exception:  # noqa: BLE001 -- any failure is counted
                    result = None
                ended = time.perf_counter()
            crc = (None if result is None
                   else zlib.crc32(np.ascontiguousarray(result)))
            out.append((indices, crc, (ended - started) * 1e3, ended))

    def _phase(self, seconds: float, spans: Union[Spans, NullSpans]) -> Phase:
        outs: List[List[tuple]] = [[] for _ in self.clients]
        for transport in self.transports:
            transport.sends = transport.request_bytes = transport.response_bytes = 0
        word_ops0 = self.child.ask("cpu")["word_ops"]
        deadline = time.perf_counter() + seconds
        threads = []
        for client, out in zip(self.clients, outs):
            threads.append(threading.Thread(
                target=self._client_loop,
                args=(client, self._streams, deadline, out, spans)))
            self._streams += 1
        with CpuSampler(self.cfg["cpu_sample_s"], self.child.cpu_s) as sampler:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        calls = [call for out in outs for call in out]
        self.calls.extend(call[:2] for call in calls)
        ok = [call for call in calls if call[1] is not None]
        child = self.child.ask("cpu")
        for name in ("sends", "request_bytes", "response_bytes"):
            self.totals[name] += self._bytes(name)
        self.totals["kernel_word_ops"] += child["word_ops"] - word_ops0
        sends = max(self._bytes("sends"), 1)
        return Phase(
            done_times=[call[3] for call in ok], samples=sampler.samples,
            latencies_ms=[call[2] for call in ok],
            attempted=len(calls), failed=len(calls) - len(ok),
            extra={"child_rss_mb": child["rss_mb"],
                   "request_bytes": self._bytes("request_bytes") / sends,
                   "response_bytes": self._bytes("response_bytes") / sends,
                   "retries": sum(client.stats()["retry"]["retries"]
                                  for client in self.clients)})

    def _bytes(self, name: str) -> int:
        return sum(getattr(transport, name) for transport in self.transports)

    # -- measurement -------------------------------------------------------

    def measure(self, seconds: float) -> Phase:
        return self._phase(seconds, NULL_SPANS)

    def measure_traced(self, seconds: float, spans: Spans) -> Phase:
        """A fresh traced child; client calls, codecs and sends are spans."""
        self._stop()
        self._start(traced=True, spans=spans)
        with patched(
                (protocol, "encode_classify_request",
                 spans.wrap(protocol.encode_classify_request, "net.encode")),
                (protocol, "dumps", spans.wrap(protocol.dumps, "net.encode")),
                (protocol, "loads", spans.wrap(protocol.loads, "net.decode")),
                (protocol, "decode_classify_response",
                 spans.wrap(protocol.decode_classify_response, "net.decode"))):
            phase = self._phase(seconds, spans)
        final = self._stop()
        spans.extend(final["spans"], "child")
        phase.extra["child_queries"] = final["queries_served"]
        self.batches = final["batches"]
        return phase

    # -- results -----------------------------------------------------------

    def verify(self) -> tuple[int, int]:
        """Every answer against an unsharded engine built from the same seed."""
        oracle = build_demo_engine(seed=self.seed, **self.cfg["engine"])
        used = np.unique(np.concatenate([indices for indices, _ in self.calls]))
        position = np.full(len(self.pool), -1)
        position[used] = np.arange(used.size)
        rows = np.concatenate([
            oracle.execute(oracle.prepare(self.pool[used[start:start + 256]]))
            for start in range(0, used.size, 256)])
        failed = 0
        for indices, crc in self.calls:
            expected = 0
            for index in indices:
                expected = zlib.crc32(rows[position[index]], expected)
            failed += crc != expected
        return len(self.calls), failed

    def counters(self) -> Dict[str, Any]:
        """Exact counts over the timed phases, the server child's kernel included."""
        return {"calls": len(self.calls),
                "samples": int(sum(len(indices) for indices, _ in self.calls)),
                **self.totals}

    def extra_metrics(self, phase: Phase) -> Dict[str, tuple]:
        return {"net.request_bytes": (phase.extra["request_bytes"], "B/call"),
                "net.response_bytes": (phase.extra["response_bytes"], "B/call")}

    def layer_metrics(self, plain: Phase, traced: Phase,
                      stats: SpanStats) -> Dict[str, float]:
        return {
            "net.request_bytes": traced.extra["request_bytes"],
            "net.response_bytes": traced.extra["response_bytes"],
            "net.retries": traced.extra["retries"],
            **serve_metrics(*self.batches),
        }
