"""Server child of the classify-remote workload: a NetServer on an ephemeral port.

Started by ``classify_remote.py`` as ``netchild.py <config-json> <seed>
<trace>``.  It talks to its parent in JSON lines over stdin/stdout:

* on start it prints ``{"port": ...}`` once the server is listening;
* ``cpu`` answers ``{"cpu_s": ..., "rss_mb": ..., "word_ops": ...}`` (this
  process so far; ``word_ops`` counts the packed kernel's word operations);
* ``stop`` answers with the same readings plus the engine's served-query
  count and, when traced, every span and micro-batch, then shuts down and
  exits.

End of input (the parent died) also shuts it down.
"""

from __future__ import annotations

import json
import sys
from contextlib import ExitStack
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.serve import ServeConfig  # noqa: E402
from repro.net import NetServer  # noqa: E402
from repro.shard.engine import build_demo_sharded_engine  # noqa: E402

from harness import Spans, cpu_seconds, peak_rss_mb  # noqa: E402
from probes import (BatchObserver, TimedEngine, WordOps,  # noqa: E402
                    counting_word_ops, kernel_wraps)


def readings(word_ops: WordOps) -> dict:
    return {"cpu_s": cpu_seconds(), "rss_mb": peak_rss_mb(),
            "word_ops": word_ops.total}


def reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> int:
    cfg, seed, traced = json.loads(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "1"
    engine = build_demo_sharded_engine(seed=seed, num_shards=cfg["num_shards"],
                                       **cfg["engine"])
    spans = Spans() if traced else None
    observer = BatchObserver(spans) if traced else None
    server = NetServer(engine=TimedEngine(engine, spans) if traced else engine,
                       config=ServeConfig(**cfg["serve"]), cache=False,
                       observers=[observer] if traced else ()).start()
    with ExitStack() as stack:
        stack.callback(engine.close)
        stack.callback(server.stop)
        word_ops = stack.enter_context(counting_word_ops())
        if traced:
            stack.enter_context(kernel_wraps(spans))
            # Instance-level wrap: the HTTP handler calls app.handle per request.
            server.app.handle = spans.wrap(server.app.handle, "net.handle")
        reply({"port": int(server.base_url.rsplit(":", 1)[1])})
        for line in sys.stdin:
            command = line.strip()
            if command == "cpu":
                reply(readings(word_ops))
            elif command == "stop":
                break
    reply({**readings(word_ops), "queries_served": engine.stats()["queries_served"],
           "spans": spans.records if traced else [],
           "batches": [observer.collected, observer.completed] if traced else []})
    return 0


if __name__ == "__main__":
    sys.exit(main())
