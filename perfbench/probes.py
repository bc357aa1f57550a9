"""Timing wrappers of the traced run, and the kernel word-op counter.

Each timing wrapper times a call into one layer's public surface from
outside the program: an engine proxy handed to the server in place of the
engine, a ``ServeObserver`` for the micro-batch window, and module-attribute
wraps for kernels that no public object exposes.  The untraced run uses
none of them; it only counts the kernel's word operations.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterable, List, Tuple

import numpy as np

from harness import Spans, patched, percentile


class TimedEngine:
    """Implements the serving engine contract around a real engine.

    ``prepare`` is the batch's hashing pass (``hash`` span) and
    ``execute``/``execute_topk`` the sharded search plus logits
    (``shard.search`` span).
    """

    def __init__(self, engine: Any, spans: Spans) -> None:
        self._engine = engine
        self._spans = spans
        self.name = engine.name
        self.input_dim = engine.input_dim
        self.output_dim = engine.output_dim

    def prepare(self, queries: np.ndarray, want_keys: bool = True) -> Any:
        with self._spans.span("hash", queries=len(queries)):
            return self._engine.prepare(queries, want_keys=want_keys)

    def execute(self, prepared: Any) -> np.ndarray:
        with self._spans.span("shard.search", queries=prepared.size):
            return self._engine.execute(prepared)

    def execute_topk(self, prepared: Any, k: int) -> np.ndarray:
        with self._spans.span("shard.search", queries=prepared.size):
            return self._engine.execute_topk(prepared, k)

    def topk_width(self, k: int) -> int:
        return self._engine.topk_width(k)

    def stats(self) -> dict:
        return self._engine.stats()

    def bind_observers(self, observers: Iterable[Any]) -> None:
        self._engine.bind_observers(observers)

    def unbind_observers(self, observers: Iterable[Any]) -> None:
        self._engine.unbind_observers(observers)


class BatchObserver:
    """``ServeObserver`` turning each micro-batch into a ``serve.batch`` span.

    The span opens at ``batch_collected`` and closes at ``batch_completed``
    on the worker thread, so the engine proxy's spans nest inside it.
    """

    def __init__(self, spans: Spans) -> None:
        self._spans = spans
        self._local = threading.local()
        self.collected: List[Tuple[int, float]] = []
        self.completed: List[Tuple[int, float]] = []

    def batch_collected(self, size: int, waited_ms: float,
                        queue_depth: int) -> None:
        self._end()
        self.collected.append((size, waited_ms))
        self._local.token = self._spans.open("serve.batch")

    def batch_completed(self, size: int, cache_hits: int, cache_misses: int,
                        service_ms: float) -> None:
        self.completed.append((size, service_ms))
        self._end(size=size)

    def batch_failed(self, size: int, error: Exception) -> None:
        self._end()

    def _end(self, **attrs: Any) -> None:
        token = getattr(self._local, "token", None)
        if token is not None:
            self._local.token = None
            self._spans.close(token, **attrs)


def serve_metrics(collected: List[Tuple[int, float]],
                  completed: List[Tuple[int, float]]) -> dict:
    """Queue wait, batch size and service time of the observed micro-batches."""
    waits = [waited for _, waited in collected]
    return {
        "serve.queue_wait_ms_p50": percentile(waits, 50),
        "serve.queue_wait_ms_p99": percentile(waits, 99),
        "serve.batch_size_mean": float(np.mean([size for size, _ in collected])),
        "serve.service_ms_p50": percentile(
            [service for _, service in completed], 50),
    }


def _word_ops(queries: np.ndarray, rows: Any, *_: Any, **__: Any) -> dict:
    """XOR+popcount word operations of one packed kernel call."""
    data = getattr(rows, "array", rows)  # a published StorageHandle or words
    return {"word_ops": int(queries.shape[0]) * int(data.shape[0])
            * int(queries.shape[1])}


def kernel_wraps(spans: Spans) -> patched:
    """Wrap the packed kernel and top-k selection where the CAM layers call them."""
    import repro.core.accelerator as accelerator
    import repro.shard.pipeline as pipeline
    return patched(
        (pipeline, "packed_hamming_matrix",
         spans.wrap(pipeline.packed_hamming_matrix, "kernel", _word_ops)),
        (pipeline, "select_topk", spans.wrap(pipeline.select_topk, "select")),
        (accelerator, "packed_hamming_matrix",
         spans.wrap(accelerator.packed_hamming_matrix, "kernel", _word_ops)),
    )


class WordOps:
    """Running total of the packed kernel's word operations (thread-safe)."""

    def __init__(self) -> None:
        self.total = 0
        self._lock = threading.Lock()

    def wrap(self, fn: Any) -> Any:
        def counted(queries: np.ndarray, rows: Any, *args: Any,
                    **kwargs: Any) -> Any:
            ops = _word_ops(queries, rows)["word_ops"]
            with self._lock:
                self.total += ops
            return fn(queries, rows, *args, **kwargs)
        return counted


@contextmanager
def counting_word_ops():
    """Count every packed kernel call at the call sites :func:`kernel_wraps` times.

    A counter only, no clock: cheap enough for the untraced run.
    """
    import repro.core.accelerator as accelerator
    import repro.shard.pipeline as pipeline
    counter = WordOps()
    with patched(
            (pipeline, "packed_hamming_matrix",
             counter.wrap(pipeline.packed_hamming_matrix)),
            (accelerator, "packed_hamming_matrix",
             counter.wrap(accelerator.packed_hamming_matrix))):
        yield counter
