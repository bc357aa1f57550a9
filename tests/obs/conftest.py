"""Fixtures shared by the observability tests."""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import InMemoryExporter, Tracer

#: Name of the :class:`~repro.obs.export.ExportPipeline` drain thread.
EXPORT_THREAD = "repro-obs-export"


def _live_export_threads() -> list:
    return [thread for thread in threading.enumerate()
            if thread.name == EXPORT_THREAD and thread.is_alive()]


@pytest.fixture(autouse=True, scope="module")
def _no_leaked_export_threads():
    """Fail the module if it leaves an export drain thread running.

    Every tracer, tail sampler and export pipeline a test builds must be
    shut down; a forgotten one keeps a daemon thread waking every
    ``flush_interval_s`` for the rest of the run.  Threads already alive
    when the module starts belong to someone else.
    """
    before = set(_live_export_threads())
    yield
    deadline = time.monotonic() + 2.0
    leaked = [t for t in _live_export_threads() if t not in before]
    while leaked and time.monotonic() < deadline:
        time.sleep(0.01)  # a shutdown's join may still be finishing
        leaked = [t for t in _live_export_threads() if t not in before]
    assert not leaked, (
        f"{len(leaked)} {EXPORT_THREAD} thread(s) outlived this module: "
        "shut down every Tracer/TailSampler/ExportPipeline it builds")


@pytest.fixture
def make_tracer():
    """Factory of ``(tracer, in-memory sink)`` pairs, shut down after the test.

    Keyword arguments go to :class:`~repro.obs.Tracer`; the drain polls
    every 10 ms unless ``flush_interval_s`` says otherwise.
    """
    built = []

    def build(**kwargs):
        sink = InMemoryExporter()
        kwargs.setdefault("flush_interval_s", 0.01)
        tracer = Tracer(exporters=[sink], **kwargs)
        built.append(tracer)
        return tracer, sink

    yield build
    for tracer in built:
        tracer.shutdown()
