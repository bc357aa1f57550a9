"""Tracer semantics: head sampling, ambient context, counters, injection."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    TRACE_HEADER,
    TraceContext,
    Tracer,
    configure,
    current_span,
    default_tracer,
    inject_headers,
    scoped_task,
    use_span,
)


class TestSampling:
    def test_sample_rate_validated(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(sample_rate=-0.1)

    def test_rate_zero_exports_nothing_but_counts(self, make_tracer):
        tracer, sink = make_tracer(sample_rate=0.0)
        for _ in range(10):
            tracer.start_span("request").end()
        assert tracer.flush()
        assert sink.spans() == []
        assert tracer.sampled_out == 10
        assert tracer.snapshot()["spans_ended"] == 10

    def test_rate_one_exports_everything(self, make_tracer):
        tracer, sink = make_tracer(sample_rate=1.0)
        for _ in range(10):
            tracer.start_span("request").end()
        assert tracer.flush()
        assert len(sink.spans()) == 10
        assert tracer.sampled_out == 0

    def test_seeded_fractional_rate_is_reproducible(self, make_tracer):
        counts = []
        for _ in range(2):
            tracer, sink = make_tracer(sample_rate=0.5, seed=7)
            for _ in range(200):
                tracer.start_span("request").end()
            assert tracer.flush()
            counts.append(len(sink.spans()))
            tracer.shutdown()
        assert counts[0] == counts[1]
        assert 0 < counts[0] < 200

    def test_descendants_inherit_the_root_decision(self, make_tracer):
        tracer, sink = make_tracer(sample_rate=0.0)
        root = tracer.start_span("request")
        child = tracer.start_span("enqueue", parent=root)
        assert not root.sampled and not child.sampled
        child.end()
        root.end()
        assert tracer.flush()
        assert sink.spans() == []
        # Only the root rolled the dice.
        assert tracer.sampled_out == 1

    def test_errors_export_even_when_sampled_out(self, make_tracer):
        tracer, sink = make_tracer(sample_rate=0.0)
        span = tracer.start_span("request")
        span.record_error("engine exploded").end()
        assert tracer.flush()
        exported = sink.spans()
        assert len(exported) == 1
        assert exported[0]["status"] == "error"
        assert tracer.errors == 1


class TestSpanContextManager:
    def test_exception_marks_error_and_reraises(self, make_tracer):
        tracer, sink = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("op"):
                raise RuntimeError("boom")
        assert tracer.flush()
        (span,) = sink.spans()
        assert span["status"] == "error"
        assert "boom" in span["error"]

    def test_nesting_via_ambient(self, make_tracer):
        tracer, sink = make_tracer()
        with tracer.span("request") as outer:
            assert current_span() is outer
            with tracer.span("enqueue") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        assert current_span() is None

    def test_ambient_false_does_not_leak(self, make_tracer):
        tracer, _ = make_tracer()
        with tracer.span("detached", ambient=False):
            assert current_span() is None


class TestAmbientPropagation:
    def test_use_span_none_is_noop(self):
        with use_span(None) as span:
            assert span is None

    def test_scoped_task_crosses_threads(self, make_tracer):
        tracer, _ = make_tracer()
        seen = []
        with tracer.span("fanout") as fan:
            task = scoped_task(lambda: seen.append(current_span()), fan)
            worker = threading.Thread(target=task)
            worker.start()
            worker.join()
        assert seen == [fan]

    def test_scoped_task_without_span_returns_fn_unwrapped(self):
        fn = lambda: None  # noqa: E731
        assert scoped_task(fn, None) is fn


class TestInjectHeaders:
    def test_no_context_passes_through(self):
        assert inject_headers({"A": "b"}) == {"A": "b"}
        assert inject_headers() == {}

    def test_explicit_context_and_span(self, make_tracer):
        tracer, _ = make_tracer()
        span = tracer.start_span("client")
        by_span = inject_headers({}, span)
        by_context = inject_headers({}, span.context)
        assert by_span == by_context
        assert TraceContext.from_header(by_span[TRACE_HEADER]) == span.context

    def test_ambient_fallback(self, make_tracer):
        tracer, _ = make_tracer()
        with tracer.span("client") as span:
            headers = inject_headers({"X": "y"})
        assert headers["X"] == "y"
        assert TraceContext.from_header(
            headers[TRACE_HEADER]) == span.context

    def test_original_mapping_is_not_mutated(self, make_tracer):
        tracer, _ = make_tracer()
        original = {"X": "y"}
        with tracer.span("client"):
            injected = inject_headers(original)
        assert TRACE_HEADER not in original
        assert TRACE_HEADER in injected


class TestSnapshotAndRecent:
    def test_counters_and_pipeline_keys(self, make_tracer):
        tracer, _ = make_tracer()
        with tracer.span("op"):
            pass
        snapshot = tracer.snapshot()
        assert snapshot["spans_started"] == 1
        assert snapshot["spans_ended"] == 1
        assert snapshot["spans_errored"] == 0
        assert snapshot["sample_rate"] == 1.0
        for key in ("export_offered", "export_exported", "export_dropped",
                    "export_errors", "export_buffer_depth"):
            assert key in snapshot

    def test_recent_ring_is_bounded_and_ordered(self, make_tracer):
        tracer, _ = make_tracer(recent_capacity=4)
        for index in range(10):
            tracer.start_span(f"op{index}").end()
        names = [span["name"] for span in tracer.recent()]
        assert names == ["op6", "op7", "op8", "op9"]
        assert [span["name"] for span in tracer.recent(limit=2)] == [
            "op8", "op9"]


class TestDefaultTracer:
    def test_configure_and_clear(self):
        assert default_tracer() is None
        tracer = Tracer()
        try:
            assert configure(tracer) is tracer
            assert default_tracer() is tracer
        finally:
            configure(None)
        assert default_tracer() is None
