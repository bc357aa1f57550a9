"""Span primitives: ids, trace-context wire format, span lifecycle.

The trace-context parser is *total* by contract -- any malformed header
yields ``None``, never an exception -- because propagation must never
fail a request.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    Span,
    TraceContext,
    format_trace_header,
    new_id,
    parse_trace_header,
)


class TestIds:
    def test_unique_and_well_formed(self):
        ids = {new_id() for _ in range(1000)}
        assert len(ids) == 1000
        for value in ids:
            assert len(value) == 16
            assert all(c in "0123456789abcdef" for c in value)

    def test_shared_process_prefix(self):
        prefixes = {new_id()[:8] for _ in range(10)}
        assert len(prefixes) == 1


class TestTraceContext:
    def test_header_round_trip(self):
        context = TraceContext("ab12cd34ef56ab78", "1234567890abcdef",
                               sampled=True)
        parsed = TraceContext.from_header(context.to_header())
        assert parsed == context

    def test_unsampled_round_trip(self):
        context = TraceContext("ab12cd34ef56ab78", "1234567890abcdef",
                               sampled=False)
        assert context.to_header().endswith("-00")
        assert TraceContext.from_header(context.to_header()) == context

    def test_header_format_is_locked(self):
        context = TraceContext("aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb",
                               sampled=True)
        assert context.to_header() == "1-aaaaaaaaaaaaaaaa-bbbbbbbbbbbbbbbb-01"

    @pytest.mark.parametrize("value", [
        None, "", "garbage", "2-aaaa-bbbb-01", "1-aaaa-bbbb",
        "1-aaaa-bbbb-02", "1--bbbb-01", "1-aaaa--01",
        "1-AAAA-bbbb-01", "1-aaxz-bbbb-01", "1-aaaa-bbbb-01-extra",
    ])
    def test_parse_is_total(self, value):
        assert TraceContext.from_header(value) is None

    def test_parse_alias_and_format_helpers(self, make_tracer):
        context = TraceContext("aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb")
        assert parse_trace_header(context.to_header()) == context
        assert format_trace_header(None) is None
        assert format_trace_header(context) == context.to_header()
        span = make_tracer()[0].start_span("x")
        assert format_trace_header(span) == span.context.to_header()


class TestSpanLifecycle:
    def test_end_is_idempotent(self, make_tracer):
        tracer, _ = make_tracer()
        span = tracer.start_span("op")
        span.end()
        first = span.end_ns
        span.end()
        assert span.end_ns == first
        assert tracer.ended == 1

    def test_duration_and_dict_shape(self, make_tracer):
        tracer, _ = make_tracer()
        span = tracer.start_span("op", attributes={"k": 3})
        span.set_attribute("extra", True)
        span.end()
        data = span.to_dict()
        assert data["name"] == "op"
        assert data["trace_id"] == span.trace_id
        assert data["parent_id"] is None
        assert data["status"] == "ok"
        assert data["attributes"] == {"k": 3, "extra": True}
        assert data["duration_ms"] >= 0.0
        assert data["end_ns"] >= data["start_ns"]

    def test_record_error(self, make_tracer):
        span = make_tracer()[0].start_span("op")
        span.record_error(ValueError("boom")).end()
        assert span.status == "error"
        assert span.error == "ValueError: boom"

    def test_child_inherits_trace(self, make_tracer):
        tracer, _ = make_tracer()
        root = tracer.start_span("request")
        child = tracer.start_span("enqueue", parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert root.parent_id is None
        # A root's span id doubles as its trace id (one generation per root).
        assert root.trace_id == root.span_id

    def test_context_of_span(self, make_tracer):
        span = make_tracer(sample_rate=1.0)[0].start_span("op")
        context = span.context
        assert isinstance(context, TraceContext)
        assert (context.trace_id, context.span_id) == (span.trace_id,
                                                       span.span_id)
        assert context.sampled is True
