"""Tests: the repro.obs span/histogram subsystem and run reports."""

import json

import pytest

from repro.obs import (
    DEFAULT_BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    NULL_TRACER,
    Span,
    SpanRing,
    Tracer,
    diff_summaries,
    dump_report,
    format_summary,
)
from repro.sim.clock import VirtualClock


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def tracer(clock: VirtualClock) -> Tracer:
    return Tracer(clock)


# ----------------------------------------------------------------------
# spans and nesting
# ----------------------------------------------------------------------
def test_span_durations_read_virtual_clock(tracer, clock):
    with tracer.span("outer"):
        clock.charge(5.0)
    (span,) = tracer.spans("outer")
    assert span.duration_ms == 5.0
    assert span.end_ms == clock.now


def test_nested_spans_track_parent_and_self_time(tracer, clock):
    with tracer.span("outer") as outer:
        clock.charge(1.0)
        with tracer.span("inner") as inner:
            clock.charge(3.0)
        clock.charge(2.0)
    assert inner.parent_id == outer.span_id
    assert inner.depth == 1
    assert outer.duration_ms == 6.0
    assert outer.children_ms == 3.0
    assert outer.self_ms == 3.0
    assert inner.self_ms == 3.0


def test_sibling_spans_accumulate_children(tracer, clock):
    with tracer.span("op"):
        for _ in range(3):
            with tracer.span("child"):
                clock.charge(2.0)
    (op,) = tracer.spans("op")
    assert op.children_ms == 6.0
    assert op.self_ms == 0.0


def test_out_of_order_close_unwinds_intermediates(tracer, clock):
    outer_cm = tracer.span("outer")
    outer_cm.__enter__()
    tracer.span("inner").__enter__()
    clock.charge(1.0)
    outer_cm.__exit__(None, None, None)  # inner never closed explicitly
    assert tracer._stack == []
    assert len(tracer.spans("inner")) == 1
    assert len(tracer.spans("outer")) == 1


def test_span_attrs_and_set(tracer):
    with tracer.span("k", a=1) as span:
        span.set(b=2).set(c=3)
    assert span.attrs == {"a": 1, "b": 2, "c": 3}


def test_event_records_zero_duration_span(tracer, clock):
    clock.charge(4.0)
    tracer.event("tick", reason="test")
    (span,) = tracer.spans("tick")
    assert span.duration_ms == 0.0
    assert span.start_ms == 4.0
    assert span.attrs == {"reason": "test"}


def test_open_span_duration_is_zero(clock):
    span = Span(kind="open", start_ms=clock.now, span_id=1)
    assert span.duration_ms == 0.0
    assert span.self_ms == 0.0


def test_open_span_is_its_own_context_manager(tracer, clock):
    probe = tracer.span("k", a=1)
    with probe as span:
        assert span is probe
        assert isinstance(span, Span)
        clock.charge(1.0)
        assert span.end_ms is None and span.duration_ms == 0.0
    assert span.duration_ms == 1.0


def test_spans_returns_fresh_snapshots(tracer, clock):
    with tracer.span("k", a=1) as live:
        clock.charge(2.0)
    (first,) = tracer.spans("k")
    assert first.to_dict() == live.to_dict()
    first.attrs["a"] = 9
    first.end_ms = 0.0
    (again,) = tracer.spans("k")
    assert again is not first
    assert again.to_dict() == live.to_dict()


# ----------------------------------------------------------------------
# ring buffer
# ----------------------------------------------------------------------
def test_ring_evicts_oldest_and_counts(clock):
    tracer = Tracer(clock, capacity=4)
    for i in range(7):
        with tracer.span(f"k{i}"):
            clock.charge(1.0)
    assert len(tracer.ring) == 4
    assert tracer.ring.evicted == 3
    assert tracer.ring.pushed == 7
    assert [s.kind for s in tracer.ring] == ["k3", "k4", "k5", "k6"]


def test_summary_survives_ring_eviction(clock):
    tracer = Tracer(clock, capacity=2)
    for _ in range(10):
        with tracer.span("work"):
            clock.charge(1.0)
    assert tracer.summary()["work"]["count"] == 10
    assert tracer.summary()["work"]["total_ms"] == 10.0
    assert len(tracer.spans("work")) == 2


def test_ring_rejects_non_positive_capacity():
    with pytest.raises(ValueError):
        SpanRing(0)


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------
def test_histogram_stats_and_quantile():
    histogram = Histogram("h")
    for value in (0.5, 1.0, 2.0, 8.0):
        histogram.observe(value)
    assert histogram.count == 4
    assert histogram.total == 11.5
    assert histogram.min == 0.5
    assert histogram.max == 8.0
    assert histogram.mean == pytest.approx(2.875)
    assert histogram.quantile(1.0) >= 8.0
    with pytest.raises(ValueError):
        histogram.quantile(1.5)


def test_histogram_quantile_stays_inside_observed_range():
    histogram = Histogram("h")
    for value in (5.0, 6.0, 7.0):
        histogram.observe(value)
    assert histogram.quantile(0.0) == 5.0
    assert histogram.quantile(1.0) == 7.0
    assert all(5.0 <= histogram.quantile(q / 20) <= 7.0 for q in range(21))
    assert Histogram("empty").quantile(0.5) == 0.0


def test_histogram_default_bounds_cover_microseconds_to_seconds():
    assert DEFAULT_BUCKET_BOUNDS[0] == pytest.approx(0.001)
    assert DEFAULT_BUCKET_BOUNDS[-1] > 10_000


def test_registry_lazily_creates_and_clears():
    registry = MetricsRegistry()
    registry.histogram("h").observe(1.0)
    as_dict = registry.to_dict()
    assert as_dict["histograms"]["h"]["count"] == 1
    registry.clear()
    assert registry.to_dict() == {"histograms": {}}


def test_span_feeds_per_kind_histogram(tracer, clock):
    with tracer.span("stage"):
        clock.charge(7.0)
    assert tracer.registry.histogram("span_ms.stage").max == 7.0


# ----------------------------------------------------------------------
# export / reports
# ----------------------------------------------------------------------
def test_export_round_trips_through_json(tracer, clock, tmp_path):
    with tracer.span("outer", label="x"):
        clock.charge(1.0)
        with tracer.span("inner"):
            clock.charge(2.0)
    path = tmp_path / "trace.json"
    report = dump_report(tracer, str(path), {"things": 2},
                         experiment="unit")
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(report))
    assert loaded["meta"]["experiment"] == "unit"
    assert loaded["meta"]["virtual_now_ms"] == clock.now
    assert loaded["meta"]["spans_recorded"] == 2
    assert loaded["counters"]["things"] == 2
    kinds = [span["kind"] for span in loaded["spans"]]
    assert kinds == ["inner", "outer"]  # close order
    assert loaded["summary"]["outer"]["total_ms"] == 3.0


def test_format_summary_table(tracer, clock):
    with tracer.span("alpha"):
        clock.charge(2.0)
    text = tracer.format_summary()
    assert "stage" in text and "alpha" in text
    assert "2.0000" in text
    assert format_summary({}) == "(no spans recorded)"


def test_summary_sorted_by_total_descending(tracer, clock):
    with tracer.span("small"):
        clock.charge(1.0)
    with tracer.span("big"):
        clock.charge(9.0)
    assert list(tracer.summary()) == ["big", "small"]


def test_diff_summaries_handles_missing_kinds(tracer, clock):
    with tracer.span("a"):
        clock.charge(1.0)
    old = tracer.summary()
    with tracer.span("b"):
        clock.charge(2.0)
    diff = diff_summaries(old, tracer.summary())
    assert diff["a"]["total_ms"] == 0.0
    assert diff["b"]["total_ms"] == 2.0
    assert diff["b"]["count"] == 1


def test_reset_drops_history(tracer, clock):
    with tracer.span("x"):
        clock.charge(1.0)
    tracer.reset()
    assert tracer.spans() == []
    assert tracer.summary() == {}


# ----------------------------------------------------------------------
# the disabled path
# ----------------------------------------------------------------------
def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    with NULL_TRACER.span("anything", attr=1) as span:
        span.set(more=2)
    NULL_TRACER.event("e")


def test_null_tracer_allocates_nothing():
    first = NULL_TRACER.span("a")
    second = NULL_TRACER.span("b")
    assert first is second  # the shared singleton span
    assert first.set(x=1) is first


def test_format_counters_includes_flood_ratio():
    from repro.obs.report import format_counters

    text = format_counters({"net.bridge.forwarded": 8,
                            "net.bridge.flooded": 2})
    assert "net.bridge.flood_ratio" in text
    assert "0.2500" in text
    assert format_counters({}) == "(no counters recorded)"
