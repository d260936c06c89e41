"""The tracer: nested spans and span histograms over the virtual clock.

One :class:`Tracer` instance is shared by every layer of a platform
(hypervisor, xencloned, Xenstore, toolstack, device backends). Spans
nest through an explicit stack, so a second-stage span opened by
xencloned while the CLONEOP hypercall is in flight is recorded as a
child of the clone operation's span - the per-stage breakdowns of the
paper's Fig 6 fall directly out of this structure.

Tracing is cheap enough to leave on. A probe allocates one object, the
open span (its own context manager), besides its keyword dict; an
event allocates none. A finished span is packed into the
:class:`~repro.obs.span.SpanRing` (no ``Span`` is kept), and each kind
keeps one running aggregate, its self-time total, beside the
``span_ms.<kind>`` histogram that holds its count, total and max.

Tracing must cost (virtually) nothing when off: the module-level
:data:`NULL_TRACER` implements the same surface as no-op methods
returning a shared singleton span, so instrumented hot paths run a
single dynamic dispatch per probe and allocate nothing.
"""

from __future__ import annotations

from typing import Any

from repro.obs.registry import MetricsRegistry
from repro.obs.span import Span, SpanRing


class _NullSpan:
    """The shared do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        """Discard attributes (tracing is disabled)."""
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every probe is a no-op.

    Instrumentation sites call straight into these methods without
    checking a flag first; the cost of a disabled probe is one method
    call and zero allocations.
    """

    __slots__ = ()

    enabled = False

    def span(self, kind: str, **attrs: Any) -> _NullSpan:
        """Return the shared no-op span."""
        return _NULL_SPAN

    def event(self, kind: str, **attrs: Any) -> None:
        """Discard an instantaneous event."""


#: The process-wide disabled tracer. Components default to this, so an
#: untraced platform never touches the clock or allocates span state.
NULL_TRACER = NullTracer()


class _OpenSpan(Span):
    """One in-flight span of a real tracer, and its own context manager.

    :meth:`Tracer.span` builds it, so a probe allocates this one object
    (plus its keyword dict). On exit its fields, attributes included,
    are packed into the tracer's ring and the object is left to the
    caller, closed: attributes set after that are not recorded.
    """

    __slots__ = ("_tracer",)

    def __enter__(self) -> "_OpenSpan":
        # Spans bracket the hottest simulated paths, so entering one
        # must cost a fixed handful of operations. ``clock._now`` is the
        # VirtualClock backing field (the tracer is documented as keyed
        # to a VirtualClock).
        tracer = self._tracer
        stack = tracer._stack
        self.start_ms = tracer.clock._now
        self.span_id = tracer._next_id
        self.parent_id = stack[-1].span_id if stack else None
        self.depth = len(stack)
        tracer._next_id += 1
        stack.append(self)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        tracer = self._tracer
        now = tracer.clock._now
        self.end_ms = now
        # Unwind to (and including) this span; tolerate callers that
        # closed out of order by closing the intermediates too.
        stack = tracer._stack
        while stack:
            top = stack.pop()
            end = top.end_ms
            if end is None:
                end = top.end_ms = now
            start = top.start_ms
            if stack:
                stack[-1].children_ms += end - start
            tracer._record(top.kind, start, end, top.children_ms,
                           top.span_id, top.parent_id, top.depth, top.attrs)
            if top is self:
                break
        return False


class Tracer:
    """Span and span-duration histogram recorder keyed to a virtual clock.

    All timestamps are read from the platform's
    :class:`~repro.sim.clock.VirtualClock`, so spans measure *simulated*
    cost, deterministically, independent of host wall-clock jitter -
    two runs with the same seed export byte-identical traces.
    """

    enabled = True

    def __init__(self, clock: Any, capacity: int = 16384,
                 host: str = "") -> None:
        self.clock = clock
        #: Host identity for fleet runs: stamped into exported reports
        #: and summaries so spans from different member hosts stay
        #: attributable after aggregation. Empty for standalone hosts.
        self.host = host
        self.ring = SpanRing(capacity)
        self.registry = MetricsRegistry()
        self._stack: list[_OpenSpan] = []
        self._next_id = 1
        #: Per-kind running aggregates, immune to ring eviction:
        #: kind -> [self_ms, histogram]. The ``span_ms.<kind>`` histogram
        #: holds the count, total and max.
        self._agg: dict[str, list] = {}

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def span(self, kind: str, **attrs: Any) -> _OpenSpan:
        """A context manager recording one nested span of kind ``kind``."""
        span = _OpenSpan.__new__(_OpenSpan)
        span._tracer = self
        span.kind = kind
        span.attrs = attrs
        span.end_ms = None
        span.children_ms = 0.0
        return span

    def _record(self, kind: str, start_ms: float, end_ms: float,
                children_ms: float, span_id: int, parent_id: int | None,
                depth: int, attrs: dict[str, Any]) -> None:
        self.ring.write(kind, start_ms, end_ms, children_ms, span_id,
                        parent_id, depth, attrs)
        agg = self._agg.get(kind)
        if agg is None:
            # The per-kind histogram rides along in the aggregate slot
            # so steady-state recording skips the registry lookup (and
            # its name formatting) entirely.
            agg = self._agg[kind] = [
                0.0, self.registry.histogram(f"span_ms.{kind}")]
        duration = end_ms - start_ms
        self_ms = duration - children_ms
        if self_ms > 0.0:
            agg[0] += self_ms
        agg[1].observe(duration)

    def event(self, kind: str, **attrs: Any) -> None:
        """Record an instantaneous (zero-duration) span."""
        now = self.clock._now
        stack = self._stack
        span_id = self._next_id
        self._next_id = span_id + 1
        self._record(kind, now, now, 0.0, span_id,
                     stack[-1].span_id if stack else None, len(stack),
                     attrs)

    # ------------------------------------------------------------------
    # introspection / export
    # ------------------------------------------------------------------
    def spans(self, kind: str | None = None) -> list[Span]:
        """Stored spans, optionally filtered by kind, oldest first.

        Each call builds fresh ``Span`` objects from the ring's packed
        records; changing one changes nothing recorded.
        """
        if kind is None:
            return list(self.ring)
        return self.ring.by_kind(kind)

    def kinds(self) -> set[str]:
        """Every span kind seen so far (including evicted ones)."""
        return set(self._agg)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-kind aggregate: count, total/self/mean/max virtual ms.

        Built from running aggregates, so it stays exact even after the
        span ring has started evicting old spans.
        """
        result: dict[str, dict[str, float]] = {}
        agg = self._agg
        for kind in sorted(agg, key=lambda k: -agg[k][1].total):
            self_total, histogram = agg[kind]
            count = histogram.count
            total = histogram.total
            result[kind] = {
                "count": count,
                "total_ms": total,
                "self_ms": self_total,
                "mean_ms": total / count,
                "max_ms": histogram.max,
            }
        return result

    def format_summary(self) -> str:
        """The per-stage breakdown table (see :mod:`repro.obs.report`)."""
        from repro.obs.report import format_summary

        return format_summary(self.summary())

    def export(self, **meta: Any) -> dict[str, Any]:
        """The machine-readable run report of the spans (JSON-ready).

        Its ``counters`` section is empty: event counts are component
        state, which :func:`repro.metrics.counters` reads for
        :func:`~repro.obs.report.run_report`.
        """
        from repro.obs.report import run_report

        return run_report(self, **meta)

    def reset(self) -> None:
        """Drop all recorded spans and histograms (open spans survive)."""
        self.ring.clear()
        self.registry.clear()
        self._agg.clear()
