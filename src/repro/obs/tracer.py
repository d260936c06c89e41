"""The tracer: nested spans and span histograms over the virtual clock.

One :class:`Tracer` instance is shared by every layer of a platform
(hypervisor, xencloned, Xenstore, toolstack, device backends). Spans
nest through an explicit stack, so a second-stage span opened by
xencloned while the CLONEOP hypercall is in flight is recorded as a
child of the clone operation's span - the per-stage breakdowns of the
paper's Fig 6 fall directly out of this structure.

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


class _OpenSpan:
    """Context manager for one in-flight span of a real tracer."""

    __slots__ = ("_tracer", "_kind", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", kind: str,
                 attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._kind = kind
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span:
        # The body of Tracer._open, inlined: spans bracket the hottest
        # simulated paths, so entering one must cost a fixed handful of
        # calls. ``clock._now`` is the VirtualClock backing field (the
        # tracer is documented as keyed to a VirtualClock), and the Span
        # is built by direct slot assignment to skip the dataclass
        # ``__init__``'s keyword plumbing.
        tracer = self._tracer
        stack = tracer._stack
        span = self._span = Span.__new__(Span)
        span.kind = self._kind
        span.start_ms = tracer.clock._now
        span.span_id = tracer._next_id
        span.parent_id = stack[-1].span_id if stack else None
        span.depth = len(stack)
        span.end_ms = None
        span.children_ms = 0.0
        span.attrs = self._attrs
        tracer._next_id += 1
        stack.append(span)
        return span

    def __exit__(self, *exc_info: object) -> bool:
        self._tracer._close(self._span)
        return False

    def set(self, **attrs: Any) -> "_OpenSpan":
        """Attach attributes before (or instead of) entering."""
        self._attrs.update(attrs)
        return self


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
        self._stack: list[Span] = []
        self._next_id = 1
        #: Per-kind running aggregates, immune to ring eviction:
        #: kind -> [count, total_ms, self_ms, max_ms, histogram].
        self._agg: dict[str, list] = {}

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def span(self, kind: str, **attrs: Any) -> _OpenSpan:
        """A context manager recording one nested span of kind ``kind``."""
        return _OpenSpan(self, kind, attrs)

    def _close(self, span: Span | None) -> None:
        if span is None:  # pragma: no cover - defensive
            return
        now = self.clock._now
        span.end_ms = now
        # Unwind to (and including) this span; tolerate callers that
        # closed out of order by closing the intermediates too.
        stack = self._stack
        while stack:
            top = stack.pop()
            end = top.end_ms
            if end is None:
                end = top.end_ms = now
            duration = end - top.start_ms
            if stack:
                stack[-1].children_ms += duration
            self._record(top, duration)
            if top is span:
                break

    def _record(self, span: Span, duration: float | None = None) -> None:
        if duration is None:
            end = span.end_ms
            duration = 0.0 if end is None else end - span.start_ms
        ring = self.ring
        ring._spans.append(span)
        ring.pushed += 1
        agg = self._agg.get(span.kind)
        if agg is None:
            # The per-kind histogram rides along in the aggregate slot
            # so steady-state recording skips the registry lookup (and
            # its name formatting) entirely.
            agg = self._agg[span.kind] = [
                0, 0.0, 0.0, 0.0,
                self.registry.histogram(f"span_ms.{span.kind}")]
        agg[0] += 1
        agg[1] += duration
        self_ms = duration - span.children_ms
        agg[2] += self_ms if self_ms > 0.0 else 0.0
        if duration > agg[3]:
            agg[3] = duration
        agg[4].observe(duration)

    def event(self, kind: str, **attrs: Any) -> None:
        """Record an instantaneous (zero-duration) span."""
        now = self.clock._now
        stack = self._stack
        span = Span.__new__(Span)
        span.kind = kind
        span.start_ms = now
        span.span_id = self._next_id
        span.parent_id = stack[-1].span_id if stack else None
        span.depth = len(stack)
        span.end_ms = now
        span.children_ms = 0.0
        span.attrs = attrs
        self._next_id += 1
        self._record(span)

    # ------------------------------------------------------------------
    # introspection / export
    # ------------------------------------------------------------------
    def spans(self, kind: str | None = None) -> list[Span]:
        """Stored spans, optionally filtered by kind, oldest first."""
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
        for kind in sorted(self._agg, key=lambda k: -self._agg[k][1]):
            count, total, self_total, max_ms = self._agg[kind][:4]
            result[kind] = {
                "count": int(count),
                "total_ms": total,
                "self_ms": self_total,
                "mean_ms": total / count if count else 0.0,
                "max_ms": max_ms,
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
