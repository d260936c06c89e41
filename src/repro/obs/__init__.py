"""Observability for the Nephele simulation: spans and run reports.

The clone path of the paper is a time claim - Fig 4's boot-vs-clone gap
and Fig 6's first-/second-stage split are both statements about where
virtual milliseconds go. This package records exactly that: a
:class:`~repro.obs.tracer.Tracer` produces nested spans keyed to the
virtual clock and per-kind span-duration histograms, and
:mod:`repro.obs.report` turns them into tables and diffable JSON run
reports. When tracing is off, every probe routes to
:data:`~repro.obs.tracer.NULL_TRACER` and costs one no-op method call.

Event counts (Xenstore requests, pages shared, faults injected, ...)
are not kept here. Each is a plain int of the component that does the
work, counted whether or not tracing is on, and
:func:`repro.metrics.counters` is the one place that names them for a
run report.

Span taxonomy (dotted, layer-first):

- ``sim.*`` - engine event dispatch
- ``clone.*`` - CLONEOP hypercall phases and the second stage
  (``clone.op``, ``clone.first_stage``, ``clone.second_stage.xenstore``, ...)
- ``boot.*`` - ``xl create`` phases (``boot.name_check``, ``boot.devices``, ...)
- ``xl.*`` - other toolstack verbs (destroy/save/restore)
- ``xenstore.*`` - daemon-side events (log rotation)
- ``vif.*`` / ``p9.*`` - device backend setup and clone shortcuts
"""

from repro.obs.registry import (
    DEFAULT_BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.report import (
    diff_summaries,
    dump_report,
    format_summary,
    run_report,
)
from repro.obs.span import Span, SpanRing
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "DEFAULT_BUCKET_BOUNDS",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanRing",
    "Tracer",
    "diff_summaries",
    "dump_report",
    "format_summary",
    "run_report",
]
