"""Run reports: the per-stage breakdown table and JSON trace export.

A *run report* is the machine-readable dump of one traced run - every
stored span, every span-duration histogram, the per-kind summary and
the platform's event counters - shaped for diffing: keys are sorted,
floats are virtual-clock-derived (hence deterministic for a fixed
seed), and nothing in it depends on host wall-clock. Benchmarks store
a report per run and compare stage totals across commits with
:func:`diff_summaries`.
"""

from __future__ import annotations

import json
from typing import Any

_COLUMNS = ("count", "total_ms", "self_ms", "mean_ms", "max_ms")


def format_summary(summary: dict[str, dict[str, float]]) -> str:
    """Render a ``Tracer.summary()`` mapping as an aligned text table.

    Rows arrive sorted by total time (the summary dict preserves that
    order); the table is what ``repro trace`` and ``trace_report()``
    print.
    """
    if not summary:
        return "(no spans recorded)"
    width = max(len("stage"), *(len(kind) for kind in summary))
    header = (f"{'stage':<{width}}  {'count':>7}  {'total ms':>12}  "
              f"{'self ms':>12}  {'mean ms':>10}  {'max ms':>10}")
    lines = [header, "-" * len(header)]
    for kind, row in summary.items():
        lines.append(
            f"{kind:<{width}}  {row['count']:>7d}  {row['total_ms']:>12.4f}  "
            f"{row['self_ms']:>12.4f}  {row['mean_ms']:>10.4f}  "
            f"{row['max_ms']:>10.4f}")
    return "\n".join(lines)


def format_counters(counters: dict[str, int]) -> str:
    """Render event counters as an aligned table.

    Datapath health shows up here: ``net.bridge.flooded`` over
    ``net.bridge.forwarded`` (the flood ratio) tells how much traffic
    missed the MAC table, and ``net.bridge.flood_filtered`` counts the
    deliveries the per-port pre-filters short-circuited.
    """
    if not counters:
        return "(no counters recorded)"
    rows: list[tuple[str, str]] = [
        (name, str(value)) for name, value in sorted(counters.items())]
    forwarded = counters.get("net.bridge.forwarded", 0)
    if forwarded:
        ratio = counters.get("net.bridge.flooded", 0) / forwarded
        rows.append(("net.bridge.flood_ratio", f"{ratio:.4f}"))
    width = max(len("counter"), *(len(name) for name, _ in rows))
    header = f"{'counter':<{width}}  {'value':>12}"
    lines = [header, "-" * len(header)]
    for name, value in rows:
        lines.append(f"{name:<{width}}  {value:>12}")
    return "\n".join(lines)


def run_report(tracer: Any, counters: dict[str, int] | None = None,
               **meta: Any) -> dict[str, Any]:
    """Build the full JSON-serializable report for one tracer.

    ``counters`` is the run's event-counter map, normally
    :func:`repro.metrics.counters` of the traced platform; the tracer
    itself counts nothing. ``meta`` entries (experiment name, instance
    count, seed, ...) are embedded under ``"meta"`` next to trace
    bookkeeping.
    """
    host = getattr(tracer, "host", "")
    return {
        "meta": {
            "virtual_now_ms": tracer.clock.now,
            "spans_recorded": len(tracer.ring),
            "spans_evicted": tracer.ring.evicted,
            **({"host": host} if host else {}),
            **meta,
        },
        "summary": tracer.summary(),
        "spans": [span.to_dict() for span in tracer.ring],
        "counters": dict(counters or {}),
        **tracer.registry.to_dict(),
    }


def dump_report(tracer: Any, path: str,
                counters: dict[str, int] | None = None,
                **meta: Any) -> dict[str, Any]:
    """Write :func:`run_report` to ``path`` as JSON; return the report."""
    report = run_report(tracer, counters, **meta)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def diff_summaries(old: dict[str, dict[str, float]],
                   new: dict[str, dict[str, float]],
                   ) -> dict[str, dict[str, float]]:
    """Per-stage deltas between two summaries (``new`` minus ``old``).

    Stages present in only one run appear with the other side treated
    as zero, so regressions from *new* stages are visible too.
    """
    diff: dict[str, dict[str, float]] = {}
    zero = {col: 0.0 for col in _COLUMNS}
    for kind in sorted(set(old) | set(new)):
        before = old.get(kind, zero)
        after = new.get(kind, zero)
        diff[kind] = {col: after[col] - before[col] for col in _COLUMNS}
    return diff
