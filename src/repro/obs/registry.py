"""The span-duration histogram registry.

Histograms record distributions of virtual-time span durations with
power-of-four buckets. They are name-keyed and created lazily on first
touch, following the standardized-instrumentation model of gem5's stats
framework: the same registry shape for every run, so reports diff
cleanly. Event counts are not kept here: each component counts its own
events, and :func:`repro.metrics.counters` reads them.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any


#: Upper bounds of the histogram buckets (virtual ms); the last bucket
#: is open-ended. Powers of four cover 1 us .. ~70 s.
DEFAULT_BUCKET_BOUNDS = tuple(0.001 * (4 ** i) for i in range(13))


class Histogram:
    """A fixed-bucket histogram of observed values (virtual ms).

    Tracks count / sum / min / max exactly and the distribution
    approximately (bucket counts), which is enough for the per-stage
    latency tables and for run-report diffing.
    """

    __slots__ = ("name", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets = [0] * (len(DEFAULT_BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # First bound >= value, or len(bounds) for the open-ended last
        # bucket — which is exactly buckets[len(bounds)].
        self.buckets[bisect_left(DEFAULT_BUCKET_BOUNDS, value)] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket counts, inside the
        observed range.

        ``q`` = 0 and 1 give the exact min and max. In between, the
        result is the upper bound of the bucket holding the ``q``-th
        observation, clamped to ``[min, max]`` (so the open-ended last
        bucket, or a bucket bound above every observation, gives the
        exact max). 0.0 when nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets[:-1]):
            seen += n
            if seen >= target:
                return min(max(DEFAULT_BUCKET_BOUNDS[i], self.min),
                           self.max)
        return self.max

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "name": self.name,
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "bounds": list(DEFAULT_BUCKET_BOUNDS),
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Lazily-created, name-keyed histograms."""

    def __init__(self) -> None:
        self.histograms: dict[str, Histogram] = {}

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name)
        return histogram

    def clear(self) -> None:
        """Drop all histograms."""
        self.histograms.clear()

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation, sorted by name for stable diffs."""
        return {
            "histograms": {name: h.to_dict()
                           for name, h in sorted(self.histograms.items())},
        }
