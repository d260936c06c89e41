"""Sorted, coalescing integer interval set.

Used for dirty-page tracking: guests may touch millions of pages, so
per-page sets are too heavy; runs of pages coalesce into intervals.
"""

from __future__ import annotations

import bisect
from typing import Iterator


class IntervalSet:
    """Set of non-overlapping half-open integer intervals ``[start, end)``.

    The intervals are one flat sorted tuple of bounds, ``(start0, end0,
    start1, end1, ...)``, coalesced so that no two touch: a value lies
    in the set iff an odd number of bounds are at or below it. An empty
    set holds the shared ``()`` and one interval a two-slot tuple, where
    two lists of starts and ends held 176 B; sets stay small (writes are
    contiguous ranges and runs coalesce), so rebuilding the tuple on an
    add costs what an insertion into a list did.
    """

    __slots__ = ("_bounds", "_count")

    def __init__(self) -> None:
        self._bounds: tuple[int, ...] = ()
        self._count = 0

    @property
    def count(self) -> int:
        """Total number of integers covered."""
        return self._count

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def add(self, start: int, length: int = 1) -> int:
        """Add ``[start, start+length)``; returns how many were newly added."""
        if length <= 0:
            return 0
        bounds = self._bounds
        end = start + length
        inside = bisect.bisect_right(bounds, start)
        # Fast path: the range sits entirely inside one existing
        # interval — the steady state for repeated writes to the same
        # buffer (IDC areas, clone COW touches).
        if inside & 1 and end <= bounds[inside]:
            return 0
        # Every interval overlapping or touching [start, end) is replaced
        # by their union: bounds[lo:hi] is whole intervals.
        lo = bisect.bisect_left(bounds, start)
        hi = bisect.bisect_right(bounds, end)
        new_start = bounds[lo - 1] if lo & 1 else start
        new_end = bounds[hi] if hi & 1 else end
        lo -= lo & 1
        hi += hi & 1
        removed = sum(bounds[i + 1] - bounds[i] for i in range(lo, hi, 2))
        self._bounds = bounds[:lo] + (new_start, new_end) + bounds[hi:]
        added = (new_end - new_start) - removed
        self._count += added
        return added

    def contains(self, value: int) -> bool:
        """Is ``value`` covered by any interval?"""
        return bool(bisect.bisect_right(self._bounds, value) & 1)

    def overlap(self, start: int, length: int) -> int:
        """How many integers of ``[start, start+length)`` are covered."""
        if length <= 0:
            return 0
        end = start + length
        bounds = self._bounds
        total = 0
        i = bisect.bisect_right(bounds, start)
        i -= i & 1
        while i < len(bounds) and bounds[i] < end:
            lo = max(bounds[i], start)
            hi = min(bounds[i + 1], end)
            if hi > lo:
                total += hi - lo
            i += 2
        return total

    def clear(self) -> None:
        """Drop every interval."""
        self._bounds = ()
        self._count = 0

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """Yield ``(start, end)`` pairs in ascending order."""
        bounds = self._bounds
        return iter(zip(bounds[0::2], bounds[1::2]))
