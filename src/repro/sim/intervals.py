"""Sorted, coalescing integer interval set.

Used for dirty-page tracking: guests may touch millions of pages, so
per-page sets are too heavy; runs of pages coalesce into intervals.
"""

from __future__ import annotations

import bisect
from typing import Iterator


class IntervalSet:
    """Set of non-overlapping half-open integer intervals ``[start, end)``."""

    __slots__ = ("_starts", "_ends", "_count")

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []
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
        end = start + length
        # Find all intervals overlapping or adjacent to [start, end).
        lo = bisect.bisect_left(self._ends, start)
        # Fast path: the range sits entirely inside one existing
        # interval — the steady state for repeated writes to the same
        # buffer (IDC areas, clone COW touches). No list surgery.
        if (lo < len(self._starts) and self._starts[lo] <= start
                and end <= self._ends[lo]):
            return 0
        hi = bisect.bisect_right(self._starts, end)
        new_start, new_end = start, end
        removed = 0
        for i in range(lo, hi):
            new_start = min(new_start, self._starts[i])
            new_end = max(new_end, self._ends[i])
            removed += self._ends[i] - self._starts[i]
        del self._starts[lo:hi]
        del self._ends[lo:hi]
        self._starts.insert(lo, new_start)
        self._ends.insert(lo, new_end)
        added = (new_end - new_start) - removed
        self._count += added
        return added

    def contains(self, value: int) -> bool:
        """Is ``value`` covered by any interval?"""
        i = bisect.bisect_right(self._starts, value) - 1
        return i >= 0 and value < self._ends[i]

    def overlap(self, start: int, length: int) -> int:
        """How many integers of ``[start, start+length)`` are covered."""
        if length <= 0:
            return 0
        end = start + length
        total = 0
        i = bisect.bisect_right(self._starts, start) - 1
        if i < 0:
            i = 0
        while i < len(self._starts) and self._starts[i] < end:
            lo = max(self._starts[i], start)
            hi = min(self._ends[i], end)
            if hi > lo:
                total += hi - lo
            i += 1
        return total

    def clear(self) -> None:
        """Drop every interval."""
        self._starts.clear()
        self._ends.clear()
        self._count = 0

    def __iter__(self) -> Iterator[tuple[int, int]]:
        """Yield ``(start, end)`` pairs in ascending order."""
        return iter(zip(self._starts, self._ends))
