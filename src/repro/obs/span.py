"""Spans: timed regions of virtual time, stored in a ring buffer.

A :class:`Span` is one named, possibly-nested region of the virtual
clock's timeline (``clone.first_stage``, ``boot.name_check``, ...).
Finished spans land in a fixed-capacity :class:`SpanRing`; when the ring
is full the *oldest* spans are evicted (and counted), so a long run
keeps its most recent history without unbounded memory growth.

The ring keeps no ``Span`` objects but one packed record per span, in
three columns: a ``bytearray`` of 48-byte numeric records (start, end
and ``children_ms`` as doubles; span id, parent id - 0 for none - and
depth as 64-bit ints), a list of kind strings, and a list of attributes,
``None`` when there are none, else one flat ``(*keys, *values)`` tuple.
A record holds about 112 B of heap where a ``Span`` with its floats, id
int and attribute dict held 313 B (3.11). Reading the ring (iteration,
:meth:`SpanRing.by_kind`) builds a fresh ``Span`` per record, equal to
the one that was recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from struct import Struct
from typing import Any, Iterable, Iterator

#: One record's numeric fields: start, end, children_ms, span id,
#: parent id (0 for none), depth.
_NUMBERS = Struct("3d3q")


@dataclass(slots=True)
class Span:
    """One finished (or still-open) timed region of virtual time.

    Durations are in virtual milliseconds. ``children_ms`` accumulates
    the durations of directly nested spans, so ``self_ms`` is the time
    attributable to this span alone - the number the per-stage
    breakdown tables report.
    """

    kind: str
    start_ms: float
    span_id: int
    parent_id: int | None = None
    depth: int = 0
    end_ms: float | None = None
    children_ms: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to this span; returns ``self`` for chaining.

        The disabled-tracer span exposes the same method, so
        instrumentation sites can set attributes unconditionally.
        """
        self.attrs.update(attrs)
        return self

    @property
    def duration_ms(self) -> float:
        """Inclusive duration (0.0 while the span is still open)."""
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    @property
    def self_ms(self) -> float:
        """Exclusive duration: inclusive minus directly nested spans."""
        return max(0.0, self.duration_ms - self.children_ms)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (used by trace export)."""
        return {
            "kind": self.kind,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "duration_ms": self.duration_ms,
            "self_ms": self.self_ms,
            "attrs": dict(self.attrs),
        }


class SpanRing:
    """Fixed-capacity FIFO store for finished spans, as packed records.

    Mirrors the clone notification ring's shape, but with overwrite
    semantics: tracing must never stall the traced system, so a full
    ring silently evicts the oldest span and bumps ``evicted``. The
    columns grow, exactly sized, until they hold ``capacity`` records;
    from then on each record overwrites the oldest slot.
    """

    def __init__(self, capacity: int = 16384) -> None:
        if capacity <= 0:
            raise ValueError(f"non-positive span ring capacity: {capacity}")
        self.capacity = capacity
        self.clear()

    def __len__(self) -> int:
        return min(self.pushed, self.capacity)

    def __iter__(self) -> Iterator[Span]:
        return map(self._span, self._order())

    @property
    def evicted(self) -> int:
        """How many spans were overwritten by newer ones."""
        return self.pushed - len(self)

    def push(self, span: Span) -> None:
        """Record a finished span (evicting the oldest when full)."""
        self.write(span.kind, span.start_ms, span.end_ms, span.children_ms,
                   span.span_id, span.parent_id, span.depth, span.attrs)

    def write(self, kind: str, start_ms: float, end_ms: float,
              children_ms: float, span_id: int, parent_id: int | None,
              depth: int, attrs: dict[str, Any]) -> None:
        """Record a finished span given as fields (the tracer's path:
        it holds the fields, so it builds no ``Span`` to take apart)."""
        slot = self._slot
        if slot == self._room:
            self._grow()
        _NUMBERS.pack_into(self._numbers, slot * _NUMBERS.size, start_ms,
                           end_ms, children_ms, span_id, parent_id or 0,
                           depth)
        self._kinds[slot] = kind
        # Probes pass one or two attributes; unpacking those is about
        # twice as fast as the general flattening.
        if not attrs:
            packed = None
        elif len(attrs) == 1:
            key, = attrs
            packed = (key, attrs[key])
        elif len(attrs) == 2:
            key, other = attrs
            packed = (key, other, attrs[key], attrs[other])
        else:
            packed = (*attrs, *attrs.values())
        self._attrs[slot] = packed
        slot += 1
        self._slot = 0 if slot == self.capacity else slot
        self.pushed += 1

    def clear(self) -> None:
        """Drop all stored spans (the eviction counter resets too)."""
        self.pushed = 0
        #: The slot the next record goes to, and the slots allocated.
        self._slot = 0
        self._room = 0
        self._numbers = bytearray()
        self._kinds: list[str | None] = []
        self._attrs: list[tuple | None] = []

    def by_kind(self, kind: str) -> list[Span]:
        """All stored spans of one kind, oldest first."""
        kinds = self._kinds
        return [self._span(slot) for slot in self._order()
                if kinds[slot] == kind]

    def kinds(self) -> set[str]:
        """The distinct span kinds currently stored."""
        return set(self._kinds[:len(self)])

    def _order(self) -> Iterable[int]:
        """Occupied slots, oldest record first."""
        if self.pushed <= self.capacity:
            return range(self.pushed)
        return chain(range(self._slot, self.capacity), range(self._slot))

    def _span(self, slot: int) -> Span:
        start, end, children, span_id, parent_id, depth = (
            _NUMBERS.unpack_from(self._numbers, slot * _NUMBERS.size))
        packed = self._attrs[slot]
        if packed is None:
            attrs = {}
        else:
            half = len(packed) // 2
            attrs = dict(zip(packed[:half], packed[half:]))
        return Span(self._kinds[slot], start, span_id, parent_id or None,
                    depth, end, children, attrs)

    def _grow(self) -> None:
        """Double the columns (at least 64 slots, at most ``capacity``).

        In place: growing a ``bytearray`` or list by more than an eighth
        allocates exactly the new size, so full columns carry no slack
        and no second copy of the ring is ever alive.
        """
        room = self._room
        extra = min(max(room, 64), self.capacity - room)
        self._numbers += bytes(_NUMBERS.size * extra)
        self._kinds += [None] * extra
        self._attrs += [None] * extra
        self._room = room + extra
