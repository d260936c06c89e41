"""Per-domain guest memory: pfn space mapped onto machine extents.

A domain's pseudo-physical address space is a list of segments, each
mapping a contiguous pfn range onto a contiguous range of an
:class:`~repro.xen.frames.Extent`, sorted by start pfn. COW faults split
segments so that a segment is always either fully private or fully
shared.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import attrgetter

from repro.sim.intervals import IntervalSet
from repro.xen.errors import XenInvalidError, XenNoEntryError
from repro.xen.frames import PRIVATE_PAGE_TYPES, Extent, FrameTable, PageType


@dataclass
class CowStats:
    """Outcome of a write over possibly-shared memory."""

    copied: int = 0
    adopted: int = 0
    private: int = 0

    def merge(self, other: "CowStats") -> None:
        """Accumulate another outcome into this one."""
        self.copied += other.copied
        self.adopted += other.adopted
        self.private += other.private


class Segment:
    """Contiguous pfn range backed by a slice of one extent.

    Never mutated once built, so clones map their parent's shared
    segments by reference.
    """

    __slots__ = ("pfn_start", "npages", "extent", "extent_offset", "label")

    def __init__(self, pfn_start: int, npages: int, extent: Extent,
                 extent_offset: int = 0, label: str = "") -> None:
        self.pfn_start = pfn_start
        self.npages = npages
        self.extent = extent
        self.extent_offset = extent_offset
        self.label = label

    @property
    def pfn_end(self) -> int:
        return self.pfn_start + self.npages

    @property
    def shared(self) -> bool:
        return self.extent.shared

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Segment(pfn={self.pfn_start}..{self.pfn_end} "
            f"{'shared' if self.shared else 'private'} {self.label})"
        )


#: The bisection key of a segment list.
_pfn_start = attrgetter("pfn_start")


class GuestMemory:
    """The pseudo-physical memory map of one domain."""

    __slots__ = ("domid", "frames", "segments", "_next_pfn", "dirty",
                 "cow_copied_total", "cow_adopted_total")

    def __init__(self, domid: int, frame_table: FrameTable) -> None:
        self.domid = domid
        self.frames = frame_table
        #: Sorted by ``pfn_start``; ranges never overlap.
        self.segments: list[Segment] = []
        self._next_pfn = 0
        #: Pages written since the last :meth:`clear_dirty` (pfn intervals).
        self.dirty = IntervalSet()
        #: Lifetime COW counters.
        self.cow_copied_total = 0
        self.cow_adopted_total = 0

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    @property
    def total_pages(self) -> int:
        return sum(seg.npages for seg in self.segments)

    def private_pages(self) -> int:
        """Pages mapped from unshared extents."""
        return sum(seg.npages for seg in self.segments if not seg.shared)

    def shared_pages(self) -> int:
        """Pages mapped from COW/IDC-shared extents."""
        return sum(seg.npages for seg in self.segments if seg.shared)

    def populate(self, npages: int, page_type: PageType = PageType.NORMAL,
                 label: str = "") -> Segment:
        """Allocate fresh frames and append them to the pfn space."""
        extent = self.frames.alloc(self.domid, npages, page_type, label=label)
        segment = Segment(self._next_pfn, npages, extent, 0, label)
        self._next_pfn += npages
        self.segments.append(segment)
        return segment

    def populate_like(self, segment: Segment) -> Segment:
        """Allocate fresh frames for a private copy of ``segment`` (a
        parent's device area) and map them at its pfn range, under its
        label: a clone's layout is its parent's."""
        extent = self.frames.alloc(self.domid, segment.npages,
                                   segment.extent.page_type,
                                   label=segment.label)
        return self._insert(Segment(segment.pfn_start, segment.npages,
                                    extent, 0, segment.label))

    def adopt_segment(self, segment: Segment) -> Segment:
        """Map ``segment`` (e.g. a parent's shared segment) at its pfn
        range. Segments are never mutated (COW faults and retypes splice
        in new ones), so the object itself is shared, not copied."""
        return self._insert(segment)

    def _insert(self, segment: Segment) -> Segment:
        """Map ``segment`` at its pfn range, which must be unmapped."""
        index = bisect.bisect_left(self.segments, segment.pfn_start,
                                   key=_pfn_start)
        self.segments.insert(index, segment)
        self._next_pfn = max(self._next_pfn, segment.pfn_end)
        return segment

    def _splice(self, seg: Segment, pieces: list[Segment]) -> None:
        """Replace ``seg`` with ``pieces``."""
        i = bisect.bisect_left(self.segments, seg.pfn_start, key=_pfn_start)
        self.segments[i:i + 1] = pieces

    def find(self, pfn: int) -> tuple[Segment, int]:
        """Locate the segment covering ``pfn``; returns (segment, local index)."""
        i = bisect.bisect_right(self.segments, pfn, key=_pfn_start) - 1
        if i >= 0:
            seg = self.segments[i]
            if seg.pfn_start <= pfn < seg.pfn_end:
                return seg, pfn - seg.pfn_start
        raise XenNoEntryError(f"pfn {pfn} not mapped in domain {self.domid}")

    # ------------------------------------------------------------------
    # write / COW
    # ------------------------------------------------------------------
    def write_range(self, pfn: int, npages: int = 1) -> CowStats:
        """Simulate guest writes to ``[pfn, pfn+npages)``.

        Shared pages are copied (refcount > 1) or adopted (refcount == 1);
        private pages are written in place. Returns the per-page outcome
        so the caller can charge fault costs.
        """
        if npages <= 0:
            raise XenInvalidError(f"non-positive page count: {npages}")
        stats = CowStats()
        end = pfn + npages
        cursor = pfn
        while cursor < end:
            seg, local = self.find(cursor)
            span = min(end - cursor, seg.npages - local)
            extent = seg.extent
            if extent.shared and extent.refs.cow_protected:
                stats.merge(self._cow_segment_range(seg, local, span))
            else:
                stats.private += span
            self.dirty.add(cursor, span)
            cursor += span
        self.cow_copied_total += stats.copied
        self.cow_adopted_total += stats.adopted
        return stats

    def clear_dirty(self) -> int:
        """Reset dirty tracking; returns how many pages were dirty."""
        count = self.dirty.count
        self.dirty.clear()
        return count

    def _cow_segment_range(self, seg: Segment, local: int, span: int) -> CowStats:
        """COW ``span`` pages starting at segment-local index ``local``.

        Processes maximal runs of equal refcount; each run is copied
        (ref > 1) or adopted (ref == 1) in one frame-table operation.
        Splits invalidate the segment, so each run re-finds its segment
        by pfn.
        """
        stats = CowStats()
        start_pfn = seg.pfn_start + local
        offset = 0
        while offset < span:
            cur_seg, cur_local = self.find(start_pfn + offset)
            extent = cur_seg.extent
            index = cur_seg.extent_offset + cur_local
            limit = min(span - offset, cur_seg.npages - cur_local)
            ref, run = extent.ref_run(index, limit)
            if ref < 1:
                raise XenInvalidError(
                    f"write to dead shared page (pfn {start_pfn + offset})")
            if ref > 1:
                replacement = self.frames.cow_copy(extent, index, self.domid,
                                                   run)
                stats.copied += run
            else:
                replacement = self.frames.cow_adopt(extent, index,
                                                    self.domid, run)
                stats.adopted += run
            self._replace_range(cur_seg, cur_local, run, replacement)
            offset += run
        return stats

    def _replace_range(self, seg: Segment, local: int, span: int,
                       new_extent: Extent) -> None:
        """Split ``seg`` so pages ``[local, local+span)`` map ``new_extent``.

        NOTE: ``seg`` keeps referencing the shared extent only outside the
        replaced range; references inside it were already dropped by the
        frame table (cow_copy / cow_adopt).
        """
        pieces: list[Segment] = []
        if local > 0:
            pieces.append(Segment(seg.pfn_start, local, seg.extent,
                                  seg.extent_offset, seg.label))
        pieces.append(Segment(seg.pfn_start + local, span, new_extent, 0,
                              seg.label))
        tail = seg.npages - local - span
        if tail > 0:
            pieces.append(Segment(seg.pfn_start + local + span, tail, seg.extent,
                                  seg.extent_offset + local + span, seg.label))
        self._splice(seg, pieces)

    def retype_range(self, pfn: int, npages: int, page_type: PageType,
                     label: str = "") -> Segment:
        """Change the page type of ``[pfn, pfn+npages)``.

        The range must lie inside one private segment owned by this
        domain (e.g. carving an IDC shared area out of the heap). The
        backing extent is split; no frames move.
        """
        seg, local = self.find(pfn)
        if seg.shared:
            raise XenInvalidError("cannot retype shared memory")
        if local + npages > seg.npages:
            raise XenInvalidError(
                f"retype range [{pfn}, {pfn + npages}) crosses segment end")
        if seg.extent_offset != 0 or seg.npages != seg.extent.count:
            raise XenInvalidError(
                "retype requires a segment covering its whole extent")
        parts = [
            (local, seg.extent.page_type),
            (npages, page_type),
            (seg.npages - local - npages, seg.extent.page_type),
        ]
        pieces = self.frames.split_private(seg.extent, parts)
        # Rebuild the segment list: map each piece at its pfn.
        new_segments = []
        cursor = seg.pfn_start
        for piece in pieces:
            new_segments.append(Segment(cursor, piece.count, piece, 0,
                                        label if piece.page_type is page_type
                                        else seg.label))
            cursor += piece.count
        self._splice(seg, new_segments)
        for segment in new_segments:
            if segment.extent.page_type is page_type \
                    and segment.pfn_start == pfn:
                return segment
        raise XenInvalidError("retype produced no matching segment")

    # ------------------------------------------------------------------
    # cloning support
    # ------------------------------------------------------------------
    def shareable_segments(self) -> list[Segment]:
        """Segments eligible for COW sharing with clones (paper §4.1):
        everything except private page types."""
        return [
            seg for seg in self.segments
            if seg.extent.page_type not in PRIVATE_PAGE_TYPES
        ]

    def release(self) -> int:
        """Tear down the address space; returns frames actually freed."""
        freed = 0
        released: set[Extent] = set()
        for seg in self.segments:
            extent = seg.extent
            if extent.shared:
                freed += self.frames.drop_ref_range(
                    extent, seg.extent_offset, seg.npages
                )
            elif extent not in released:
                freed += self.frames.free_extent(extent)
                released.add(extent)
        self.segments.clear()
        self.dirty.clear()
        return freed
