"""Direct paging and the p2m map.

Paravirtualized Xen guests use *direct paging*: their page tables map
guest-virtual addresses straight to machine addresses, and a separate
physical-to-machine (p2m) array records guest-physical -> machine
mappings for migration and cloning (paper §5.2). Both structures are
private memory: a clone gets freshly built copies, and prior work (and
Fig 6) shows this per-entry work dominates clone latency for large
guests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xen.frames import Extent, FrameTable, PageType

#: 8-byte entries in a 4 KiB page.
ENTRIES_PER_PAGE = 512


def page_table_pages(guest_pages: int) -> int:
    """Frames needed for a 4-level x86-64 page table covering ``guest_pages``."""
    if guest_pages <= 0:
        return 0
    total = 0
    level_entries = guest_pages
    for level in range(4):
        level_pages = max(1, (level_entries + ENTRIES_PER_PAGE - 1) // ENTRIES_PER_PAGE)
        total += level_pages
        level_entries = level_pages
        if level_pages == 1:
            # Upper levels collapse to one page each once a level fits.
            total += 4 - (level + 1)
            break
    return total


def p2m_pages(guest_pages: int) -> int:
    """Frames holding the p2m array (one 8-byte entry per guest page)."""
    if guest_pages <= 0:
        return 0
    return max(1, (guest_pages + ENTRIES_PER_PAGE - 1) // ENTRIES_PER_PAGE)


@dataclass
class PagingState:
    """A domain's page-table and p2m frames."""

    __slots__ = ("guest_pages", "pt_extent", "p2m_extent")

    guest_pages: int
    pt_extent: Extent
    p2m_extent: Extent

    @property
    def pt_pages(self) -> int:
        return self.pt_extent.count

    @property
    def p2m_pages(self) -> int:
        return self.p2m_extent.count

    @property
    def total_entries(self) -> int:
        """Entries that must be written to clone this paging state.

        One PTE per guest page (leaf level dominates) plus one p2m entry
        per guest page.
        """
        return 2 * self.guest_pages


def build_paging(frames: FrameTable, domid: int,
                 guest_pages: int) -> PagingState:
    """Allocate page-table and p2m frames for a domain."""
    pt = frames.alloc(domid, page_table_pages(guest_pages),
                      PageType.PAGE_TABLE, label="pt")
    try:
        p2m = frames.alloc(domid, p2m_pages(guest_pages), PageType.P2M,
                           label="p2m")
    except Exception:
        # ENOMEM between the two allocations: nothing references the pt
        # extent yet (PagingState is never built), so free it here or it
        # leaks past every domain-level unwind path.
        frames.free_extent(pt)
        raise
    return PagingState(guest_pages=guest_pages, pt_extent=pt, p2m_extent=p2m)


def release_paging(frames: FrameTable, paging: PagingState) -> int:
    """Free a domain's paging frames; returns the number freed."""
    freed = frames.free_extent(paging.pt_extent)
    freed += frames.free_extent(paging.p2m_extent)
    return freed
