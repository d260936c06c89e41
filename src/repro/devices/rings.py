"""Shared rings between frontend and backend drivers.

Rings are guest pages granted to the backend. On cloning, Nephele
decides per device type whether a clone's ring is copied from the
parent (network: contents are tied to in-flight guest state) or created
fresh (console: duplicating the parent's output would hinder debugging)
— paper §4.2.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.xen.domain import Domain
from repro.xen.frames import PageType


class SharedRing:
    """One shared ring: guest pages plus in-flight entries.

    ``entries`` is an empty tuple until the first push and a deque from
    then on: a deque reserves a 64-slot block even when empty, and a
    clone fleet's rings are almost all idle.
    """

    __slots__ = ("domain", "npages", "label", "page_type", "extent",
                 "entries")

    def __init__(self, domain: Domain, npages: int, label: str,
                 page_type: PageType = PageType.IO_RING) -> None:
        self.domain = domain
        self.npages = npages
        self.label = label
        self.page_type = page_type
        self.extent = domain.populate_ram(npages, page_type, label=label)
        self.entries: deque[Any] | tuple = ()

    def push(self, entry: Any) -> None:
        """Producer side: enqueue an entry."""
        entries = self.entries
        if entries.__class__ is tuple:
            entries = self.entries = deque()
        entries.append(entry)

    def pop(self) -> Any:
        """Consumer side: dequeue the oldest entry."""
        entries = self.entries
        if not entries:
            raise IndexError("pop from an empty ring")
        return entries.popleft()

    def __len__(self) -> int:
        return len(self.entries)

    def clone_for(self, child: Domain, copy_contents: bool) -> "SharedRing":
        """Create the clone's ring.

        ``copy_contents=True`` replicates in-flight entries (network
        rings); ``False`` yields an empty ring (console).
        """
        ring = SharedRing(child, self.npages, self.label, self.page_type)
        if copy_contents and self.entries:
            ring.entries = deque(self.entries)
        return ring
