"""The memory-cloning probe of Fig 6 (paper §6.2).

"The application allocates a chunk of memory that must be resident
... Once the required memory is allocated, the application starts a
simple TCP server that receives requests for forking/cloning." The
Unikraft build uses the tinyalloc allocator; the Linux build runs the
same logic as a process.
"""

from __future__ import annotations

from repro.guest.api import GuestAPI, Region
from repro.guest.app import GuestApp
from repro.net.packets import Packet

#: The control port the fork/clone trigger server listens on.
CONTROL_PORT = 7000


class MemhogApp(GuestApp):
    """Allocate a resident chunk; clone on request."""

    image_name = "unikraft-memhog"

    def __init__(self, alloc_bytes: int) -> None:
        self.alloc_bytes = alloc_bytes
        self.region: Region | None = None
        self.clones_triggered = 0
        self.last_clone_domids: list[int] = []
        #: The guest API the trigger server forks through (set by
        #: ``main``/``on_cloned``).
        self._api: GuestAPI | None = None

    def main(self, api: GuestAPI) -> None:
        """Allocate the resident chunk; start the trigger server."""
        # tinyalloc returns touched, resident memory.
        self.region = api.alloc(self.alloc_bytes, touch=True)
        self._api = api
        api.udp_bind(CONTROL_PORT, self._control)

    def on_cloned(self, api: GuestAPI, child_index: int) -> None:
        """The clone's trigger server forks the clone."""
        self._api = api

    def _control(self, packet: Packet) -> None:
        if packet.payload == "fork":
            self.trigger_clone(self._api)

    def trigger_clone(self, api: GuestAPI) -> list[int]:
        """The fork/clone request handler; returns child domids."""
        self.clones_triggered += 1
        self.last_clone_domids = api.fork(1)
        return self.last_clone_domids

    def clone_for_child(self) -> "MemhogApp":
        """Child state: same region handle (identical pfn layout)."""
        child = MemhogApp(self.alloc_bytes)
        child.region = self.region  # same pfn layout in the clone
        return child

    def dirty_fraction(self, api: GuestAPI, fraction: float) -> int:
        """Touch a fraction of the allocated chunk (COW-faults shared
        pages); returns pages touched."""
        if self.region is None:
            raise RuntimeError("memhog not initialized")
        npages = max(1, int(self.region.npages * fraction))
        api.touch(self.region, npages=npages)
        return npages
