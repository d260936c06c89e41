"""The unikernel VM: image + kernel + app glued to a domain."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.devices.console import ConsoleFrontend
from repro.devices.vif import NetFrontend
from repro.guest.api import GuestAPI
from repro.guest.image import IMAGES, UnikernelImage
from repro.net.packets import Packet
from repro.xen.domain import Domain, DomainState

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.app import GuestApp


def default_mac(domid: int, index: int) -> str:
    """The Xen-prefixed MAC xl generates when the config omits one."""
    return f"00:16:3e:00:{domid % 256:02x}:{index:02x}"


class UnikernelVM:
    """Guest kernel wrapper living on a domain."""

    #: Kernel data/stack pages a resumed clone dirties before running
    #: application code (timers, netfront state, stack frames). Part of
    #: the ~1.4 MiB per-clone private memory of Fig 5.
    RESUME_DIRTY_PAGES = 28

    def __init__(self, platform: Any, domain: Domain, image: UnikernelImage,
                 app: "GuestApp | None" = None) -> None:
        self.platform = platform
        self.domain = domain
        self.image = image
        self.app = app
        self.udp_handlers: dict[int, Any] = {}
        self._api: GuestAPI | None = None
        # tinyalloc heap: a pfn range carved out of guest RAM at boot.
        self.kernel_pages = 0
        self.heap_base_pfn = 0
        self.heap_npages = 0
        self.heap_cursor = 0
        domain.guest = self

    @classmethod
    def from_config(cls, platform: Any, domain: Domain,
                    app: "GuestApp | None" = None) -> "UnikernelVM":
        image = IMAGES[domain.config.kernel] if domain.config.kernel in IMAGES \
            else IMAGES["minios-udp"]
        return cls(platform, domain, image, app)

    @property
    def api(self) -> GuestAPI:
        if self._api is None:
            self._api = GuestAPI(self)
        return self._api

    # ------------------------------------------------------------------
    # boot path
    # ------------------------------------------------------------------
    def load(self, restored: bool = False) -> None:
        """Load the kernel image and create device frontends.

        ``restored=True`` skips the image-load cost: an xl restore
        repopulates memory from the save image instead (charged by xl).
        """
        costs = self.platform.costs
        clock = self.platform.clock
        pages = self.image.kernel_pages
        self.domain.populate_ram(pages, label="kernel")
        self.kernel_pages = pages
        clock.charge(costs.page_alloc * pages)
        if not restored:
            clock.charge(costs.image_load_per_page * pages)
        ConsoleFrontend(self.domain)
        config = self.domain.config
        if config is not None:
            for index, vif_config in enumerate(config.vifs):
                mac = vif_config.mac or default_mac(self.domain.domid, index)
                frontend = NetFrontend(self.domain, index, mac, vif_config.ip)
                frontend.guest = self
        # 9pfs frontends are created by the toolstack's P9 service.
        # The rest of the RAM budget becomes the tinyalloc heap: a PV
        # guest owns its whole allocation from boot.
        free = self.domain.ram_pages_free()
        if free > 0:
            heap = self.domain.populate_ram(free, label="heap")
            clock.charge(costs.page_alloc * free)
            self.heap_base_pfn = heap.pfn_start
            self.heap_npages = free
        self.heap_cursor = 0

    def start(self) -> None:
        """Kernel boot: early init, lwip up, run the application."""
        costs = self.platform.costs
        boot_cost = (costs.linux_vm_boot if self.image.flavor == "linux"
                     else costs.guest_boot_fixed)
        self.platform.clock.charge(boot_cost)
        self.domain.state = DomainState.RUNNING
        if self.app is not None:
            self.app.main(self.api)

    # ------------------------------------------------------------------
    # packet dispatch
    # ------------------------------------------------------------------
    def dispatch_packet(self, packet: Packet) -> None:
        """netfront RX: hand a packet to the bound UDP socket."""
        handler = self.udp_handlers.get(packet.flow.dst_port)
        if handler is not None:
            handler(packet)

    def wants_packet(self, packet: Packet) -> bool:
        """RX interest pre-filter: mirrors :meth:`dispatch_packet`'s
        drop condition so switches can skip pointless flood deliveries."""
        return packet.flow.dst_port in self.udp_handlers

    def filters_changed(self) -> None:
        """A UDP socket was bound/unbound: invalidate switch-side
        cached acceptance decisions for this guest's vifs."""
        for vif in self.domain.frontends.get("vif", []):
            backend = vif.backend
            if backend is not None:
                backend.touch()

    # ------------------------------------------------------------------
    # cloning hooks (called by the Nephele first stage)
    # ------------------------------------------------------------------
    def clone_for_child(self, child: Domain, child_index: int) -> int:
        """Replicate guest-level state into ``child``.

        Clones every device frontend (the vif rings and preallocated
        buffers are copied - paper §4.2) and the application object.
        Returns the number of pages that had to be copied, so the clone
        engine can charge for them.
        """
        copied_pages = 0
        child_vm = UnikernelVM(self.platform, child, self.image,
                               app=None)
        for console in self.domain.frontends.get("console", []):
            console.clone_for(child)
        for vif in self.domain.frontends.get("vif", []):
            vif.clone_for(child).guest = child_vm
            copied_pages += vif.private_pages
        for mount in self.domain.frontends.get("9pfs", []):
            mount.clone_for(child)
        if self.app is not None:
            child_vm.app = self.app.clone_for_child()
        child_vm.udp_handlers = dict(self.udp_handlers)
        # tinyalloc state is part of the cloned memory image.
        child_vm.kernel_pages = self.kernel_pages
        child_vm.heap_base_pfn = self.heap_base_pfn
        child_vm.heap_npages = self.heap_npages
        child_vm.heap_cursor = self.heap_cursor
        child.state = DomainState.PAUSED
        return copied_pages

    def on_resumed_after_clone(self, child_index: int) -> None:
        """Child-side continuation: the fork() == 0 branch."""
        # Kernel data/stack writes on resume COW a handful of pages.
        dirty = min(self.RESUME_DIRTY_PAGES, self.kernel_pages)
        if dirty > 0:
            stats = self.domain.memory.write_range(
                self.kernel_pages - dirty, dirty)
            costs = self.platform.costs
            self.platform.clock.charge(costs.cow_fault * stats.copied
                                       + costs.cow_adopt * stats.adopted)
        if self.app is not None:
            self.app.on_cloned(self.api, child_index)

    def on_resumed_after_restore(self) -> None:
        """Post-restore continuation (xl restore resumed us)."""
        if self.app is not None:
            self.app.on_restored(self.api)
