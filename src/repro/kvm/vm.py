"""A KVM virtual machine: a VMM process with an in-kernel VM fd."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any

from repro.sim.units import MIB, pages_of
from repro.xen.errors import XenInvalidError
from repro.xen.frames import Extent
from repro.xen.memory import GuestMemory
from repro.xen.paging import PagingState, build_paging, release_paging
from repro.xen.vcpu import VCPU

if TYPE_CHECKING:  # pragma: no cover
    from repro.kvm.host import KvmHost
    from repro.kvm.virtio import Virtio9p, VirtioNet


class VmState(enum.Enum):
    """Lifecycle states of a KVM VM."""

    CREATED = "created"
    RUNNING = "running"
    PAUSED = "paused"
    DEAD = "dead"


#: Resident overhead of the VMM process itself (QEMU-lite).
VMM_RESIDENT_BYTES = 12 * MIB


class KvmVm:
    """One VM: VMM process + kvm vm-fd + guest memory + virtio devices."""

    def __init__(self, host: "KvmHost", name: str, memory_bytes: int,
                 vcpus: int = 1) -> None:
        if memory_bytes < host.costs.xen_min_domain_bytes:
            # KVM has no hard 4 MB floor, but we keep guests comparable.
            raise XenInvalidError(
                f"guest below the experiment minimum: {memory_bytes}")
        self.init_shell(host, name, memory_bytes)
        self.vcpus = [VCPU(i) for i in range(vcpus)]
        guest_pages = pages_of(memory_bytes)
        try:
            # Guest memory is anonymous VMM-process memory; page
            # accounting reuses the shared machinery (owner = the pid).
            self.memory.populate(guest_pages, label="guest-ram")
            # EPT/shadow structures: same order of magnitude as PV
            # paging.
            self.paging = build_paging(host.frames, self.pid, guest_pages)
            # The VMM process's own resident memory.
            self.vmm_extent = host.frames.alloc(
                self.pid, pages_of(VMM_RESIDENT_BYTES), label="vmm")
        except Exception:
            self.release()
            raise
        host.clock.charge(host.costs.hyp_domain_create
                          + host.costs.hyp_vcpu_init * vcpus
                          + host.costs.page_alloc * guest_pages
                          + host.costs.pt_entry_build * guest_pages)
        host.register(self)

    def init_shell(self, host: "KvmHost", name: str,
                   memory_bytes: int) -> None:
        """Set every field of a VM that holds nothing yet: a fresh pid,
        empty guest memory, no paging, VMM extent, vCPUs or devices.
        Booting and cloning both start here, so :meth:`release` can
        take the VM apart from any point after it."""
        self.host = host
        self.name = name
        self.pid = host.allocate_pid()
        self.memory_bytes = memory_bytes
        self.state = VmState.CREATED
        self.vcpus: list[VCPU] = []
        self.memory = GuestMemory(self.pid, host.frames)
        self.paging: PagingState | None = None
        self.vmm_extent: Extent | None = None
        self.net: "VirtioNet | None" = None
        self.p9: "Virtio9p | None" = None
        self.parent_pid: int | None = None
        self.children: list[int] = []
        self.max_clones = 0
        self.clones_created = 0
        #: Guest application object (same protocol as the Xen guests).
        self.app: Any = None
        #: tinyalloc heap over the guest RAM (pfn range).
        self.heap_base_pfn = 0
        self.heap_npages = pages_of(memory_bytes)
        self.heap_cursor = 0
        self.console_output: list[str] = []
        self.udp_handlers: dict[int, Any] = {}
        self._api = None

    @property
    def api(self):
        """The guest API handle (same app protocol as the Xen guests)."""
        if self._api is None:
            from repro.kvm.guest_api import KvmGuestAPI

            self._api = KvmGuestAPI(self)
        return self._api

    def dispatch_packet(self, packet) -> None:
        """virtio-net RX: route a datagram to the bound UDP handler."""
        handler = self.udp_handlers.get(packet.flow.dst_port)
        if handler is not None:
            handler(packet)

    def filters_changed(self) -> None:
        """A UDP socket was bound or unbound. The tap has no flood
        pre-filter, so no switch holds a decision to repair."""

    # ------------------------------------------------------------------
    @property
    def is_clone(self) -> bool:
        return self.parent_pid is not None

    def enable_cloning(self, max_clones: int) -> None:
        """Set the clone budget (0 disables cloning)."""
        if max_clones < 0:
            raise XenInvalidError(f"negative max_clones: {max_clones}")
        self.max_clones = max_clones

    def may_clone(self, count: int = 1) -> bool:
        """Does the clone budget allow ``count`` more children?"""
        return self.clones_created + count <= self.max_clones

    def boot(self) -> None:
        """Run the guest kernel up to its application."""
        self.host.clock.charge(self.host.costs.guest_boot_fixed)
        self.state = VmState.RUNNING

    def destroy(self) -> None:
        """Kill the VMM process; release memory, EPT and devices."""
        freed = self.release()
        self.host.clock.charge(self.host.costs.hyp_domain_destroy
                               + self.host.costs.page_free * freed)

    def release(self) -> int:
        """Take the VM apart without charging for it; returns the frames
        freed. Copes with a half-built VM: the tap, the EPT frames and
        the VMM extent are each released only if the build reached
        them. The family links go too: the parent forgets this VM, and
        its live children are orphaned, so a VM that later gets this
        pid is no parent of theirs. Nothing is left pointing back at the
        VM (the tap, the app, the API handle, the UDP handlers), so a
        destroyed VM dies by refcount."""
        host = self.host
        net = self.net
        if net is not None:
            # The tap goes away with the VMM: unplug it from the bridge
            # and from its family's switch so neither keeps a dead port.
            host.bridge.detach(net)
            host.leave_family(net)
            net.vm = None
        self.app = None
        self._api = None
        self.udp_handlers.clear()
        freed = self.memory.release()
        if self.paging is not None:
            freed += release_paging(host.frames, self.paging)
            self.paging = None
        if self.vmm_extent is not None:
            freed += host.frames.free_extent(self.vmm_extent)
            self.vmm_extent = None
        if self.parent_pid is not None:
            parent = host.vms.get(self.parent_pid)
            if parent is not None and self.pid in parent.children:
                parent.children.remove(self.pid)
        for child_pid in self.children:
            child = host.vms.get(child_pid)
            if child is not None:
                child.parent_pid = None
        self.state = VmState.DEAD
        host.unregister(self.pid)
        return freed

    def machine_pages(self) -> int:
        """Host frames attributable to this VM (private + EPT + VMM)."""
        total = self.memory.private_pages()
        total += self.paging.pt_pages + self.paging.p2m_pages
        total += self.vmm_extent.live_pages
        return total
