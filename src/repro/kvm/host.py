"""The KVM host: a Linux kernel with the kvm module.

Reuses the frame-table and guest-memory machinery from
:mod:`repro.xen`: page ownership, COW refcounting and adoption are
host-kernel MM semantics either way. The "owner" of shared pages here
is the host page cache / COW machinery rather than a dom_cow
pseudo-domain, but the accounting is identical.
"""

from __future__ import annotations

from repro.faults.injector import NULL_INJECTOR
from repro.net.host import HostNetwork
from repro.obs.tracer import NULL_TRACER
from repro.sim import CostModel, VirtualClock, pages_of
from repro.sim.units import PAGE_SIZE
from repro.xen.domid import live_descendants, next_free_id
from repro.xen.errors import XenInvalidError, XenNoEntryError
from repro.xen.frames import FrameTable


class KvmHost(HostNetwork):
    """One Linux host running KVM VMs; also the host network, with
    ``br0`` as its default bridge and the same uplink and family
    switches as Dom0's."""

    def __init__(self, memory_bytes: int, cpus: int = 4,
                 clock: VirtualClock | None = None,
                 costs: CostModel | None = None,
                 faults=NULL_INJECTOR, tracer=NULL_TRACER) -> None:
        if cpus < 1:
            raise XenInvalidError(f"need at least one CPU: {cpus}")
        self.clock = clock if clock is not None else VirtualClock()
        self.costs = costs if costs is not None else CostModel()
        self.cpus = cpus
        #: Fault-injection hooks (repro.faults): the same registry sites
        #: the Xen backend fires, threaded through KVM_CLONE_VM so one
        #: chaos plan can storm either backend.
        self.faults = faults
        #: Tracing probes (repro.obs): the same clone-path span
        #: vocabulary the Xen backend records, so per-stage breakdown
        #: tables diff across backends.
        self.tracer = tracer
        self.frames = FrameTable(pages_of(memory_bytes))
        self.frames.faults = faults
        self.vms: dict[int, "object"] = {}
        #: The pid allocator's rover: the last pid handed out. VMM pids
        #: come from Xen's domid rover, so they start at 2000 and wrap
        #: to 1 before the reserved range, skipping live VMs.
        self._pid_rover = 1999
        super().__init__("br0", "52:54:00:00:00:01")
        #: The KVM_CLONE_VM handler (set by KvmPlatform).
        self.cloneop = None

    def allocate_pid(self) -> int:
        """Hand out a free VMM process id
        (:func:`repro.xen.domid.next_free_id`)."""
        self._pid_rover = next_free_id(self._pid_rover, self.vms)
        return self._pid_rover

    def register(self, vm) -> None:
        """Track a new VM."""
        self.vms[vm.pid] = vm

    def get_vm(self, pid: int):
        """The VM whose VMM has ``pid`` (ENOENT if absent)."""
        vm = self.vms.get(pid)
        if vm is None:
            raise XenNoEntryError(f"no VM with pid {pid}")
        return vm

    def unregister(self, pid: int) -> None:
        """Forget a (destroyed) VM."""
        self.vms.pop(pid, None)

    @property
    def free_bytes(self) -> int:
        return self.frames.free_frames * PAGE_SIZE

    def descendants(self, pid: int) -> frozenset[int]:
        """All live descendants of a VM (the family check)."""
        return live_descendants(self.vms, self.get_vm(pid).children)
