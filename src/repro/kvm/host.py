"""The KVM host: a Linux kernel with the kvm module.

Reuses the frame-table and guest-memory machinery from
:mod:`repro.xen`: page ownership, COW refcounting and adoption are
host-kernel MM semantics either way. The "owner" of shared pages here
is the host page cache / COW machinery rather than a dom_cow
pseudo-domain, but the accounting is identical.
"""

from __future__ import annotations

from repro.faults.injector import NULL_INJECTOR
from repro.net.bond import BondInterface
from repro.net.bridge import Bridge
from repro.obs.tracer import NULL_TRACER
from repro.sim import CostModel, VirtualClock, pages_of
from repro.xen.domid import live_descendants, next_free_id
from repro.xen.errors import XenInvalidError, XenNoEntryError
from repro.xen.frames import FrameTable


class KvmHost:
    """One Linux host running KVM VMs."""

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
        # Host networking: a default bridge plus per-family bonds,
        # exactly like Dom0's switching fabric.
        self.bridge = Bridge("br0")
        self.bonds: dict[str, BondInterface] = {}
        self._family_switch: dict[str, BondInterface] = {}
        #: Host-side UDP listeners (port -> handler) behind an uplink.
        from repro.net.packets import Port

        self._listeners: dict[int, object] = {}
        self.host_ip = "10.0.0.1"
        self.host_port = Port("eth0", "52:54:00:00:00:01",
                              self._host_deliver)
        self.bridge.attach(self.host_port)
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

    def listen(self, port: int, handler) -> None:
        """Bind a host-side UDP listener."""
        self._listeners[port] = handler

    def unlisten(self, port: int) -> None:
        """Unbind a host-side listener."""
        self._listeners.pop(port, None)

    def _host_deliver(self, packet) -> None:
        if packet.flow.dst_ip != self.host_ip:
            return
        handler = self._listeners.get(packet.flow.dst_port)
        if handler is not None:
            handler(packet)

    def send_to_guest(self, dst_ip: str, dst_port: int, payload=None,
                      src_port: int = 40000) -> None:
        """Send a packet towards a guest IP (bond-aware for families)."""
        from repro.net.packets import Flow, Packet

        flow = Flow(src_ip=self.host_ip, dst_ip=dst_ip, src_port=src_port,
                    dst_port=dst_port, proto="udp")
        packet = Packet(src_mac="52:54:00:00:00:01",
                        dst_mac="ff:ff:ff:ff:ff:ff", flow=flow,
                        payload=payload)
        switch = self._family_switch.get(dst_ip, self.bridge)
        switch.forward(packet, ingress=self.host_port)

    def family_bond(self, ip: str) -> BondInterface:
        """The bond aggregating the clone family that owns ``ip``."""
        bond = self._family_switch.get(ip)
        if bond is None:
            bond = BondInterface(f"bond-{len(self.bonds)}")
            self.bonds[bond.name] = bond
            self._family_switch[ip] = bond
        return bond

    def detach_port(self, port) -> None:
        """Unplug a tap from the bridge and from any family bond.

        Safe to call for ports that were never attached (both the
        bridge and the bonding driver treat unknown ports as no-ops),
        which keeps VM teardown idempotent under fault unwinding.
        """
        self.bridge.detach(port)
        for bond in self.bonds.values():
            bond.release(port)

    @property
    def free_bytes(self) -> int:
        from repro.sim.units import PAGE_SIZE

        return self.frames.free_frames * PAGE_SIZE

    def descendants(self, pid: int) -> frozenset[int]:
        """All live descendants of a VM (the family check)."""
        return live_descendants(self.vms, self.get_vm(pid).children)
