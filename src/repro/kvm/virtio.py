"""Virtio devices for the KVM port.

virtio-net (tap + vhost queues) plays netfront/netback's role;
virtio-9p lives inside the VMM process, so its fid table is duplicated
*naturally* by fork() — the property that made the Xen 9pfs backend
need QMP surgery comes for free here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.devices.hostfs import HostFS
from repro.net.packets import Packet, Port

if TYPE_CHECKING:  # pragma: no cover
    from repro.kvm.vm import KvmVm

#: vhost queue backing (descriptor rings + buffers).
QUEUE_PAGES = 64


class VirtioNet(Port):
    """virtio-net: guest queues plus the host tap, which is the
    device's switch port.

    Being its own port, a tap stores no delivery callback: bridges and
    bonds call :meth:`deliver`, which hands the packet to the VM's RX
    dispatch. The tap is named after its VM (``tap<pid>``), as Xen
    names a vif ``vif<domid>.<index>``.
    """

    #: No flood pre-filter: a tap takes every packet a switch floods.
    accepts = None

    def __init__(self, vm: "KvmVm", mac: str, ip: str) -> None:
        self.vm = vm
        self.mac = mac
        self.ip = ip
        self.name = f"tap{vm.pid}"
        # Queue memory is guest memory pinned for vhost; on clone these
        # pages must be copied (same reason as the Xen rings).
        self.queues = vm.memory.populate(QUEUE_PAGES, label="virtio-queues")
        #: The host switch used for outbound traffic.
        self.switch = None
        vm.net = self

    def attach_switch(self, switch) -> None:
        """Set the host switch used for outbound traffic."""
        self.switch = switch

    def transmit(self, packet: Packet) -> None:
        """Guest TX through vhost into the host fabric."""
        if self.switch is None:
            raise RuntimeError(f"{self.name} has no switch attached")
        self.switch.forward(packet, ingress=self)

    def deliver(self, packet: Packet) -> None:
        """Host-to-guest RX: the VM's bound UDP handler gets it."""
        self.vm.dispatch_packet(packet)

    def clone_for(self, child: "KvmVm") -> "VirtioNet":
        """Clone-side device: fresh tap (kvmcloned creates it), queue
        pages copied, same MAC and IP."""
        clone = VirtioNet(child, self.mac, self.ip)
        child.host.clock.charge(
            child.host.costs.page_copy * QUEUE_PAGES)
        return clone


@dataclass
class VirtioFid:
    fid: int
    path: str
    mode: str = "rw"
    offset: int = 0


class Virtio9p:
    """virtio-9p: the fid table lives in the VMM process."""

    def __init__(self, vm: "KvmVm", export_root: str, hostfs: HostFS) -> None:
        self.host = vm.host
        self.export_root = export_root
        self.hostfs = hostfs
        self.fids: dict[int, VirtioFid] = {}
        self._next_fid = itertools.count(1)
        if not hostfs.is_dir(export_root):
            hostfs.mkdir(export_root)
        vm.p9 = self

    def _charge(self, nbytes: int = 0) -> None:
        costs = self.host.costs
        self.host.clock.charge(costs.p9_request_base
                                  + costs.p9_write_per_byte * nbytes)

    def open(self, path: str, mode: str = "rw", create: bool = False) -> int:
        """Open a file on the export; returns a fid."""
        self._charge()
        full = f"{self.export_root}{path}"
        if not self.hostfs.exists(full):
            if not create:
                raise FileNotFoundError(path)
            self.hostfs.create(full)
        fid = next(self._next_fid)
        self.fids[fid] = VirtioFid(fid=fid, path=full, mode=mode)
        return fid

    def write(self, fid: int, nbytes: int) -> int:
        """Write at the fid's offset; returns the new file size."""
        self._charge(nbytes)
        entry = self.fids[fid]
        entry.offset += nbytes
        return self.hostfs.write(entry.path, nbytes)

    def close(self, fid: int) -> None:
        """Clunk a fid."""
        self._charge()
        self.fids.pop(fid, None)

    def clone_for(self, child: "KvmVm") -> "Virtio9p":
        """fork() duplicates the VMM's file descriptors: the clone's fid
        table is inherited with offsets intact, no QMP needed."""
        clone = Virtio9p(child, self.export_root, self.hostfs)
        for fid, entry in self.fids.items():
            clone.fids[fid] = VirtioFid(fid=entry.fid, path=entry.path,
                                        mode=entry.mode, offset=entry.offset)
        if self.fids:
            clone._next_fid = itertools.count(max(self.fids) + 1)
        return clone
