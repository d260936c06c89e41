"""The guest API: what application code inside a unikernel can do.

This is the surface Unikraft/Mini-OS expose to the ported application:
memory allocation (tinyalloc-style), UDP/packet I/O through netfront,
9pfs files, the Nephele ``fork()`` (a thin wrapper over the CLONEOP
hypercall — "using the cloning interface from inside a guest is as easy
as calling fork() from a process", paper §4) and IDC pipes/socketpairs.
The calls that do not depend on the backend are
:class:`CommonGuestAPI`'s, which the KVM port's handle
(:mod:`repro.kvm.guest_api`) shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.idc.pipe import Pipe
from repro.idc.socketpair import SocketPair
from repro.net.packets import Flow, Packet
from repro.sim.units import pages_of
from repro.xen.errors import XenInvalidError, XenNoMemoryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.unikernel import UnikernelVM


@dataclass
class Region:
    """A guest-virtual allocation (tinyalloc chunk)."""

    pfn_start: int
    npages: int
    nbytes: int


PacketHandler = Callable[[Packet], None]


class CommonGuestAPI:
    """The guest calls that do not depend on the backend, written once
    over ``platform`` (the Xen platform or the KVM host) and ``domain``
    (the Xen domain or the KVM VM).

    A backend's handle subclasses this and supplies only its lookups:
    ``domid``, ``_vm`` (the guest kernel: heap cursor, UDP handlers,
    ``filters_changed``), ``console``, ``vif`` and ``_p9``.
    """

    __slots__ = ("platform", "domain", "__weakref__")

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.platform.clock.now

    # ------------------------------------------------------------------
    # memory (tinyalloc model)
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, touch: bool = True) -> Region:
        """Allocate memory from the guest heap (tinyalloc model).

        The heap pages were populated at boot (a guest owns its whole
        RAM allocation); allocation is a bump of the allocator cursor.
        With ``touch=True`` (the default - tinyalloc returns zeroed
        chunks) the pages are written, so shared pages COW-fault.
        """
        npages = pages_of(nbytes)
        vm = self._vm
        if vm.heap_cursor + npages > vm.heap_npages:
            raise XenNoMemoryError(
                f"guest {self.domid} heap exhausted: need {npages} pages, "
                f"{vm.heap_npages - vm.heap_cursor} left")
        region = Region(vm.heap_base_pfn + vm.heap_cursor, npages, nbytes)
        vm.heap_cursor += npages
        if touch:
            self.touch(region)
        return region

    def touch(self, region: Region, npages: int | None = None,
              offset_pages: int = 0):
        """Write to an allocated region; COW-faults shared pages.

        Returns the :class:`~repro.xen.memory.CowStats` of the write so
        callers can inspect copies vs adoptions.
        """
        count = region.npages - offset_pages if npages is None else npages
        if count <= 0 or offset_pages + count > region.npages:
            raise XenInvalidError(
                f"touch outside region: offset={offset_pages} count={count} "
                f"region={region.npages}")
        stats = self.domain.memory.write_range(
            region.pfn_start + offset_pages, count)
        costs = self.platform.costs
        self.platform.clock.charge(
            costs.guest_touch_page * count
            + costs.cow_fault * stats.copied
            + costs.cow_adopt * stats.adopted
        )
        return stats

    # ------------------------------------------------------------------
    # fork / clone
    # ------------------------------------------------------------------
    def fork(self, count: int = 1) -> list[int]:
        """Clone this VM ``count`` times; returns the children's ids.

        Parent view only: each child resumes with its app's
        ``on_cloned`` hook, the moral ``fork() == 0`` branch.
        """
        return self.platform.cloneop.clone(self.domid, count=count)

    # ------------------------------------------------------------------
    # network (UDP)
    # ------------------------------------------------------------------
    def udp_bind(self, port: int, handler: PacketHandler) -> None:
        """Listen for UDP datagrams on ``port``."""
        self._vm.udp_handlers[port] = handler
        self._vm.filters_changed()

    def udp_unbind(self, port: int) -> None:
        """Stop listening on ``port``."""
        self._vm.udp_handlers.pop(port, None)
        self._vm.filters_changed()

    def udp_send(self, dst_ip: str, dst_port: int, payload: Any = None,
                 src_port: int = 9000, size: int = 64, index: int = 0) -> None:
        """Send a UDP datagram through the given network device."""
        vif = self.vif(index)
        flow = Flow(src_ip=vif.ip, dst_ip=dst_ip, src_port=src_port,
                    dst_port=dst_port, proto="udp")
        packet = Packet(src_mac=vif.mac, dst_mac="ff:ff:ff:ff:ff:ff",
                        flow=flow, payload=payload, size=size)
        self.platform.clock.charge(self.platform.costs.net_tx_packet)
        vif.transmit(packet)

    def reply(self, request: Packet, payload: Any = None,
              size: int = 64, index: int = 0) -> None:
        """Answer a received packet (swap the flow around)."""
        flow = Flow(src_ip=request.flow.dst_ip, dst_ip=request.flow.src_ip,
                    src_port=request.flow.dst_port,
                    dst_port=request.flow.src_port, proto=request.flow.proto)
        vif = self.vif(index)
        packet = Packet(src_mac=vif.mac, dst_mac=request.src_mac,
                        flow=flow, payload=payload, size=size)
        self.platform.clock.charge(self.platform.costs.net_tx_packet)
        vif.transmit(packet)

    # ------------------------------------------------------------------
    # files
    # ------------------------------------------------------------------
    def open(self, path: str, mode: str = "rw", create: bool = False) -> int:
        """Open a file on the first file-system mount; returns a fid."""
        return self._p9().open(path, mode, create)

    def write_file(self, fid: int, nbytes: int) -> int:
        """Write ``nbytes`` at the fid's offset."""
        return self._p9().write(fid, nbytes)

    def close_file(self, fid: int) -> None:
        """Close a fid."""
        self._p9().close(fid)


class GuestAPI(CommonGuestAPI):
    """Per-guest handle passed to application code on Xen.

    It reaches its kernel through ``domain.guest`` rather than holding
    it: the guest caches this handle, and destroying the domain unlinks
    ``domain.guest``, so the pair dies by refcount.
    """

    __slots__ = ()

    def __init__(self, vm: "UnikernelVM") -> None:
        self.platform = vm.platform
        self.domain = vm.domain

    @property
    def _vm(self) -> "UnikernelVM":
        return self.domain.guest

    # ------------------------------------------------------------------
    # identity / console
    # ------------------------------------------------------------------
    @property
    def domid(self) -> int:
        return self.domain.domid

    def console(self, line: str) -> None:
        """Print to the guest console (ring + xenconsoled log)."""
        consoles = self.domain.frontends.get("console", [])
        if consoles:
            consoles[0].write_line(line)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Clean poweroff; the toolstack applies the on_poweroff policy."""
        self.platform.hypervisor.guest_shutdown(self.domid, crashed=False)

    def crash(self) -> None:
        """Guest panic; the toolstack applies the on_crash policy."""
        self.platform.hypervisor.guest_shutdown(self.domid, crashed=True)

    # ------------------------------------------------------------------
    # devices: netfront and 9pfs
    # ------------------------------------------------------------------
    def vif(self, index: int = 0):
        """The guest's netfront device ``index``."""
        vifs = self.domain.frontends.get("vif", [])
        for frontend in vifs:
            if frontend.index == index:
                return frontend
        raise XenInvalidError(
            f"domain {self.domid} has no vif {index} (has {len(vifs)})")

    def _p9(self, index: int = 0):
        mounts = self.domain.frontends.get("9pfs", [])
        if not mounts:
            raise XenInvalidError(f"domain {self.domid} has no 9pfs mount")
        return mounts[index]

    def read_file(self, fid: int, nbytes: int) -> int:
        """Read up to ``nbytes``; returns the bytes read."""
        return self._p9().read(fid, nbytes)

    # ------------------------------------------------------------------
    # IDC (pre-fork IPC setup)
    # ------------------------------------------------------------------
    def pipe(self) -> Pipe:
        """Create an anonymous IDC pipe (call before fork())."""
        return Pipe(self.platform.hypervisor, self.domain)

    def socketpair(self) -> SocketPair:
        """Create an IDC socket pair (call before fork())."""
        return SocketPair(self.platform.hypervisor, self.domain)
