"""Paravirtualized network device (netfront / netback).

Clone policy (paper §4.2): both rings are *copied* — TX entries are
tied to pending requests that must be serviced in both parent and
child, and RX entries are preallocated by the guest and may contain
allocator metadata (as in Unikraft's netfront). The preallocated RX
buffers are the dominant private memory of a clone: "1 MB is used for
the RX network ring alone" (paper §6.2).

The netback cloning shortcut corresponds to the 14 lines the paper adds
to the Linux netback driver: create the device state and mark it
connected, skipping negotiation.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.devices.rings import SharedRing
from repro.devices.udev import UdevBus, UdevEvent
from repro.devices.xenbus import XenbusState, negotiate
from repro.net.packets import Packet, Port
from repro.obs.tracer import NULL_TRACER
from repro.sim import CostModel, VirtualClock
from repro.xen.domain import Domain
from repro.xen.frames import PageType
from repro.xenstore.client import XsHandle

#: Preallocated guest RX buffers: 256 pages = 1 MiB (paper §6.2).
RX_BUFFER_PAGES = 256
#: TX buffer pool.
TX_BUFFER_PAGES = 32
#: One page per ring.
RING_PAGES = 1


def vif_frontend_path(domid: int, index: int) -> str:
    """Xenstore directory of a guest's vif frontend."""
    return f"/local/domain/{domid}/device/vif/{index}"


def vif_backend_path(domid: int, index: int) -> str:
    """Xenstore directory of a guest's vif backend."""
    return f"/local/domain/0/backend/vif/{domid}/{index}"


class NetFrontend:
    """Guest-side network device."""

    device_class = "vif"

    def __init__(self, domain: Domain, index: int, mac: str, ip: str) -> None:
        self.domid = domain.domid
        self.index = index
        self.mac = mac
        self.ip = ip
        self.tx_ring = SharedRing(domain, RING_PAGES, f"vif{index}-tx")
        self.rx_ring = SharedRing(domain, RING_PAGES, f"vif{index}-rx")
        self.rx_buffers = domain.populate_ram(
            RX_BUFFER_PAGES, PageType.RX_BUFFER, label=f"vif{index}-rxbuf")
        self.tx_buffers = domain.populate_ram(
            TX_BUFFER_PAGES, PageType.IO_RING, label=f"vif{index}-txbuf")
        #: The guest kernel that consumes RX (installed by the guest):
        #: packets go to ``guest.dispatch_packet``, and switches flooding
        #: a packet consult ``guest.wants_packet`` (through the backend
        #: port's ``accepts``) first, so no RX-ring state is built for
        #: packets the guest would drop anyway. ``None`` queues RX on
        #: the ring.
        self.guest: Any = None
        self.backend: "NetBackend | None" = None
        self.tx_count = 0
        self.rx_count = 0
        domain.frontends.setdefault("vif", []).append(self)

    @property
    def private_pages(self) -> int:
        """Pages that must be copied for a clone of this device."""
        return (self.tx_ring.npages + self.rx_ring.npages
                + self.rx_buffers.npages + self.tx_buffers.npages)

    def transmit(self, packet: Packet) -> None:
        """Guest TX: ring -> netback -> switch.

        With no entries in flight the packet is handed over directly -
        the ring round-trip is elided (same FIFO semantics, and an idle
        ring never allocates entry storage).
        """
        backend = self.backend
        if backend is None or not backend.connected:
            raise RuntimeError(
                f"vif{self.domid}.{self.index} transmit before connect")
        self.tx_count += 1
        tx_ring = self.tx_ring
        if tx_ring.entries:
            tx_ring.push(packet)
            packet = tx_ring.pop()
        backend.from_guest(packet)

    def receive(self, packet: Packet) -> None:
        """Backend RX delivery into the guest.

        With a guest attached and no preallocated entries in flight,
        the packet is handed over directly - the ring round-trip is
        elided (same FIFO semantics, no per-packet ring churn).
        """
        self.rx_count += 1
        guest = self.guest
        rx_ring = self.rx_ring
        if guest is None:
            rx_ring.push(packet)
            return
        if rx_ring.entries:
            rx_ring.push(packet)
            packet = rx_ring.pop()
        guest.dispatch_packet(packet)

    def clone_for(self, child: Domain) -> "NetFrontend":
        """Child-side device state: rings and buffers copied (paper §4.2)."""
        clone = NetFrontend.__new__(NetFrontend)
        clone.domid = child.domid
        clone.index = self.index
        clone.mac = self.mac  # identical MAC and IP (paper §5.2.1)
        clone.ip = self.ip
        clone.tx_ring = self.tx_ring.clone_for(child, copy_contents=True)
        clone.rx_ring = self.rx_ring.clone_for(child, copy_contents=True)
        clone.rx_buffers = child.populate_ram(
            self.rx_buffers.npages, PageType.RX_BUFFER,
            label=f"vif{self.index}-rxbuf")
        clone.tx_buffers = child.populate_ram(
            self.tx_buffers.npages, PageType.IO_RING,
            label=f"vif{self.index}-txbuf")
        clone.guest = None
        clone.backend = None
        clone.tx_count = 0
        clone.rx_count = 0
        child.frontends.setdefault("vif", []).append(clone)
        return clone


class _VifPort(Port):
    """The vif as a switch port: what bridges, bonds and OVS groups call
    to deliver into the connected frontend.

    Kept apart from :class:`NetBackend`'s own API on purpose: the
    per-layer tracer (``benchmarks/e2e/trace.py``) counts NetBackend's
    public methods as devices-layer calls, while a switch delivery is
    net-layer work that reaches the devices layer as
    ``NetFrontend.receive``.
    """

    frontend: "NetFrontend | None"

    def deliver(self, packet: Packet) -> None:
        frontend = self.frontend
        if frontend is not None:
            frontend.receive(packet)

    def accepts(self, packet: Packet) -> bool:
        """Flood pre-filter: would delivering this packet have any
        effect? False exactly when :meth:`deliver` would build RX
        state only for the guest to drop the packet."""
        frontend = self.frontend
        if frontend is None:
            return False
        guest = frontend.guest
        return guest is None or guest.wants_packet(packet)


class NetBackend(_VifPort):
    """Dom0-side vif state (netback); also the vif's switch port.

    Being its own port, a vif stores no delivery callbacks; it does not
    call :class:`Port`'s constructor, which is for callable ports.
    """

    def __init__(self, domid: int, index: int, mac: str, ip: str) -> None:
        self.domid = domid
        self.index = index
        self.mac = mac
        self.ip = ip
        self.name = f"vif{domid}.{index}"
        self.connected = False
        self.frontend: NetFrontend | None = None
        #: The switch (bridge/bond/OVS) this vif hangs off, set by the
        #: hotplug/udev stage; must expose ``forward(packet, ingress)``.
        self.switch = None

    @property
    def port(self) -> "NetBackend":
        """The vif's switch port: the backend itself."""
        return self

    def attach_switch(self, switch) -> None:
        """Set the Dom0 switch used for outbound traffic."""
        self.switch = switch

    def from_guest(self, packet: Packet) -> None:
        """Forward a guest TX packet into the Dom0 fabric."""
        if self.switch is None:
            raise RuntimeError(f"{self.name} has no switch attached")
        self.switch.forward(packet, ingress=self)


class NetBackendDriver:
    """The netback driver: watches the backend vif directory.

    Booting devices negotiate; cloned devices (whose entries appear
    already CONNECTED, written by xs_clone) take the shortcut path.
    """

    def __init__(self, handle: XsHandle, clock: VirtualClock, costs: CostModel,
                 udev: UdevBus,
                 domain_resolver: Callable[[int], Domain],
                 tracer=None) -> None:
        self.handle = handle
        self.clock = clock
        self.costs = costs
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.udev = udev
        self.resolver = domain_resolver
        self.backends: dict[tuple[int, int], NetBackend] = {}
        handle.watch("/local/domain/0/backend/vif", "netback", self._on_watch)

    def _on_watch(self, path: str, token: str) -> None:
        parts = path.split("/")
        # /local/domain/0/backend/vif/<domid>[/<index>[/...]]
        if len(parts) < 7:
            return
        try:
            domid = int(parts[6])
        except ValueError:
            return
        if len(parts) >= 8:
            try:
                indices = [int(parts[7])]
            except ValueError:
                return
        else:
            # Fired on the domain directory itself (xs_clone writes the
            # whole subtree in one request): scan its device indices.
            try:
                indices = [int(i) for i in
                           self.handle.daemon.directory(path)]
            except Exception:
                return
        for index in indices:
            self._try_device(domid, index)

    def _try_device(self, domid: int, index: int) -> None:
        key = (domid, index)
        if key in self.backends:
            return
        base = vif_backend_path(domid, index)
        daemon = self.handle.daemon
        if not daemon.exists(f"{base}/state"):
            return  # entries still being written
        state = XenbusState(int(daemon.read_node(f"{base}/state")))
        mac = daemon.read_node(f"{base}/mac")
        ip = daemon.read_node(f"{base}/ip")
        backend = NetBackend(domid, index, mac, ip)
        self.backends[key] = backend
        if state is XenbusState.CONNECTED:
            self._clone_shortcut(backend)
        else:
            self._boot_connect(backend)

    def _boot_connect(self, backend: NetBackend) -> None:
        with self.tracer.span("vif.boot_connect", vif=backend.name):
            self.clock.charge(self.costs.vif_backend_create)
            negotiate(self.handle, self.clock, self.costs,
                      vif_frontend_path(backend.domid, backend.index),
                      vif_backend_path(backend.domid, backend.index))
            self._finish_connect(backend, cloned=False)

    def _clone_shortcut(self, backend: NetBackend) -> None:
        """The 14-LoC Nephele path: connect without negotiation."""
        with self.tracer.span("vif.clone_shortcut", vif=backend.name):
            self.clock.charge(self.costs.vif_backend_clone)
            self._finish_connect(backend, cloned=True)

    def _finish_connect(self, backend: NetBackend, cloned: bool) -> None:
        self.tracer.count("vif.cloned" if cloned else "vif.booted")
        backend.connected = True
        domain = self.resolver(backend.domid)
        for frontend in domain.frontends.get("vif", []):
            if frontend.index == backend.index:
                frontend.backend = backend
                backend.frontend = frontend
                # The port's acceptance just changed (no frontend ->
                # guest filter): drop any cached switch decisions.
                backend.touch()
                break
        self.udev.emit(UdevEvent(
            action="add", subsystem="net", name=backend.name,
            properties={"domid": backend.domid, "index": backend.index,
                        "cloned": cloned},
        ))

    def remove(self, domid: int) -> None:
        """Tear down a (destroyed) guest's vifs, emitting udev removes.

        The remove event carries the vif's IP and port so listeners
        managing aggregation switches (clone-family bonds / OVS groups)
        can release the slave — ports of dead guests must not stay in
        the selection set.
        """
        for key in [k for k in self.backends if k[0] == domid]:
            backend = self.backends.pop(key)
            if backend.switch is not None and hasattr(backend.switch, "detach"):
                backend.switch.detach(backend)
            self.udev.emit(UdevEvent(
                action="remove", subsystem="net", name=backend.name,
                properties={"domid": domid, "index": backend.index,
                            "ip": backend.ip, "port": backend},
            ))
            # The dead guest's frontend and this backend point at each
            # other; unlinking this side lets both die by refcount.
            backend.frontend = None


def write_vif_entries(handle: XsHandle, domid: int, index: int, mac: str,
                      ip: str, state: XenbusState,
                      bridge: str = "xenbr0") -> None:
    """Write the frontend and backend vif entries (state node last, so the
    netback watch sees a complete directory)."""
    front = vif_frontend_path(domid, index)
    back = vif_backend_path(domid, index)
    handle.write(f"{front}/backend", back)
    handle.write(f"{front}/backend-id", "0")
    handle.write(f"{front}/mac", mac)
    handle.write(f"{front}/state", str(int(state)))
    handle.write(f"{back}/frontend", front)
    handle.write(f"{back}/frontend-id", str(domid))
    handle.write(f"{back}/mac", mac)
    handle.write(f"{back}/ip", ip)
    handle.write(f"{back}/bridge", bridge)
    handle.write(f"{back}/online", "1")
    handle.write(f"{back}/state", str(int(state)))
