"""Dom0: the privileged host domain.

Owns the device backends, the software switches, udev and the host
side of the network. Its memory budget is tracked separately from the
hypervisor's guest pool, mirroring the paper's 4 GB Dom0 / 12 GB
hypervisor split (§6.2), and Fig 5 reports both "Dom0 free" and
"Hyp free" series.
"""

from __future__ import annotations

from typing import Callable

from repro.devices.console import ConsoleBackendDaemon
from repro.devices.hostfs import HostFS
from repro.devices.p9 import P9BackendPolicy, P9Service
from repro.devices.udev import UdevBus, UdevEvent
from repro.devices.vif import NetBackendDriver
from repro.net.bond import BondInterface
from repro.net.bridge import Bridge
from repro.net.ovs import OvsGroup
from repro.net.packets import Flow, Packet, Port
from repro.sim.units import MIB
from repro.xen.hypervisor import Hypervisor
from repro.xenstore.client import XsHandle
from repro.xenstore.store import XenstoreDaemon

#: Dom0 kernel + base userspace (Alpine, Xen services) resident set.
BASE_SERVICES_BYTES = 600 * MIB

HOST_MAC = "00:16:3e:00:00:01"
HOST_IP = "10.0.0.1"

HostListener = Callable[[Packet], None]


class _HostPort(Port):
    """Dom0's uplink to the host network: its own switch port, holding
    the host-side listeners (port -> handler)."""

    def __init__(self) -> None:
        self.name = "eth0"
        self.mac = HOST_MAC
        self.listeners: dict[int, HostListener] = {}

    def deliver(self, packet: Packet) -> None:
        if packet.flow.dst_ip != HOST_IP:
            return
        handler = self.listeners.get(packet.flow.dst_port)
        if handler is not None:
            handler(packet)

    def accepts(self, packet: Packet) -> bool:
        """Flood pre-filter: mirrors :meth:`deliver`'s drop path."""
        return (packet.flow.dst_ip == HOST_IP
                and packet.flow.dst_port in self.listeners)


class Dom0:
    """The host domain and its userspace."""

    def __init__(self, hypervisor: Hypervisor, xenstore: XenstoreDaemon,
                 memory_bytes: int,
                 p9_policy: P9BackendPolicy = P9BackendPolicy.SHARED_PROCESS) -> None:
        self.hypervisor = hypervisor
        self.xenstore = xenstore
        self.memory_bytes = memory_bytes
        clock, costs = hypervisor.clock, hypervisor.costs
        self.clock = clock
        self.costs = costs

        self.handle = XsHandle(xenstore, client="dom0")
        self.udev = UdevBus()
        self.hostfs = HostFS()
        self.hostfs.mkdir("/srv")

        # Switching fabric.
        self.bridges: dict[str, Bridge] = {
            "xenbr0": Bridge("xenbr0")}
        self.bonds: dict[str, BondInterface] = {}
        self.ovs_groups: dict[int, OvsGroup] = {}
        #: Guest IP -> aggregation switch for clone families.
        self._family_switch: dict[str, object] = {}

        # Host network endpoint (the "uplink" the experiments talk to).
        self.host_port = _HostPort()
        self.bridges["xenbr0"].attach(self.host_port)

        # Backend drivers.
        self.netback = NetBackendDriver(
            self.handle, clock, costs, self.udev, hypervisor.get_domain,
            tracer=hypervisor.tracer)
        self.console_daemon = ConsoleBackendDaemon(
            self.handle, clock, costs, hostfs=self.hostfs,
            domain_resolver=hypervisor.get_domain)
        self.p9 = P9Service(self.handle, clock, costs, self.hostfs,
                            policy=p9_policy, tracer=hypervisor.tracer)

        # Default hotplug: booted (non-clone) vifs join their bridge.
        self.udev.subscribe(self._hotplug)

    # ------------------------------------------------------------------
    # udev hotplug for regular boots
    # ------------------------------------------------------------------
    def _hotplug(self, event: UdevEvent) -> None:
        if event.subsystem != "net":
            return
        if event.action == "remove":
            self._unplug(event)
            return
        if event.action != "add":
            return
        if event.properties.get("cloned"):
            return  # xencloned owns clone vifs
        key = (event.properties["domid"], event.properties["index"])
        backend = self.netback.backends.get(key)
        if backend is None:
            return
        bridge_name = self._vif_bridge(*key)
        bridge = self.bridges.get(bridge_name)
        if bridge is None:
            bridge = self.bridges[bridge_name] = Bridge(bridge_name)
        bridge.attach(backend.port)
        backend.attach_switch(bridge)
        self.clock.charge(self.costs.switch_attach)

    def _unplug(self, event: UdevEvent) -> None:
        """Release a dead vif's port from its clone-family aggregation
        switch (bond slave / OVS bucket). Bridge detach is handled by
        the netback driver itself; both release paths are idempotent."""
        ip = event.properties.get("ip")
        port = event.properties.get("port")
        if ip is None or port is None:
            return
        switch = self._family_switch.get(ip)
        if isinstance(switch, BondInterface):
            switch.release(port)
        elif isinstance(switch, OvsGroup):
            switch.remove_bucket(port)

    def _vif_bridge(self, domid: int, index: int) -> str:
        path = f"/local/domain/0/backend/vif/{domid}/{index}/bridge"
        try:
            return self.xenstore.read_node(path)
        except Exception:
            return "xenbr0"

    # ------------------------------------------------------------------
    # guest teardown
    # ------------------------------------------------------------------
    def remove_guest(self, handle: XsHandle, domid: int) -> None:
        """Remove a guest's registry entries and backend state, then
        release it from xenstored: the Dom0 half of ``xl destroy``.

        ``handle`` is the caller's own Xenstore connection, so each
        daemon's request counters stay its own.
        """
        for path in (f"/local/domain/{domid}",
                     f"/local/domain/0/backend/vif/{domid}",
                     f"/local/domain/0/backend/console/{domid}",
                     f"/local/domain/0/backend/9pfs/{domid}"):
            if handle.daemon.exists(path):
                handle.rm(path)
        self.netback.remove(domid)
        self.console_daemon.remove(domid)
        self.p9.remove(domid)
        handle.release_domain(domid)

    def shutdown(self) -> None:
        """Dom0's half of taking the host apart: the backend daemons
        drop their Xenstore watches and netback its vifs (their udev
        removes still reach the hotplug handler, which frees family
        bond and OVS slots), then the hotplug handler drops its udev
        subscription and the uplink leaves its switches, so nothing
        refers back into Dom0."""
        self.netback.shutdown()
        self.console_daemon.shutdown()
        self.udev.unsubscribe(self._hotplug)
        for switch in self.host_port.switches:
            switch.detach(self.host_port)

    # ------------------------------------------------------------------
    # clone-family switching (bond / OVS)
    # ------------------------------------------------------------------
    def family_bond(self, ip: str) -> BondInterface:
        """The bond aggregating the clone family that owns ``ip``."""
        switch = self._family_switch.get(ip)
        if isinstance(switch, BondInterface):
            return switch
        bond = BondInterface(f"bond-{len(self.bonds)}")
        self.bonds[bond.name] = bond
        self._family_switch[ip] = bond
        return bond

    def family_ovs_group(self, ip: str) -> OvsGroup:
        """The OVS group aggregating the clone family that owns ``ip``."""
        switch = self._family_switch.get(ip)
        if isinstance(switch, OvsGroup):
            return switch
        group = OvsGroup(group_id=len(self.ovs_groups) + 1)
        self.ovs_groups[group.group_id] = group
        self._family_switch[ip] = group
        return group

    # ------------------------------------------------------------------
    # host network endpoint
    # ------------------------------------------------------------------
    def listen(self, port: int, handler: HostListener) -> None:
        """Bind a host-side UDP/TCP listener."""
        self.host_port.listeners[port] = handler
        self.host_port.touch()

    def unlisten(self, port: int) -> None:
        """Unbind a host-side listener."""
        self.host_port.listeners.pop(port, None)
        self.host_port.touch()

    def send_to_guest(self, dst_ip: str, dst_port: int, payload,
                      src_port: int = 40000, proto: str = "udp",
                      size: int = 64) -> None:
        """Send a packet from the host towards a guest IP.

        Clone families (aggregated behind a bond or OVS group) are
        selected by flow hash; everything else floods the bridge.
        """
        flow = Flow(src_ip=HOST_IP, dst_ip=dst_ip, src_port=src_port,
                    dst_port=dst_port, proto=proto)
        packet = Packet(src_mac=HOST_MAC, dst_mac="ff:ff:ff:ff:ff:ff",
                        flow=flow, payload=payload, size=size)
        switch = self._family_switch.get(dst_ip)
        if switch is not None:
            switch.forward(packet, ingress=self.host_port)
        else:
            self.bridges["xenbr0"].forward(packet, ingress=self.host_port)

    # ------------------------------------------------------------------
    # memory accounting (Fig 5 "Dom0 free")
    # ------------------------------------------------------------------
    @property
    def guest_count(self) -> int:
        return self.hypervisor.guest_count

    def used_bytes(self) -> int:
        """Dom0 resident memory (services + oxenstored + backends)."""
        used = BASE_SERVICES_BYTES
        used += self.xenstore.resident_bytes()
        used += self.costs.dom0_backend_bytes_per_guest * self.guest_count
        used += self.p9.dom0_resident_bytes()
        return used

    @property
    def free_bytes(self) -> int:
        return max(0, self.memory_bytes - self.used_bytes())
