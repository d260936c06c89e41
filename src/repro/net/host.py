"""The host side of the network, one fabric for both backends.

A host multiplexes its guests' ports on a default bridge and talks to
them through an uplink of its own (the endpoint the experiments reach
as ``HOST_IP``). Clones keep their parent's MAC and IP, so each clone
family's ports sit behind one aggregation switch: a bond in
balance-xor mode or an OVS select group (paper §5.2.1). Xen's Dom0 and
the KVM host are both a :class:`HostNetwork`; they differ only in the
default bridge's name and the uplink's MAC.
"""

from __future__ import annotations

from typing import Callable

from repro.net.bond import BondInterface
from repro.net.bridge import Bridge
from repro.net.ovs import OvsGroup
from repro.net.packets import Flow, Packet, Port

HOST_IP = "10.0.0.1"

HostListener = Callable[[Packet], None]


class HostPort(Port):
    """The host's uplink: its own switch port, holding the host-side
    listeners (port -> handler)."""

    def __init__(self, mac: str) -> None:
        self.name = "eth0"
        self.mac = mac
        self.listeners: dict[int, HostListener] = {}

    def deliver(self, packet: Packet) -> None:
        """Hand a packet for the host to the listener on its port."""
        if packet.flow.dst_ip != HOST_IP:
            return
        handler = self.listeners.get(packet.flow.dst_port)
        if handler is not None:
            handler(packet)

    def accepts(self, packet: Packet) -> bool:
        """Flood pre-filter: mirrors :meth:`deliver`'s drop path."""
        return (packet.flow.dst_ip == HOST_IP
                and packet.flow.dst_port in self.listeners)


class HostNetwork:
    """A host's switching fabric: the default bridge (more bridges may
    be added by name), the uplink and its listeners, and the clone
    families' bonds and OVS groups, keyed by the family's IP.

    A guest's port joins its family's switch with :meth:`join_family`
    and leaves it with :meth:`leave_family`; both are the same steps on
    either backend.
    """

    def __init__(self, bridge: str, mac: str) -> None:
        #: The default bridge: booted guests' ports and the uplink hang
        #: off it, and clone ports transmit into it.
        self.bridge = Bridge(bridge)
        self.bridges: dict[str, Bridge] = {bridge: self.bridge}
        self.bonds: dict[str, BondInterface] = {}
        self.ovs_groups: dict[int, OvsGroup] = {}
        #: Guest IP -> aggregation switch for clone families.
        self._family_switch: dict[str, BondInterface | OvsGroup] = {}
        self.host_port = HostPort(mac)
        self.bridge.attach(self.host_port)

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

    def join_family(self, port, parent_port: Callable[[], Port | None],
                    ovs: bool = False) -> None:
        """Aggregate a clone's ``port`` behind the switch of the family
        that owns its IP: a bond, or with ``ovs`` an OVS group.

        The family's first join also moves the parent's port
        (``parent_port()``, looked up only then) off its bridges into
        the switch. Outbound traffic from ``port`` still leaves through
        the default bridge.
        """
        ip = port.ip
        first = ip not in self._family_switch
        if ovs:
            add = self.family_ovs_group(ip).add_bucket
        else:
            add = self.family_bond(ip).enslave
        if first:
            parent = parent_port()
            if parent is not None:
                for bridge in parent.switches:
                    bridge.detach(parent)
                add(parent)
        add(port)
        port.attach_switch(self.bridge)

    def leave_family(self, port) -> None:
        """Release a dead guest's port from its family's switch (a bond
        slave or an OVS bucket); a port in no family is left alone."""
        switch = self._family_switch.get(port.ip)
        if isinstance(switch, BondInterface):
            switch.release(port)
        elif isinstance(switch, OvsGroup):
            switch.remove_bucket(port)

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

    def send_to_guest(self, dst_ip: str, dst_port: int, payload=None,
                      src_port: int = 40000, proto: str = "udp",
                      size: int = 64) -> None:
        """Send a packet from the host towards a guest IP.

        Clone families (aggregated behind a bond or OVS group) are
        selected by flow hash; everything else floods the default
        bridge.
        """
        flow = Flow(src_ip=HOST_IP, dst_ip=dst_ip, src_port=src_port,
                    dst_port=dst_port, proto=proto)
        packet = Packet(src_mac=self.host_port.mac,
                        dst_mac="ff:ff:ff:ff:ff:ff", flow=flow,
                        payload=payload, size=size)
        switch = self._family_switch.get(dst_ip, self.bridge)
        switch.forward(packet, ingress=self.host_port)
