"""Linux bonding driver, balance-xor mode with layer3+4 hashing.

This is the stateless switching solution the paper uses for clone vifs:
all slaves carry identical MAC and IP addresses and the bond picks the
slave by hashing IP addresses and port values (paper §6.1). The hash
below mirrors the kernel's layer3+4 ``bond_xmit_hash``: XOR of the IP
words and the port pair, modulo the slave count.
"""

from __future__ import annotations

from repro.net.packets import Flow, Packet, Port


def _ip_word(ip: str) -> int:
    total = 0
    for part in ip.split("."):
        total = (total << 8) | (int(part) & 0xFF)
    return total


def layer34_hash(flow: Flow) -> int:
    """The bonding driver's layer3+4 transmit hash."""
    ports = (flow.src_port ^ flow.dst_port) & 0xFFFF
    ips = _ip_word(flow.src_ip) ^ _ip_word(flow.dst_ip)
    value = ports ^ ips ^ (ips >> 16)
    value ^= value >> 8
    return value


class BondInterface:
    """A bond master aggregating clone vifs (identical MAC/IP slaves)."""

    def __init__(self, name: str = "bond0") -> None:
        self.name = name
        #: Insertion-ordered membership (dict keyed by the Port object):
        #: O(1) enslave/release, stable hash order for selection.
        self._slaves: dict[Port, None] = {}
        #: Indexable snapshot for hash selection, rebuilt lazily after
        #: membership changes (so a teardown of N slaves is O(N), not
        #: O(N^2) of repeated ``list.remove``).
        self._selection: tuple[Port, ...] | None = None
        self.tx_per_slave: dict[str, int] = {}

    @property
    def slaves(self) -> list[Port]:
        """The enslaved ports, in enslave order."""
        return list(self._slaves)

    def enslave(self, port: Port) -> None:
        """Add a slave interface (identical MAC/IP to its siblings)."""
        self._slaves[port] = None
        self._selection = None
        self.tx_per_slave.setdefault(port.name, 0)

    def release(self, port: Port) -> None:
        """Remove a slave and its transmit counter."""
        if port in self._slaves:
            del self._slaves[port]
            self._selection = None
            self.tx_per_slave.pop(port.name, None)

    def select_slave(self, flow: Flow) -> Port:
        """balance-xor: pick the slave by the layer3+4 hash."""
        selection = self._selection
        if selection is None:
            selection = self._selection = tuple(self._slaves)
        if not selection:
            raise RuntimeError(f"bond {self.name} has no slaves")
        return selection[layer34_hash(flow) % len(selection)]

    def forward(self, packet: Packet, ingress: Port | None = None) -> int:
        """Deliver towards the guests: pick a slave by flow hash."""
        slave = self.select_slave(packet.flow)
        self.tx_per_slave[slave.name] = self.tx_per_slave.get(slave.name, 0) + 1
        accepts = slave.accepts
        if accepts is not None and not accepts(packet):
            return 0
        slave.deliver(packet)
        return 1

    def distribution(self) -> dict[str, int]:
        """Packets sent per slave - used to study load-balance skew."""
        return dict(self.tx_per_slave)
