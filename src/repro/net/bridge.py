"""Learning bridge (Dom0's default vif multiplexer)."""

from __future__ import annotations

from repro.net.packets import Packet, Port
from repro.obs.tracer import NULL_TRACER


class Bridge:
    """MAC-learning software bridge.

    Host-side cost is O(1) per packet in the steady state: source MACs
    are learned from forwarded traffic (not just at :meth:`attach`),
    ports live in an insertion-ordered dict so :meth:`detach` is O(1),
    and flood delivery consults a per-destination acceptance cache (fed
    by each port's cheap ``accepts`` pre-filter) instead of evaluating
    every port for every packet. Cache entries are maintained
    incrementally on attach/detach and dropped when an endpoint signals
    a filter change through :meth:`Port.touch`.
    """

    def __init__(self, name: str = "xenbr0", tracer=None) -> None:
        self.name = name
        #: Insertion-ordered port set (dict keyed by the Port object
        #: itself): O(1) attach/detach, stable flood order.
        self.ports: dict[Port, None] = {}
        self._mac_table: dict[str, Port] = {}
        #: (dst_ip, dst_port, proto) -> (probe packet, accepting ports
        #: in attach order). The probe re-evaluates newly attached ports.
        self._flood_cache: dict[tuple, tuple[Packet, list[Port]]] = {}
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.forwarded = 0
        self.flooded = 0
        #: Flood deliveries suppressed by port pre-filters.
        self.flood_filtered = 0

    def attach(self, port: Port) -> None:
        """Plug a port in and learn its MAC."""
        self.ports[port] = None
        self._mac_table[port.mac] = port
        if self not in port.switches:
            port.switches = (*port.switches, self)
        for probe, accepting in self._flood_cache.values():
            accepts = port.accepts
            if accepts is None or accepts(probe):
                accepting.append(port)

    def detach(self, port: Port) -> None:
        """Unplug a port and forget its MAC."""
        if port in self.ports:
            del self.ports[port]
        if self._mac_table.get(port.mac) is port:
            del self._mac_table[port.mac]
        if self in port.switches:
            port.switches = tuple(
                switch for switch in port.switches if switch is not self)
        for _probe, accepting in self._flood_cache.values():
            if port in accepting:
                accepting.remove(port)

    def filters_changed(self, port: Port | None = None) -> None:
        """A port's ``accepts`` inputs changed: fix up cached decisions.

        With a specific port the cached entries are repaired in place
        (each probe packet is re-evaluated against just that port), so a
        guest binding a socket costs O(cached destinations), not an
        O(ports) rebuild on the next flood.
        """
        if port is None:
            self._flood_cache.clear()
            return
        attached = port in self.ports
        for probe, accepting in self._flood_cache.values():
            accepts = port.accepts
            wants = attached and (accepts is None or accepts(probe))
            present = port in accepting
            if wants and not present:
                accepting.append(port)
            elif present and not wants:
                accepting.remove(port)

    def _learn(self, packet: Packet, ingress: Port | None) -> None:
        # Learn the source MAC from forwarded traffic, like a real
        # bridge: a re-attached port regains its table entry on its
        # first transmission, not only at attach time.
        if ingress is not None and self._mac_table.get(packet.src_mac) is not ingress:
            self._mac_table[packet.src_mac] = ingress

    def forward(self, packet: Packet, ingress: Port | None = None) -> int:
        """Forward a packet; returns the number of ports it reached."""
        self._learn(packet, ingress)
        target = self._mac_table.get(packet.dst_mac)
        if target is not None and target is not ingress:
            if target in self.ports:
                self.forwarded += 1
                self.tracer.count("net.bridge.forwarded")
                target.deliver(packet)
                return 1
            # Stale entry (port detached without transmitting since):
            # drop it and fall through to the flood path.
            del self._mac_table[packet.dst_mac]
        # Unknown/broadcast destination: flood through the acceptance
        # cache. Deliveries can re-plumb the bridge (a packet triggering
        # a clone detaches the parent's port into the family
        # aggregation), so iterate a snapshot and skip ports detached
        # mid-flood.
        flow = packet.flow
        key = (flow.dst_ip, flow.dst_port, flow.proto)
        cached = self._flood_cache.get(key)
        if cached is None:
            accepting = []
            for port in self.ports:
                accepts = port.accepts
                if accepts is None or accepts(packet):
                    accepting.append(port)
            self._flood_cache[key] = (packet, accepting)
        else:
            accepting = cached[1]
        ports = self.ports
        reached = 0
        for port in list(accepting):
            if port is ingress or port not in ports:
                continue
            port.deliver(packet)
            reached += 1
        self.flooded += 1
        self.forwarded += 1
        filtered = len(ports) - reached - (1 if ingress in ports else 0)
        if filtered > 0:
            self.flood_filtered += filtered
        tracer = self.tracer
        if tracer.enabled:
            tracer.count("net.bridge.forwarded")
            tracer.count("net.bridge.flooded")
            if reached:
                tracer.count("net.bridge.flood_deliveries", reached)
            if filtered > 0:
                tracer.count("net.bridge.flood_filtered", filtered)
        return reached

    @property
    def flood_ratio(self) -> float:
        """Fraction of forwarded packets that had to be flooded."""
        return self.flooded / self.forwarded if self.forwarded else 0.0
