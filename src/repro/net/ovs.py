"""Open vSwitch select groups.

The paper's second clone-switching option (§5.2.1): vanilla OVS selects
group buckets by hashing, but the selection logic can be extended with
stateful criteria. ``OvsGroup`` takes an optional selector callback for
exactly that.
"""

from __future__ import annotations

from typing import Callable

from repro.net.bond import layer34_hash
from repro.net.packets import Flow, Packet, Port

Selector = Callable[[Flow, list[Port]], Port]


class OvsGroup:
    """A select-type OVS group over clone vifs."""

    def __init__(self, group_id: int = 1,
                 selector: Selector | None = None) -> None:
        self.group_id = group_id
        #: Insertion-ordered membership (see BondInterface): O(1)
        #: add/remove, lazily rebuilt snapshot for hash selection.
        self._buckets: dict[Port, None] = {}
        self._selection: tuple[Port, ...] | None = None
        self.selector = selector
        self.tx_per_bucket: dict[str, int] = {}
        #: Stateful flow table: flows pinned to a bucket (used by custom
        #: selectors wanting stickiness).
        self.flow_table: dict[Flow, Port] = {}

    @property
    def buckets(self) -> list[Port]:
        """The select-group buckets, in add order."""
        return list(self._buckets)

    def add_bucket(self, port: Port) -> None:
        """Add a select-group bucket."""
        self._buckets[port] = None
        self._selection = None
        self.tx_per_bucket.setdefault(port.name, 0)

    def remove_bucket(self, port: Port) -> None:
        """Remove a bucket, its transmit counter and its pinned flows."""
        if port in self._buckets:
            del self._buckets[port]
            self._selection = None
            self.tx_per_bucket.pop(port.name, None)
        if self.flow_table:
            self.flow_table = {
                flow: bucket for flow, bucket in self.flow_table.items()
                if bucket is not port
            }

    def select_bucket(self, flow: Flow) -> Port:
        """Pick the bucket: custom selector, else the layer3+4 hash."""
        selection = self._selection
        if selection is None:
            selection = self._selection = tuple(self._buckets)
        if not selection:
            raise RuntimeError(f"OVS group {self.group_id} has no buckets")
        if self.selector is not None:
            return self.selector(flow, list(selection))
        return selection[layer34_hash(flow) % len(selection)]

    def forward(self, packet: Packet, ingress: Port | None = None) -> int:
        """Deliver towards the guests through the selected bucket."""
        bucket = self.select_bucket(packet.flow)
        self.tx_per_bucket[bucket.name] = self.tx_per_bucket.get(bucket.name, 0) + 1
        accepts = bucket.accepts
        if accepts is not None and not accepts(packet):
            return 0
        bucket.deliver(packet)
        return 1

    def pin_flow(self, flow: Flow, port: Port) -> None:
        """Stateful extension point: pin a flow to a bucket."""
        self.flow_table[flow] = port


def sticky_selector(group: "OvsGroup") -> Selector:
    """A stateful selector: first packet of a flow hashes, later packets
    stick to the same bucket even as buckets are added."""

    def select(flow: Flow, buckets: list[Port]) -> Port:
        pinned = group.flow_table.get(flow)
        if pinned is not None and pinned in buckets:
            return pinned
        choice = buckets[layer34_hash(flow) % len(buckets)]
        group.flow_table[flow] = choice
        return choice

    return select
