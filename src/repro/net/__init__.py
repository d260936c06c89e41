"""Layer-2/3 network substrate on the host.

Hardware NICs are multiplexed for guests by software switches in Dom0
(paper §3), or in the host kernel on KVM. For clones — which keep the
parent's MAC and IP — Nephele aggregates the family's ports behind
either a Linux bond in balance-xor mode with the layer3+4 transmit hash
policy, or an Open vSwitch select group (paper §5.2.1).
:class:`HostNetwork` is one host's fabric, the same on both backends.
"""

from repro.net.bond import BondInterface
from repro.net.bridge import Bridge
from repro.net.host import HostNetwork
from repro.net.ovs import OvsGroup
from repro.net.packets import Flow, Packet

__all__ = ["Packet", "Flow", "Bridge", "BondInterface", "OvsGroup",
           "HostNetwork"]
