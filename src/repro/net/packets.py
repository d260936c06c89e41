"""Packets and flows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Flow:
    """The 5-tuple-ish key used by layer3+4 hashing."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: str = "udp"


@dataclass
class Packet:
    src_mac: str
    dst_mac: str
    flow: Flow
    payload: Any = None
    size: int = 64

    @property
    def src_ip(self) -> str:
        return self.flow.src_ip

    @property
    def dst_ip(self) -> str:
        return self.flow.dst_ip


class Port:
    """A switch port: a name, a MAC, ``deliver(packet)`` and ``accepts``.

    Build one from plain callables, ``Port(name, mac, deliver,
    accepts)``, or subclass it in an endpoint that is its own port and
    implements ``deliver`` and ``accepts`` as methods (netback's vif, a
    KVM tap and the host's uplink do, so none stores callback
    objects).

    ``accepts`` is an optional cheap pre-filter: switches flooding a
    packet may skip ``deliver`` entirely when ``accepts(packet)`` is
    false, so endpoints never build RX state for traffic they would
    drop anyway. ``None`` means "deliver everything" (the default).

    Contract: ``accepts`` must be a pure function of the packet's flow
    *destination* (``dst_ip``, ``dst_port``, ``proto``) and of endpoint
    state whose changes are signalled through :meth:`touch`. Switches
    rely on this to cache flood-acceptance decisions per destination.
    """

    #: Switches this port is attached to that cache acceptance
    #: decisions (replaced, never mutated, by their attach/detach): an
    #: empty tuple until one attaches.
    switches: tuple = ()

    def __init__(self, name: str, mac: str, deliver, accepts=None) -> None:
        self.name = name
        self.mac = mac
        self.deliver = deliver
        self.accepts = accepts

    def touch(self) -> None:
        """Signal that this port's ``accepts`` inputs changed (a socket
        was bound/unbound, a listener added, ...): attached switches
        drop their cached flood-acceptance decisions."""
        for switch in self.switches:
            switch.filters_changed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Port({self.name} mac={self.mac})"
