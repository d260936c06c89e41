"""Event channels and virtual IRQs.

Event channels are Xen's notification primitive: point-to-point edges
between (domain, port) pairs, plus vIRQ bindings for hypervisor-raised
events. Nephele adds the ``VIRQ_CLONED`` interrupt that wakes the
xencloned daemon (paper §5.1) and the ``DOMID_CHILD`` wildcard for IDC
channels: a channel a parent binds to DOMID_CHILD is implicitly
connected to every clone (paper §5.2.2). Such channels are modelled as
one-to-many: a parent-side send notifies all bound children, a
child-side send notifies the parent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.xen.domid import DOMID_CHILD
from repro.xen.errors import XenInvalidError, XenNoEntryError

# Virtual IRQ numbers (subset of Xen's, plus the Nephele addition).
VIRQ_TIMER = 0
VIRQ_DEBUG = 1
VIRQ_CONSOLE = 2
VIRQ_DOM_EXC = 3
#: Nephele: a clone notification was pushed to the xencloned ring.
VIRQ_CLONED = 14

EventHandler = Callable[[int], None]  # receives the local port

#: Global event-topology epoch (single-slot list so call sites bump it
#: in place). Any mutation that can change who a send reaches — port
#: allocation or close, domain create/destroy, IDC child linking —
#: bumps it, invalidating every cached fan-out list (see
#: ``Hypervisor.send_event``). Spurious bumps only cost a re-resolve.
_TOPOLOGY_EPOCH = [0]


class ChannelState(enum.Enum):
    """Binding state of an event-channel endpoint."""

    UNBOUND = "unbound"
    INTERDOMAIN = "interdomain"
    VIRQ = "virq"
    CLOSED = "closed"


@dataclass
class EventChannel:
    """One endpoint of an event channel."""

    port: int
    owner: int
    state: ChannelState = ChannelState.UNBOUND
    #: Peer domain; DOMID_CHILD marks a Nephele IDC wildcard channel.
    remote_domid: int | None = None
    remote_port: int | None = None
    virq: int | None = None
    pending: bool = False
    masked: bool = False
    handler: EventHandler | None = None
    #: For DOMID_CHILD channels: (child_domid, child_port) endpoints.
    child_endpoints: list[tuple[int, int]] = field(default_factory=list)
    #: (epoch, resolved targets) memo for ``Hypervisor.send_event``.
    fanout_cache: tuple | None = field(default=None, repr=False,
                                       compare=False)

    @property
    def is_idc_wildcard(self) -> bool:
        return self.remote_domid == DOMID_CHILD


class EventChannelTable:
    """Per-domain port table."""

    def __init__(self, domid: int) -> None:
        self.domid = domid
        self.ports: dict[int, EventChannel] = {}
        self._next_port = 1

    def __len__(self) -> int:
        return len(self.ports)

    def _new_channel(self) -> EventChannel:
        port = self._next_port
        self._next_port = port + 1
        channel = EventChannel(port=port, owner=self.domid)
        self.ports[port] = channel
        _TOPOLOGY_EPOCH[0] += 1
        return channel

    def alloc_unbound(self, remote_domid: int) -> EventChannel:
        """Allocate a port that ``remote_domid`` may later bind to.

        ``remote_domid`` may be DOMID_CHILD for Nephele IDC channels.
        """
        channel = self._new_channel()
        channel.remote_domid = remote_domid
        return channel

    def bind_interdomain(self, remote_domid: int, remote_port: int) -> EventChannel:
        """Bind a fresh local port to a remote (domain, port) pair."""
        channel = self._new_channel()
        channel.state = ChannelState.INTERDOMAIN
        channel.remote_domid = remote_domid
        channel.remote_port = remote_port
        return channel

    def bind_virq(self, virq: int, handler: EventHandler | None = None) -> EventChannel:
        """Bind a port to a virtual IRQ (at most one binding per vIRQ)."""
        for existing in self.ports.values():
            if existing.state is ChannelState.VIRQ and existing.virq == virq:
                raise XenInvalidError(f"vIRQ {virq} already bound in dom {self.domid}")
        channel = self._new_channel()
        channel.state = ChannelState.VIRQ
        channel.virq = virq
        channel.handler = handler
        return channel

    def lookup(self, port: int) -> EventChannel:
        """The channel bound to ``port`` (ENOENT if absent)."""
        channel = self.ports.get(port)
        if channel is None:
            raise XenNoEntryError(f"port {port} not found in domain {self.domid}")
        return channel

    def set_handler(self, port: int, handler: EventHandler | None) -> None:
        """Install the guest-side wakeup callback for ``port``."""
        self.lookup(port).handler = handler

    def close(self, port: int) -> None:
        """EVTCHNOP_close: release the port."""
        channel = self.lookup(port)
        channel.state = ChannelState.CLOSED
        del self.ports[port]
        _TOPOLOGY_EPOCH[0] += 1

    def idc_wildcard_channels(self) -> list[EventChannel]:
        """Channels bound to DOMID_CHILD - the parent's IDC notification set."""
        return [c for c in self.ports.values() if c.is_idc_wildcard]

    def clone_for_child(self, child_domid: int) -> "EventChannelTable":
        """First-stage copy of the port table for a clone.

        Ports are preserved. Regular interdomain channels are copied
        as-is (the toolstack re-plumbs device channels in the second
        stage); DOMID_CHILD wildcard channels keep pointing at
        DOMID_CHILD in the child too, so a clone can itself become a
        parent. The hypervisor links wildcard endpoints separately (see
        Hypervisor.connect_idc_child).
        """
        child = EventChannelTable(child_domid)
        top = 0
        ports = child.ports
        for port, channel in self.ports.items():
            copy = EventChannel(
                port=port,
                owner=child_domid,
                state=channel.state,
                remote_domid=channel.remote_domid,
                remote_port=channel.remote_port,
                virq=channel.virq,
                masked=channel.masked,
                handler=None,
            )
            ports[port] = copy
            if port > top:
                top = port
        child._next_port = top + 1
        # One bump for the whole bulk copy (not one per port): the new
        # table changes the topology once, when it is attached.
        _TOPOLOGY_EPOCH[0] += 1
        return child
