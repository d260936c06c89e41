"""Nephele core: the cloning engine.

The paper's contribution (§4-§5): the single ``CLONEOP`` hypercall and
its subcommands, the hypervisor-side first stage (vCPUs, memory, grant
and event-channel cloning, the notification ring and ``VIRQ_CLONED``),
and the host-side second stage run by the ``xencloned`` daemon
(Xenstore cloning, device backends, switching, completion signalling).
"""

from repro.core.cloneop import CloneOp, CloneSubOp, CloneOpError
from repro.core.notify_ring import CloneNotification, CloneNotificationRing
from repro.core.smp import CloneFleet, build_fleet
from repro.core.xencloned import Xencloned

__all__ = [
    "CloneOp",
    "CloneSubOp",
    "CloneOpError",
    "Xencloned",
    "CloneNotification",
    "CloneNotificationRing",
    "CloneFleet",
    "build_fleet",
]
