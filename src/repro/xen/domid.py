"""Domain IDs: the reserved constants, the allocator and the family walk.

The reserved values mirror Xen's ``public/xen.h``; ``DOMID_CHILD`` is the
wildcard Nephele adds so a parent can grant memory or bind event channels
to its not-yet-existing clones (paper §5.1). :func:`next_free_id` and
:func:`live_descendants` serve both backends: Xen's domids and the KVM
port's VMM pids come from the same rover and form the same family trees.
"""

from __future__ import annotations

from typing import Any, Container, Iterable, Mapping

from repro.xen.errors import XenNoMemoryError

DOM0: int = 0

#: Accounting owner for the hypervisor's own bookkeeping allocations
#: (struct domain, shadow pools, frame-table slack).
XEN_OWNER: int = -1

DOMID_FIRST_RESERVED: int = 0x7FF0
#: The calling domain itself.
DOMID_SELF: int = 0x7FF0
#: Owner of pages shared for COW between clone families.
DOMID_COW: int = 0x7FF2
#: No domain.
DOMID_INVALID: int = 0x7FF4
#: Nephele: "whichever clones of mine exist now or in the future".
DOMID_CHILD: int = 0x7FF6


def is_reserved(domid: int) -> bool:
    """True for wildcard/pseudo domain IDs that never name a real guest."""
    return domid >= DOMID_FIRST_RESERVED


def next_free_id(rover: int, live: Container[int]) -> int:
    """The ID to hand out next, the way Xen's domctl rover does: the
    first one after ``rover`` (the last handed out) that ``live`` does
    not hold, wrapping to 1 before ``DOMID_FIRST_RESERVED`` (a reserved
    ID never names a guest). ENOMEM when every ID is live."""
    candidate = rover
    for _ in range(DOMID_FIRST_RESERVED - 1):
        candidate += 1
        if candidate == DOMID_FIRST_RESERVED:
            candidate = 1
        if candidate not in live:
            return candidate
    raise XenNoMemoryError("no free domain ID")


def live_descendants(live: Mapping[int, Any],
                     children: Iterable[int]) -> frozenset[int]:
    """Every ID in ``live`` reachable from ``children`` through the
    members' own ``children`` lists: a guest's live descendants, given
    its children."""
    result: set[int] = set()
    stack = list(children)
    while stack:
        child = stack.pop()
        if child in result or child not in live:
            continue
        result.add(child)
        stack.extend(live[child].children)
    return frozenset(result)
