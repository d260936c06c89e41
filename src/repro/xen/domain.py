"""The domain: Xen's unit of isolation.

Holds everything the first stage of cloning must replicate: vCPUs,
guest memory, paging state, grant table, event channels, the Xen
special pages, and the Nephele per-domain clone configuration set via
domctl (paper §5.1, toolstack-hypervisor interface).
"""

from __future__ import annotations

import enum
from typing import Any

from repro.xen.errors import XenInvalidError, XenNoMemoryError
from repro.xen.events import EventChannelTable
from repro.xen.frames import Extent, FrameTable, PageType
from repro.xen.grants import GrantTable
from repro.xen.memory import GuestMemory
from repro.xen.paging import PagingState
from repro.xen.vcpu import VCPU


class DomainState(enum.Enum):
    """Lifecycle states of a domain."""

    CREATED = "created"
    RUNNING = "running"
    PAUSED = "paused"
    DYING = "dying"
    DEAD = "dead"


#: Special pages every PV domain carries; all private memory on clone
#: (paper §5.2: "the console page, the Xenstore interface page, the
#: start_info page and the physical-to-machine (p2m) mapping").
SPECIAL_PAGES = (
    ("start_info", PageType.START_INFO),
    ("shared_info", PageType.SHARED_INFO),
    ("console", PageType.CONSOLE_RING),
    ("xenstore", PageType.XENSTORE_RING),
    ("grant_table", PageType.GRANT_TABLE),
)


class Frontends(tuple):
    """A domain's device frontends in attach order, read by device
    class: ``frontends["vif"]`` lists the vifs (KeyError if none),
    ``frontends.get("9pfs", [])`` the 9pfs mounts.

    One flat tuple: a clone's console and vif cost one two-slot tuple
    (56 B), where a dict of per-class lists cost 360 B. Attaching
    builds a new tuple (:meth:`Domain.attach`); a domain has a handful
    of devices.
    """

    __slots__ = ()

    def get(self, kind: str, default: Any = None) -> Any:
        """The frontends of device class ``kind``, or ``default``."""
        found = [frontend for frontend in self
                 if frontend.device_class == kind]
        return found if found else default

    def __getitem__(self, key):
        if key.__class__ is not str:
            return tuple.__getitem__(self, key)
        found = self.get(key)
        if found is None:
            raise KeyError(key)
        return found


#: The frontends of a domain with no devices (shared: it is immutable).
NO_FRONTENDS = Frontends()


class Domain:
    """One guest VM (or Dom0)."""

    __slots__ = (
        "domid", "name", "privileged", "state", "memory_bytes",
        "ram_budget_pages", "vcpus", "memory", "paging", "grants",
        "events", "foreign_maps", "special", "start_info_mfn", "store_mfn",
        "overhead_extent", "cloning_enabled", "max_clones", "clones_created",
        "parent_id", "children", "frontends", "guest", "config",
        "__weakref__")

    def __init__(self, domid: int, name: str, frame_table: FrameTable,
                 memory_bytes: int, vcpu_count: int = 1,
                 privileged: bool = False) -> None:
        from repro.sim.units import pages_of

        if vcpu_count < 1:
            raise XenInvalidError(f"domain needs at least one vCPU: {vcpu_count}")
        self.domid = domid
        self.name = name
        self.privileged = privileged
        self.state = DomainState.CREATED
        self.memory_bytes = memory_bytes
        self.ram_budget_pages = pages_of(memory_bytes)
        self.vcpus = tuple(VCPU(i) for i in range(vcpu_count))
        self.memory = GuestMemory(domid, frame_table)
        self.paging: PagingState | None = None
        self.grants = GrantTable(domid)
        self.events = EventChannelTable(domid)
        #: Foreign grants this domain mapped, as (granter_domid, gref);
        #: scrubbed from the granters' tables when this domain dies.
        #: ``()`` until the first mapping: few domains map any.
        self.foreign_maps: list[tuple[int, int]] | tuple = ()
        #: The special pages' extents, in :data:`SPECIAL_PAGES` order.
        self.special: tuple[Extent, ...] = ()
        #: The frame numbers Xen publishes (see :mod:`repro.xen.frames`):
        #: the start_info page's, carried by clone notifications, and
        #: the Xenstore ring page's, written as ``store/ring-ref``.
        self.start_info_mfn = 0
        self.store_mfn = 0
        self.overhead_extent: Extent | None = None

        # --- Nephele clone state ---
        self.cloning_enabled = False
        self.max_clones = 0
        self.clones_created = 0
        self.parent_id: int | None = None
        self.children: list[int] = []

        # --- attachments from higher layers ---
        #: Device frontends ("vif", "console", "9pfs"), in attach order.
        self.frontends = NO_FRONTENDS
        #: Guest kernel/application object (set by repro.guest).
        self.guest: Any = None
        #: Toolstack configuration this domain was created from.
        self.config: Any = None

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Domain({self.domid} {self.name!r} {self.state.value})"

    @property
    def is_clone(self) -> bool:
        return self.parent_id is not None

    @property
    def store_path(self) -> str:
        """This domain's directory in the Xenstore registry."""
        return f"/local/domain/{self.domid}"

    def attach(self, frontend: Any) -> None:
        """Add a device frontend; its ``device_class`` names its kind."""
        self.frontends = Frontends((*self.frontends, frontend))

    def populate_ram(self, npages: int, page_type: PageType = PageType.NORMAL,
                     label: str = ""):
        """Allocate guest RAM within the configured budget."""
        if self.memory.total_pages + npages > self.ram_budget_pages:
            raise XenNoMemoryError(
                f"domain {self.domid}: populating {npages} pages exceeds "
                f"RAM budget of {self.ram_budget_pages} "
                f"(used {self.memory.total_pages})"
            )
        return self.memory.populate(npages, page_type, label=label)

    def ram_pages_free(self) -> int:
        """Unpopulated pages left in the RAM budget."""
        return self.ram_budget_pages - self.memory.total_pages

    def machine_pages(self) -> int:
        """Machine frames attributable to this domain (RAM that is not
        COW-shared, plus paging and special frames). Excludes hypervisor
        overhead."""
        total = self.memory.private_pages()
        if self.paging is not None:
            total += self.paging.pt_pages + self.paging.p2m_pages
        total += sum(extent.count for extent in self.special)
        return total

    # ------------------------------------------------------------------
    # clone configuration (set via domctl)
    # ------------------------------------------------------------------
    def enable_cloning(self, max_clones: int) -> None:
        """Set the clone budget (0 disables cloning) - domctl-backed."""
        if max_clones < 0:
            raise XenInvalidError(f"negative max_clones: {max_clones}")
        self.cloning_enabled = max_clones > 0
        self.max_clones = max_clones

    def may_clone(self, count: int = 1) -> bool:
        """Does the clone budget allow ``count`` more children?"""
        return (self.cloning_enabled
                and self.clones_created + count <= self.max_clones)
