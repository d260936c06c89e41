"""Grant tables.

Grants are Xen's primitive for sharing memory across domains: the
granter publishes a grant reference for one of its pages, naming the
domain allowed to map it. Nephele extends the interface with the
``DOMID_CHILD`` wildcard so a parent can grant pages to clones that do
not exist yet (paper §5.1), and the first stage of cloning copies the
parent's grant table to each child (paper §5, step 1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.xen.domid import DOMID_CHILD
from repro.xen.errors import XenBusyError, XenInvalidError, XenNoEntryError, \
    XenPermissionError


@dataclass
class GrantEntry:
    """One active grant."""

    gref: int
    granter: int
    grantee: int
    pfn: int
    readonly: bool = False
    #: Domains currently holding a mapping of this grant.
    mapped_by: set[int] = field(default_factory=set)

    def allows(self, domid: int, family_children: frozenset[int]) -> bool:
        """May ``domid`` map this grant?

        ``family_children`` is the set of descendants of the granter,
        consulted when the grantee is the DOMID_CHILD wildcard.
        """
        if self.grantee == DOMID_CHILD:
            return domid in family_children
        return domid == self.grantee


class GrantTable:
    """Per-domain table of grants issued by that domain."""

    #: Frames backing the grant table itself (private memory on clone).
    TABLE_FRAMES = 1

    def __init__(self, domid: int) -> None:
        self.domid = domid
        self._entries: dict[int, GrantEntry] = {}
        #: Pending lazy clone: a snapshot of the source table's entries
        #: taken by :meth:`clone_for_child`, materialized into
        #: ``_entries`` on first access. The snapshotted entries are
        #: never mutated in the fields we copy (only ``mapped_by``
        #: changes after publication, and mappings are not inherited),
        #: so holding references is safe.
        self._source_items: list[GrantEntry] | None = None
        self._next_gref = 1

    @property
    def entries(self) -> dict[int, GrantEntry]:
        """The grant dict, materializing a pending lazy clone."""
        items = self._source_items
        if items is not None:
            self._source_items = None
            entries = self._entries
            domid = self.domid
            for entry in items:
                gref = entry.gref
                entries[gref] = GrantEntry(
                    gref=gref, granter=domid, grantee=entry.grantee,
                    pfn=entry.pfn, readonly=entry.readonly)
        return self._entries

    def __len__(self) -> int:
        items = self._source_items
        if items is not None:
            return len(items)
        return len(self._entries)

    def grant_access(self, grantee: int, pfn: int, readonly: bool = False) -> int:
        """Publish a grant for ``pfn`` to ``grantee`` (may be DOMID_CHILD)."""
        if pfn < 0:
            raise XenInvalidError(f"negative pfn: {pfn}")
        if grantee == self.domid:
            raise XenInvalidError("cannot grant a page to oneself")
        gref = self._next_gref
        self._next_gref = gref + 1
        self.entries[gref] = GrantEntry(
            gref=gref, granter=self.domid, grantee=grantee, pfn=pfn,
            readonly=readonly,
        )
        return gref

    def lookup(self, gref: int) -> GrantEntry:
        """The entry for ``gref`` (ENOENT if absent)."""
        entry = self.entries.get(gref)
        if entry is None:
            raise XenNoEntryError(f"grant {gref} not found in domain {self.domid}")
        return entry

    def map_grant(self, gref: int, mapper: int,
                  family_children: frozenset[int] = frozenset()) -> GrantEntry:
        """Record that ``mapper`` mapped grant ``gref``."""
        entry = self.lookup(gref)
        if not entry.allows(mapper, family_children):
            raise XenPermissionError(
                f"domain {mapper} may not map grant {gref} "
                f"(grantee {entry.grantee})"
            )
        entry.mapped_by.add(mapper)
        return entry

    def unmap_grant(self, gref: int, mapper: int) -> None:
        """Drop ``mapper``'s mapping of ``gref``."""
        entry = self.lookup(gref)
        entry.mapped_by.discard(mapper)

    def end_access(self, gref: int) -> None:
        """Withdraw a grant. Fails while a foreign mapping is live."""
        entry = self.lookup(gref)
        if entry.mapped_by:
            raise XenBusyError(
                f"grant {gref} still mapped by {sorted(entry.mapped_by)}"
            )
        del self.entries[gref]

    def clone_for_child(self, child_domid: int) -> "GrantTable":
        """First-stage copy of the grant table for a clone.

        Grefs are preserved (the guest's data structures reference them);
        the granter field is rewritten to the child. Mappings held by
        other domains are not inherited.

        The copy is lazy: this is O(1), snapshotting the source entries
        by reference; the child builds its own entry objects on first
        table access. A fleet of N clones that never touch their
        inherited grants (the common case — the parent grants, children
        map) pays for zero copies instead of N.
        """
        child = GrantTable(child_domid)
        entries = self.entries  # materializes *this* table if lazy
        if entries:
            child._source_items = list(entries.values())
            # Keep allocating above the highest inherited gref.
            child._next_gref = max(entries) + 1
        return child

    def child_wildcard_grants(self) -> list[GrantEntry]:
        """Grants naming DOMID_CHILD - the parent's IDC pages."""
        return [e for e in self.entries.values() if e.grantee == DOMID_CHILD]
