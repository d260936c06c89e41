"""Machine frames: ownership, sharing and COW accounting.

Xen tracks an owner for every machine page. Nephele's cloning (following
Snowflock's page-sharing mechanism, paper §5.2) transfers ownership of
shared pages to a pseudo-domain called ``dom_cow`` and bumps a reference
counter per sharing domain. A write to a shared page either copies it
(refcount > 1) or transfers ownership back to the writer (refcount == 1,
"adoption").

For scalability the simulation tracks frames as *extents* (runs of pages
with identical state) rather than one object per frame. Reference counts
are stored as a per-extent base count plus a run-length map of per-page
offsets and dead pages, so cloning a whole guest is O(#extents), while
COW faults and teardown stay exact per page at a cost of O(runs).

An extent is four fields: its page count, owner, page type and share
record. Being shared (owned by dom_cow) and being writable are derived
from them, and no extent stores a number or a label (the label only
names the allocation to the ``frames.alloc`` fault site). The frame
table still numbers the extents it creates, 1, 2, 3, ... in creation
order (:attr:`FrameTable.extents_created`), and the simulation uses an
extent's number as its first frame number. Only the numbers Xen
publishes are kept, on the domain: its start_info page's, which the
clone notification carries, and its Xenstore ring page's, which the
toolstack writes as ``store/ring-ref``.
"""

from __future__ import annotations

import enum
from bisect import bisect_right

from repro.faults.injector import NULL_INJECTOR
from repro.xen.domid import DOMID_COW, DOMID_INVALID
from repro.xen.errors import XenInvalidError, XenNoMemoryError


class PageType(enum.Enum):
    """Role of a page; determines clone policy (share / copy / rebuild)."""

    NORMAL = "normal"
    PAGE_TABLE = "page_table"
    P2M = "p2m"
    START_INFO = "start_info"
    SHARED_INFO = "shared_info"
    CONSOLE_RING = "console_ring"
    XENSTORE_RING = "xenstore_ring"
    IO_RING = "io_ring"
    RX_BUFFER = "rx_buffer"
    GRANT_TABLE = "grant_table"
    IDC_SHM = "idc_shm"


#: Page types that are private memory: never shared with clones but
#: duplicated or rebuilt instead (paper §4.1).
PRIVATE_PAGE_TYPES = frozenset(
    {
        PageType.PAGE_TABLE,
        PageType.P2M,
        PageType.START_INFO,
        PageType.SHARED_INFO,
        PageType.CONSOLE_RING,
        PageType.XENSTORE_RING,
        PageType.IO_RING,
        PageType.RX_BUFFER,
        PageType.GRANT_TABLE,
    }
)


#: Run value of pages freed or adopted out of their extent.
_DEAD = None
#: Run value of live pages at ``base_ref`` that a partial drop has
#: touched: their refcount equals a zero offset, but they still keep
#: the whole-extent drop fast path off, so ``base_ref`` evolves exactly
#: as with an explicit per-page delta of zero.
_TOUCHED = "touched"


def _offset(value) -> int:
    """Refcount offset from ``base_ref`` of a run value."""
    return 0 if value is _DEAD or value is _TOUCHED else value


class _RefRuns:
    """Run-length map of per-page refcount state over ``[0, count)``.

    ``bounds`` holds sorted breakpoints, from 0 to ``count`` inclusive;
    run ``k`` covers ``[bounds[k], bounds[k+1])`` and has value
    ``values[k]``: an int refcount offset from the extent's ``base_ref``
    (live), :data:`_TOUCHED` (live at offset 0) or :data:`_DEAD`.
    Adjacent runs always hold different values (coalesced).
    """

    __slots__ = ("bounds", "values")

    def __init__(self, count: int, value) -> None:
        self.bounds = [0, count]
        self.values = [value]

    def run_at(self, index: int) -> int:
        """Index of the run containing page ``index``."""
        return bisect_right(self.bounds, index) - 1

    def slice(self, start: int, end: int) -> tuple[int, int]:
        """Add breakpoints at ``start < end``; returns the runs ``[i, j)``
        that now cover exactly ``[start, end)``."""
        bounds, values = self.bounds, self.values
        i = bisect_right(bounds, start) - 1
        if bounds[i] != start:
            i += 1
            bounds.insert(i, start)
            values.insert(i, values[i - 1])
        j = bisect_right(bounds, end, i) - 1
        if bounds[j] != end:
            j += 1
            bounds.insert(j, end)
            values.insert(j, values[j - 1])
        return i, j

    def coalesce(self, i: int, j: int) -> None:
        """Merge equal neighbours among runs ``i-1 .. j`` after an update
        of runs ``[i, j)``."""
        lo = i - 1 if i > 0 else 0
        hi = j + 1 if j < len(self.values) else j
        bounds, values = self.bounds, self.values
        new_bounds = [bounds[lo]]
        new_values = [values[lo]]
        for k in range(lo + 1, hi):
            value = values[k]
            if value != new_values[-1]:
                new_bounds.append(bounds[k])
                new_values.append(value)
        bounds[lo:hi] = new_bounds
        values[lo:hi] = new_values


class PageRefs:
    """Per-page reference state of an extent whose pages are shared,
    dead or split off: what a live private extent does not carry.

    :meth:`FrameTable.share_to_cow` creates it (``base_ref`` 1),
    :meth:`FrameTable.free_extent` creates it for a private extent
    whose pages all died, and :meth:`FrameTable.split_private` for the
    extent it retires.
    """

    __slots__ = ("base_ref", "freed", "adopted", "runs", "cow_protected",
                 "retired")

    def __init__(self) -> None:
        #: Whole-extent reference count (number of domains mapping
        #: every page).
        self.base_ref = 0
        #: Pages whose last reference was dropped and whose frame was
        #: freed.
        self.freed = 0
        #: Pages adopted by their sole remaining sharer (frame moved,
        #: not freed).
        self.adopted = 0
        #: Per-page state where it differs from "live at ``base_ref``":
        #: ``None`` while the extent is uniform, created by the first
        #: partial operation.
        self.runs: _RefRuns | None = None
        #: Shared pages are normally read-only and copied on write. IDC
        #: shared-memory pages stay writable by the whole family (paper
        #: §5.2.2: IDC pages move to dom_cow "just like for any shared
        #: page", but both ends keep writing to them).
        self.cow_protected = True
        #: True once the extent was split; its pages live on in the
        #: parts. A retired extent may still be shared (it then shares
        #: no live page).
        self.retired = False


def _refs_field(name: str, private):
    """Read-only view of one :class:`PageRefs` field; ``private`` is
    its value for an extent without one."""
    def get(extent: "Extent"):
        refs = extent.refs
        return private if refs is None else getattr(refs, name)
    return property(get, doc=f"``PageRefs.{name}`` ({private!r} if none).")


class Extent:
    """A run of machine pages in identical ownership state.

    Compared and hashed by identity: a domain's memory map, the clone
    reset and the family metrics test membership with the extent
    itself.
    """

    __slots__ = ("count", "owner", "page_type", "refs")

    def __init__(self, count: int, owner: int, page_type: PageType) -> None:
        self.count = count
        self.owner = owner
        self.page_type = page_type
        #: Share, dead-page and split state; ``None`` for a live private
        #: extent.
        self.refs: PageRefs | None = None

    base_ref = _refs_field("base_ref", 0)
    freed = _refs_field("freed", 0)
    adopted = _refs_field("adopted", 0)
    runs = _refs_field("runs", None)
    cow_protected = _refs_field("cow_protected", True)
    retired = _refs_field("retired", False)

    @property
    def shared(self) -> bool:
        """Ownership moved to dom_cow and refcounting is active."""
        return self.owner == DOMID_COW

    @property
    def writable(self) -> bool:
        """May the mapping domains write without a COW fault? Private
        pages and shared IDC pages, yes; other shared pages, no."""
        return self.owner != DOMID_COW or not self.refs.cow_protected

    @property
    def live_pages(self) -> int:
        """Pages still accounted to this extent."""
        refs = self.refs
        if refs is None:
            return self.count
        if refs.retired:
            return 0
        return self.count - refs.freed - refs.adopted

    def effective_ref(self, index: int) -> int:
        """Reference count of page ``index`` (extent-local)."""
        if not 0 <= index < self.count:
            raise XenInvalidError(f"page index {index} outside extent of {self.count}")
        refs = self.refs
        if refs is None:
            return 0
        runs = refs.runs
        if runs is None:
            return refs.base_ref
        return refs.base_ref + _offset(runs.values[runs.run_at(index)])

    def is_dead(self, index: int) -> bool:
        """Was page ``index`` freed or adopted out of this extent?"""
        refs = self.refs
        if refs is None or refs.runs is None or not 0 <= index < self.count:
            return False
        runs = refs.runs
        return runs.values[runs.run_at(index)] is _DEAD

    def ref_run(self, index: int, limit: int) -> tuple[int, int]:
        """Refcount of page ``index`` and how many pages from ``index``
        on (at most ``limit``) are live with that same refcount.

        Page ``index`` itself always counts, dead or not; the caller
        rejects a dead first page by its refcount.
        """
        refs = self.refs
        if refs is None:
            return 0, limit
        base = refs.base_ref
        runs = refs.runs
        if runs is None:
            return base, limit
        bounds, values = runs.bounds, runs.values
        k = runs.run_at(index)
        value = values[k]
        ref = base + _offset(value)
        if value is _DEAD and index + 1 < bounds[k + 1]:
            return ref, 1
        stop = index + limit
        pos = bounds[k + 1]
        k += 1
        while pos < stop:
            value = values[k]
            if value is _DEAD or base + _offset(value) != ref:
                break
            k += 1
            pos = bounds[k]
        return ref, (pos if pos < stop else stop) - index

    def _first_unadoptable(self, index: int, count: int) -> int:
        """First page of ``[index, index+count)``, ``count > 0``, that is
        dead or whose refcount is not 1; -1 if there is none."""
        refs = self.refs
        if refs is None:
            return index
        base = refs.base_ref
        runs = refs.runs
        if runs is None:
            return -1 if base == 1 else index
        bounds, values = runs.bounds, runs.values
        k = runs.run_at(index)
        end = index + count
        while k < len(values) and bounds[k] < end:
            value = values[k]
            if value is _DEAD or base + _offset(value) != 1:
                return max(bounds[k], index)
            k += 1
        return -1

    def _slice(self, start: int, end: int) -> tuple[_RefRuns, int, int]:
        """The run map (created on first use), split so that its runs
        ``[i, j)`` cover exactly pages ``[start, end)``."""
        refs = self.refs
        runs = refs.runs
        if runs is None:
            runs = refs.runs = _RefRuns(self.count, 0)
        i, j = runs.slice(start, end)
        return runs, i, j

    def _settle(self, runs: _RefRuns, i: int, j: int) -> None:
        """Coalesce after updating runs ``[i, j)``; a map left with one
        untouched run at offset 0 carries nothing and is dropped."""
        runs.coalesce(i, j)
        if runs.values == [0]:
            self.refs.runs = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "shared" if self.shared else "private"
        return (
            f"Extent({self.page_type.value} {state} owner={self.owner} "
            f"count={self.count} live={self.live_pages})"
        )


class FrameTable:
    """Machine frame accounting for one physical host.

    Tracks the free pool and per-owner page counts; extents move pages
    between owners. All methods are pure accounting - virtual-time costs
    are charged by the callers (hypervisor / clone engine).
    """

    def __init__(self, total_frames: int) -> None:
        if total_frames <= 0:
            raise XenInvalidError(f"non-positive frame count: {total_frames}")
        self.total_frames = total_frames
        self.free_frames = total_frames
        #: Fault-injection hooks (repro.faults); the hypervisor installs
        #: the platform injector here, everyone else gets the no-op.
        self.faults = NULL_INJECTOR
        self._owned: dict[int, int] = {}
        #: Extents created so far, so also the number of the newest
        #: one: extents are numbered 1, 2, 3, ... in creation order.
        #: Numbers, like frames, are per host.
        self.extents_created = 0
        #: Cumulative counters, for tests and experiment reporting.
        self.stats = {
            "allocs": 0,
            "frees": 0,
            "shares": 0,
            "cow_copies": 0,
            "cow_adoptions": 0,
        }

    # ------------------------------------------------------------------
    # basic allocation
    # ------------------------------------------------------------------
    def pages_owned(self, domid: int) -> int:
        """Machine pages currently charged to ``domid``."""
        return self._owned.get(domid, 0)

    def alloc(self, owner: int, count: int, page_type: PageType = PageType.NORMAL,
              label: str = "") -> Extent:
        """Allocate ``count`` frames for ``owner``; ``label`` names the
        allocation to the ``frames.alloc`` fault site only."""
        if count <= 0:
            raise XenInvalidError(f"non-positive page count: {count}")
        if owner == DOMID_INVALID or owner == DOMID_COW:
            raise XenInvalidError(f"cannot allocate for domain {owner:#x}")
        if self.faults.enabled:
            self.faults.fire("frames.alloc", owner=owner, count=count,
                             page_type=page_type.value, label=label)
        if count > self.free_frames:
            raise XenNoMemoryError(
                f"requested {count} frames, {self.free_frames} free"
            )
        self.free_frames -= count
        self._credit(owner, count)
        self.stats["allocs"] += count
        self.extents_created += 1
        return Extent(count, owner, page_type)

    def split_private(self, extent: Extent,
                      parts: list[tuple[int, PageType]]) -> list[Extent]:
        """Split an unshared extent into consecutive new extents.

        No frames move; the original extent is retired and each
        ``(count, page_type)`` part with pages takes over its share of
        them. Used to retype a sub-range (e.g. carving an IDC area out
        of the guest heap).
        """
        if extent.shared:
            raise XenInvalidError(f"cannot split shared {extent!r}")
        if extent.retired:
            raise XenInvalidError(f"{extent!r} is already retired")
        if extent.refs is not None:
            raise XenInvalidError(f"cannot split partially-dead {extent!r}")
        covered = sum(count for count, _ in parts)
        if covered != extent.count:
            raise XenInvalidError(
                f"split parts cover {covered} pages, extent has {extent.count}")
        pieces = [Extent(count, extent.owner, page_type)
                  for count, page_type in parts if count > 0]
        self.extents_created += len(pieces)
        refs = extent.refs = PageRefs()
        refs.retired = True
        return pieces

    def free_extent(self, extent: Extent) -> int:
        """Release all live pages of a private extent back to the pool."""
        if extent.shared:
            raise XenInvalidError("shared extents are released via drop_ref_range")
        if extent.retired:
            raise XenInvalidError(f"{extent!r} was split; free its parts")
        live = extent.live_pages
        self._debit(extent.owner, live)
        self.free_frames += live
        refs = extent.refs
        if refs is None:
            refs = extent.refs = PageRefs()
        refs.freed = extent.count - refs.adopted
        refs.runs = _RefRuns(extent.count, _DEAD)
        self.stats["frees"] += live
        return live

    # ------------------------------------------------------------------
    # sharing / COW
    # ------------------------------------------------------------------
    def share_to_cow(self, extent: Extent) -> None:
        """Transfer ownership of a private extent to dom_cow.

        The previous owner keeps referencing every page (base_ref = 1);
        clones are added with :meth:`add_sharer`. The extent's
        :class:`PageRefs` record is created here.
        """
        if extent.shared:
            raise XenInvalidError(f"{extent!r} is already shared")
        if extent.page_type in PRIVATE_PAGE_TYPES:
            raise XenInvalidError(
                f"page type {extent.page_type.value} is private memory"
            )
        live = extent.live_pages
        self._debit(extent.owner, live)
        self._credit(DOMID_COW, live)
        extent.owner = DOMID_COW
        refs = extent.refs
        if refs is None:
            refs = extent.refs = PageRefs()
        refs.base_ref = 1
        refs.cow_protected = extent.page_type is not PageType.IDC_SHM
        self.stats["shares"] += live

    def add_sharer(self, extent: Extent) -> None:
        """Register one more domain mapping every live page of ``extent``."""
        if not extent.shared:
            raise XenInvalidError(f"{extent!r} is not shared")
        extent.refs.base_ref += 1

    def add_ref_range(self, extent: Extent, start: int, count: int) -> None:
        """Add one reference to pages ``[start, start+count)`` only.

        Used by partial mappings (e.g. clone-reset baselines over split
        segments). Dead pages cannot be re-referenced.
        """
        if not extent.shared:
            raise XenInvalidError(f"{extent!r} is not shared")
        self._check_range(extent, start, count)
        refs = extent.refs
        runs = refs.runs
        if start == 0 and count == extent.count \
                and (runs is None or _DEAD not in runs.values):
            refs.base_ref += 1
            return
        if count == 0:
            return
        runs, i, j = extent._slice(start, start + count)
        values = runs.values
        dead_page = -1
        for k in range(i, j):
            value = values[k]
            if value is _DEAD:
                # Pages before the dead one keep their new reference.
                dead_page = runs.bounds[k]
                break
            values[k] = _offset(value) + 1
        extent._settle(runs, i, j)
        if dead_page >= 0:
            raise XenInvalidError(
                f"cannot re-reference dead page {dead_page} of {extent!r}")

    def drop_ref_range(self, extent: Extent, start: int, count: int) -> int:
        """Drop one reference on pages ``[start, start+count)``.

        Returns the number of frames freed (pages whose last reference
        vanished). Used both by COW copies (the writer stops referencing
        the shared page) and by domain teardown.
        """
        if not extent.shared:
            raise XenInvalidError(f"{extent!r} is not shared")
        self._check_range(extent, start, count)
        freed = 0
        refs = extent.refs
        if start == 0 and count == extent.count and refs.runs is None:
            # Fast path: uniform refcount across the whole extent.
            refs.base_ref -= 1
            if refs.base_ref == 0:
                freed = extent.live_pages
                refs.freed += freed
                refs.runs = _RefRuns(extent.count, _DEAD)
        elif count:
            runs, i, j = extent._slice(start, start + count)
            bounds, values = runs.bounds, runs.values
            base = refs.base_ref
            for k in range(i, j):
                value = values[k]
                if value is _DEAD:
                    continue
                offset = _offset(value) - 1
                if base + offset == 0:
                    values[k] = _DEAD
                    freed += bounds[k + 1] - bounds[k]
                else:
                    values[k] = offset if offset else _TOUCHED
            refs.freed += freed
            extent._settle(runs, i, j)
        if freed:
            self._debit(DOMID_COW, freed)
            self.free_frames += freed
            self.stats["frees"] += freed
        return freed

    def cow_copy(self, extent: Extent, index: int, new_owner: int,
                 count: int = 1) -> Extent:
        """Copy pages ``[index, index+count)`` of a shared extent for a writer.

        Allocates fresh private frames for ``new_owner`` and drops the
        writer's references on the shared originals.
        """
        copy = self.alloc(new_owner, count, PageType.NORMAL, label="cow")
        self.drop_ref_range(extent, index, count)
        self.stats["cow_copies"] += count
        return copy

    def cow_adopt(self, extent: Extent, index: int, new_owner: int,
                  count: int = 1) -> Extent:
        """Sole-sharer fast path: move pages back to the writer.

        No frame is allocated or copied; ownership transfers from dom_cow
        to ``new_owner`` (paper §5.2: "on the next page fault the
        ownership is transferred from dom_cow to the domain generating
        the fault"). Every page in the range must have refcount 1.
        """
        self._check_range(extent, index, count)
        page = extent._first_unadoptable(index, count) if count else -1
        if page >= 0:
            raise XenInvalidError(
                f"page {page} of {extent!r} has refcount "
                f"{extent.effective_ref(page)}, adoption needs exactly 1"
            )
        if count:
            # Only a shared extent has a page at refcount 1.
            extent.refs.adopted += count
            runs, i, j = extent._slice(index, index + count)
            runs.values[i:j] = [_DEAD] * (j - i)
            extent._settle(runs, i, j)
        self._debit(DOMID_COW, count)
        self._credit(new_owner, count)
        self.stats["cow_adoptions"] += count
        self.extents_created += 1
        return Extent(count, new_owner, PageType.NORMAL)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Frame conservation: free + owned == total. Raises on violation."""
        owned = sum(self._owned.values())
        if self.free_frames + owned != self.total_frames:
            raise AssertionError(
                f"frame leak: free={self.free_frames} owned={owned} "
                f"total={self.total_frames}"
            )
        if self.free_frames < 0:
            raise AssertionError(f"negative free frames: {self.free_frames}")
        for domid, count in self._owned.items():
            if count < 0:
                raise AssertionError(f"negative ownership for dom {domid}: {count}")

    @staticmethod
    def _check_range(extent: Extent, start: int, count: int) -> None:
        if start < 0 or count < 0 or start + count > extent.count:
            raise XenInvalidError(
                f"range [{start}, {start + count}) outside extent of {extent.count}"
            )

    def _credit(self, owner: int, count: int) -> None:
        if count == 0:
            return
        self._owned[owner] = self._owned.get(owner, 0) + count

    def _debit(self, owner: int, count: int) -> None:
        if count == 0:
            return
        current = self._owned.get(owner, 0)
        if current < count:
            raise XenInvalidError(
                f"domain {owner} owns {current} pages, cannot release {count}"
            )
        remaining = current - count
        if remaining:
            self._owned[owner] = remaining
        else:
            del self._owned[owner]
