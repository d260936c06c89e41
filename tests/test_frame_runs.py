"""Run-length page refcounts against a per-page reference model.

``RefExtent`` / ``RefFrameTable`` keep the per-page bookkeeping the
frame table used before refcounts became runs: a sparse ``ref_delta``
dict and a ``dead_pages`` set. A hypothesis state machine drives both
implementations through the same random operations and requires them
to agree page for page after every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.xen.domid import DOMID_COW
from repro.xen.errors import XenError, XenInvalidError, XenNoMemoryError
from repro.xen.frames import PRIVATE_PAGE_TYPES, FrameTable, PageType


# ----------------------------------------------------------------------
# reference model: one dict entry / set member per page
# ----------------------------------------------------------------------
@dataclass(eq=False)
class RefExtent:
    count: int
    owner: int
    page_type: PageType
    shared: bool = False
    #: Shared pages are copied on write, except IDC pages.
    writable: bool = True
    base_ref: int = 0
    ref_delta: dict[int, int] = field(default_factory=dict)
    freed: int = 0
    adopted: int = 0
    dead_pages: set[int] = field(default_factory=set)
    retired: bool = False

    @property
    def live_pages(self) -> int:
        if self.retired:
            return 0
        return self.count - self.freed - self.adopted

    def effective_ref(self, index: int) -> int:
        if not 0 <= index < self.count:
            raise XenInvalidError(f"page index {index} outside extent")
        return self.base_ref + self.ref_delta.get(index, 0)

    def is_dead(self, index: int) -> bool:
        return index in self.dead_pages

    def ref_run(self, index: int, limit: int) -> tuple[int, int]:
        """The equal-refcount run scan of ``GuestMemory``'s COW path."""
        delta, dead, base = self.ref_delta, self.dead_pages, self.base_ref
        ref = base + delta.get(index, 0)
        if not delta and not dead:
            return ref, limit
        run = 1
        while run < limit:
            nxt = index + run
            if nxt in dead or base + delta.get(nxt, 0) != ref:
                break
            run += 1
        return ref, run


class RefFrameTable:
    def __init__(self, total_frames: int) -> None:
        self.total_frames = total_frames
        self.free_frames = total_frames
        self._owned: dict[int, int] = {}
        self.stats = dict.fromkeys(
            ("allocs", "frees", "shares", "cow_copies", "cow_adoptions"), 0)

    def pages_owned(self, domid: int) -> int:
        return self._owned.get(domid, 0)

    def alloc(self, owner, count, page_type=PageType.NORMAL):
        if count <= 0:
            raise XenInvalidError("non-positive page count")
        if count > self.free_frames:
            raise XenNoMemoryError("out of frames")
        self.free_frames -= count
        self._credit(owner, count)
        self.stats["allocs"] += count
        return RefExtent(count=count, owner=owner, page_type=page_type)

    def split_private(self, extent, parts):
        if extent.shared or extent.retired or extent.freed or extent.adopted:
            raise XenInvalidError("cannot split")
        if sum(count for count, _ in parts) != extent.count:
            raise XenInvalidError("split parts do not cover the extent")
        pieces = [RefExtent(count=count, owner=extent.owner,
                            page_type=page_type)
                  for count, page_type in parts if count > 0]
        extent.retired = True
        return pieces

    def free_extent(self, extent):
        if extent.shared or extent.retired:
            raise XenInvalidError("cannot free")
        live = extent.live_pages
        self._debit(extent.owner, live)
        self.free_frames += live
        extent.freed = extent.count - extent.adopted
        extent.dead_pages.update(range(extent.count))
        self.stats["frees"] += live
        return live

    def share_to_cow(self, extent):
        if extent.shared:
            raise XenInvalidError("already shared")
        if extent.page_type in PRIVATE_PAGE_TYPES:
            raise XenInvalidError("private memory")
        self._debit(extent.owner, extent.live_pages)
        self._credit(DOMID_COW, extent.live_pages)
        extent.owner = DOMID_COW
        extent.shared = True
        extent.writable = extent.page_type is PageType.IDC_SHM
        extent.base_ref = 1
        self.stats["shares"] += extent.live_pages

    def add_sharer(self, extent):
        if not extent.shared:
            raise XenInvalidError("not shared")
        extent.base_ref += 1

    def _check_range(self, extent, start, count):
        if not extent.shared:
            raise XenInvalidError("not shared")
        if start < 0 or count < 0 or start + count > extent.count:
            raise XenInvalidError("range outside extent")

    def add_ref_range(self, extent, start, count):
        self._check_range(extent, start, count)
        if start == 0 and count == extent.count and not extent.dead_pages:
            extent.base_ref += 1
            return
        delta, dead = extent.ref_delta, extent.dead_pages
        for index in range(start, start + count):
            if index in dead:
                raise XenInvalidError("cannot re-reference a dead page")
            value = delta.get(index, 0) + 1
            if value == 0:
                del delta[index]
            else:
                delta[index] = value

    def drop_ref_range(self, extent, start, count):
        self._check_range(extent, start, count)
        freed = 0
        if start == 0 and count == extent.count and not extent.ref_delta \
                and not extent.dead_pages:
            extent.base_ref -= 1
            if extent.base_ref == 0:
                freed = extent.live_pages
                extent.freed += freed
                extent.dead_pages.update(range(extent.count))
        else:
            delta, dead, base = extent.ref_delta, extent.dead_pages, \
                extent.base_ref
            for index in range(start, start + count):
                if index in dead:
                    continue
                new_ref = base + delta.get(index, 0) - 1
                if new_ref == 0:
                    extent.freed += 1
                    dead.add(index)
                    delta.pop(index, None)
                    freed += 1
                else:
                    delta[index] = new_ref - base
        if freed:
            self._debit(DOMID_COW, freed)
            self.free_frames += freed
            self.stats["frees"] += freed
        return freed

    def cow_copy(self, extent, index, new_owner, count=1):
        copy = self.alloc(new_owner, count)
        self.drop_ref_range(extent, index, count)
        self.stats["cow_copies"] += count
        return copy

    def cow_adopt(self, extent, index, new_owner, count=1):
        base, delta, dead = extent.base_ref, extent.ref_delta, \
            extent.dead_pages
        for i in range(index, index + count):
            if base + delta.get(i, 0) != 1 or i in dead:
                raise XenInvalidError("adoption needs refcount 1")
        extent.adopted += count
        for i in range(index, index + count):
            dead.add(i)
            delta.pop(i, None)
        self._debit(DOMID_COW, count)
        self._credit(new_owner, count)
        self.stats["cow_adoptions"] += count
        return RefExtent(count=count, owner=new_owner,
                         page_type=PageType.NORMAL)

    def check_invariants(self):
        owned = sum(self._owned.values())
        if self.free_frames + owned != self.total_frames:
            raise AssertionError("frame leak")
        if self.free_frames < 0 or any(c < 0 for c in self._owned.values()):
            raise AssertionError("negative count")

    def _credit(self, owner, count):
        if count:
            self._owned[owner] = self._owned.get(owner, 0) + count

    def _debit(self, owner, count):
        if not count:
            return
        current = self._owned.get(owner, 0)
        if current < count:
            raise XenInvalidError("cannot release more than owned")
        if current - count:
            self._owned[owner] = current - count
        else:
            del self._owned[owner]


# ----------------------------------------------------------------------
# the state machine
# ----------------------------------------------------------------------
def _outcome(fn, *args):
    """``("ok", value)`` or ``("raised", error type)``."""
    try:
        return "ok", fn(*args)
    except XenError as exc:
        return "raised", type(exc)


def _range(extent_count: int, a: int, b: int) -> tuple[int, int]:
    """A range that is often the whole extent (the fast paths), usually
    inside ``[0, count)`` and sometimes not."""
    if a % 4 == 0:
        return 0, extent_count
    start = a % (extent_count + 2) - 1
    count = b % (extent_count + 2)
    return start, count


class FrameRunsMachine(RuleBasedStateMachine):
    """Both frame tables, fed the same operations."""

    def __init__(self) -> None:
        super().__init__()
        self.table = FrameTable(192)
        self.ref = RefFrameTable(192)
        self.pairs: list[tuple] = []

    @initialize(count=st.integers(1, 16))
    def shared_extent(self, count):
        """Start from one shared extent, the subject of most operations."""
        new = self.table.alloc(1, count)
        old = self.ref.alloc(1, count)
        self.table.share_to_cow(new)
        self.ref.share_to_cow(old)
        self.pairs.append((new, old))

    def _pair(self, pick: int) -> tuple:
        return self.pairs[pick % len(self.pairs)]

    def _both(self, name: str, pick: int, *args):
        new, old = self._pair(pick)
        got = _outcome(getattr(self.table, name), new, *args)
        want = _outcome(getattr(self.ref, name), old, *args)
        assert got[0] == want[0], (name, args, got, want)
        if got[0] == "raised":
            assert got[1] is want[1], (name, args, got, want)
        return got, want

    def _adopt_results(self, got, want) -> None:
        """Keep extents handed back by an operation in the pool."""
        if got[0] != "ok":
            return
        new_list = got[1] if isinstance(got[1], list) else [got[1]]
        old_list = want[1] if isinstance(want[1], list) else [want[1]]
        assert len(new_list) == len(old_list)
        # An empty adoption hands back a zero-page extent: nothing to
        # drive further.
        self.pairs.extend((new, old) for new, old in zip(new_list, old_list)
                          if new.count)

    @rule(owner=st.integers(1, 3), count=st.integers(1, 24),
          page_type=st.sampled_from([PageType.NORMAL, PageType.NORMAL,
                                     PageType.IDC_SHM, PageType.PAGE_TABLE]))
    def alloc(self, owner, count, page_type):
        got = _outcome(self.table.alloc, owner, count, page_type)
        want = _outcome(self.ref.alloc, owner, count, page_type)
        assert got[0] == want[0]
        self._adopt_results(got, want)

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(0, 999), cut_a=st.integers(0, 30),
          cut_b=st.integers(0, 30))
    def split_private(self, pick, cut_a, cut_b):
        new, _ = self._pair(pick)
        a = cut_a % (new.count + 1)
        b = cut_b % (new.count - a + 1)
        parts = [(a, PageType.NORMAL),
                 (b, PageType.IDC_SHM),
                 (new.count - a - b, PageType.NORMAL)]
        self._adopt_results(*self._both("split_private", pick, parts))

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(0, 999))
    def free_extent(self, pick):
        got, want = self._both("free_extent", pick)
        assert got == want

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(0, 999))
    def share_to_cow(self, pick):
        self._both("share_to_cow", pick)

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(0, 999))
    def add_sharer(self, pick):
        self._both("add_sharer", pick)

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(0, 999), a=st.integers(0, 99),
          b=st.integers(0, 99))
    def add_ref_range(self, pick, a, b):
        start, count = _range(self._pair(pick)[0].count, a, b)
        self._both("add_ref_range", pick, start, count)

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(0, 999), a=st.integers(0, 99),
          b=st.integers(0, 99))
    def drop_ref_range(self, pick, a, b):
        start, count = _range(self._pair(pick)[0].count, a, b)
        got, want = self._both("drop_ref_range", pick, start, count)
        assert got == want

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(0, 999), a=st.integers(0, 99),
          b=st.integers(0, 99), owner=st.integers(1, 3))
    def cow_copy(self, pick, a, b, owner):
        start, count = _range(self._pair(pick)[0].count, a, b)
        self._adopt_results(
            *self._both("cow_copy", pick, start, owner, count))

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(0, 999), a=st.integers(0, 99),
          b=st.integers(0, 99), owner=st.integers(1, 3))
    def cow_adopt(self, pick, a, b, owner):
        # The reference model predates the adoption range check, so
        # only in-range adoptions are compared here.
        size = self._pair(pick)[0].count
        start = a % size
        count = b % (size - start + 1)
        self._adopt_results(
            *self._both("cow_adopt", pick, start, owner, count))

    @precondition(lambda self: self.pairs)
    @rule(pick=st.integers(0, 999), a=st.integers(0, 99),
          b=st.integers(1, 99))
    def ref_run(self, pick, a, b):
        new, old = self._pair(pick)
        index = a % new.count
        limit = 1 + (b - 1) % (new.count - index)
        assert new.ref_run(index, limit) == old.ref_run(index, limit)

    @invariant()
    def extents_agree(self):
        for new, old in self.pairs:
            assert (new.count, new.owner, new.page_type, new.shared,
                    new.writable, new.retired, new.base_ref) == \
                (old.count, old.owner, old.page_type, old.shared,
                 old.writable, old.retired, old.base_ref)
            assert (new.live_pages, new.freed, new.adopted) == \
                (old.live_pages, old.freed, old.adopted)
            for i in range(new.count):
                assert new.effective_ref(i) == old.effective_ref(i), (new, i)
                assert new.is_dead(i) == old.is_dead(i), (new, i)

    @invariant()
    def runs_are_canonical(self):
        for new, _ in self.pairs:
            runs = new.runs
            if runs is None:
                continue
            bounds, values = runs.bounds, runs.values
            assert bounds[0] == 0 and bounds[-1] == new.count
            assert len(bounds) == len(values) + 1
            assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
            assert all(a != b for a, b in zip(values, values[1:]))
            assert values != [0], "a uniform extent keeps no map"

    @invariant()
    def tables_agree(self):
        assert self.table.free_frames == self.ref.free_frames
        assert self.table.stats == self.ref.stats
        for domid in (1, 2, 3, DOMID_COW):
            assert self.table.pages_owned(domid) == self.ref.pages_owned(domid)
        assert _invariants_hold(self.table) == _invariants_hold(self.ref)


def _invariants_hold(table) -> bool:
    try:
        table.check_invariants()
    except AssertionError:
        return False
    return True


FrameRunsMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestFrameRunsMatchPerPageModel = FrameRunsMachine.TestCase


# ----------------------------------------------------------------------
# targeted cases
# ----------------------------------------------------------------------
def test_touched_pages_keep_the_drop_fast_path_off():
    """Partial add then partial drop leaves pages at ``base_ref`` but
    touched; a whole-extent drop then goes page by page, so dead pages
    still report the unchanged ``base_ref``, as with a per-page delta."""
    table, ref = FrameTable(64), RefFrameTable(64)
    new = table.alloc(1, 8)
    old = ref.alloc(1, 8)
    for t, e in ((table, new), (ref, old)):
        t.share_to_cow(e)
        t.add_ref_range(e, 0, 4)
        t.drop_ref_range(e, 0, 4)
    assert new.runs is not None
    assert table.drop_ref_range(new, 0, 8) == ref.drop_ref_range(old, 0, 8) == 8
    assert new.base_ref == old.base_ref == 1
    assert [new.effective_ref(i) for i in range(8)] == [1] * 8


def test_partial_operations_cost_runs_not_pages():
    """A huge extent with a few divergent ranges stays a few runs."""
    table = FrameTable(1 << 22)
    extent = table.alloc(1, 1 << 21, label="big")
    table.share_to_cow(extent)
    table.add_sharer(extent)
    table.cow_copy(extent, 1000, 2, count=64)
    table.drop_ref_range(extent, 0, 1 << 20)
    assert extent.runs.values == [-1, None, -1, 0]
    assert table.drop_ref_range(extent, 0, 1 << 21) == (1 << 20) - 64
    assert extent.runs.values == [None, -1]
    assert table.drop_ref_range(extent, 0, 1 << 21) == 1 << 20
    assert extent.live_pages == 0
    assert extent.runs.values == [None]
    table.check_invariants()


def test_map_collapses_when_pages_return_to_base():
    table = FrameTable(64)
    extent = table.alloc(1, 8, label="u")
    table.share_to_cow(extent)
    table.add_sharer(extent)
    table.drop_ref_range(extent, 2, 3)
    assert extent.runs is not None
    table.add_ref_range(extent, 2, 3)
    assert extent.runs is None
    assert table.drop_ref_range(extent, 0, 8) == 0
    assert extent.base_ref == 1


def test_add_ref_range_keeps_prefix_before_dead_page():
    table = FrameTable(64)
    extent = table.alloc(1, 6, label="d")
    table.share_to_cow(extent)
    table.drop_ref_range(extent, 3, 1)  # page 3 dies
    with pytest.raises(XenInvalidError):
        table.add_ref_range(extent, 1, 4)
    assert [extent.effective_ref(i) for i in range(6)] == [1, 2, 2, 1, 1, 1]


def test_cow_adopt_rejects_out_of_range():
    table = FrameTable(64)
    extent = table.alloc(1, 4, label="r")
    table.share_to_cow(extent)
    with pytest.raises(XenInvalidError):
        table.cow_adopt(extent, 3, 2, count=2)
    with pytest.raises(XenInvalidError):
        table.cow_adopt(extent, -1, 2)
    assert extent.adopted == 0
    table.check_invariants()
