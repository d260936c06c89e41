"""Unit tests: frame table, sharing, COW accounting."""

import pytest

from repro.xen.domid import DOMID_COW, DOMID_INVALID
from repro.xen.errors import XenInvalidError, XenNoMemoryError
from repro.xen.frames import FrameTable, PageType


def test_alloc_debits_free_pool(frames):
    before = frames.free_frames
    extent = frames.alloc(owner=1, count=100)
    assert frames.free_frames == before - 100
    assert frames.pages_owned(1) == 100
    assert extent.live_pages == 100
    frames.check_invariants()


def test_alloc_rejects_overcommit():
    table = FrameTable(10)
    with pytest.raises(XenNoMemoryError):
        table.alloc(owner=1, count=11)


def test_alloc_rejects_bad_args(frames):
    with pytest.raises(XenInvalidError):
        frames.alloc(owner=1, count=0)
    with pytest.raises(XenInvalidError):
        frames.alloc(owner=DOMID_INVALID, count=1)


def test_free_returns_pages(frames):
    extent = frames.alloc(owner=1, count=50)
    freed = frames.free_extent(extent)
    assert freed == 50
    assert frames.pages_owned(1) == 0
    assert frames.free_frames == frames.total_frames
    frames.check_invariants()


def test_share_moves_ownership_to_dom_cow(frames):
    extent = frames.alloc(owner=1, count=10)
    frames.share_to_cow(extent)
    assert extent.owner == DOMID_COW
    assert extent.shared
    assert not extent.writable
    assert frames.pages_owned(1) == 0
    assert frames.pages_owned(DOMID_COW) == 10
    assert extent.base_ref == 1
    frames.check_invariants()


def test_share_rejects_private_page_types(frames):
    extent = frames.alloc(owner=1, count=1, page_type=PageType.PAGE_TABLE)
    with pytest.raises(XenInvalidError):
        frames.share_to_cow(extent)


def test_double_share_rejected(frames):
    extent = frames.alloc(owner=1, count=1)
    frames.share_to_cow(extent)
    with pytest.raises(XenInvalidError):
        frames.share_to_cow(extent)


def test_idc_pages_stay_writable_when_shared(frames):
    extent = frames.alloc(owner=1, count=4, page_type=PageType.IDC_SHM)
    frames.share_to_cow(extent)
    assert extent.shared
    assert not extent.cow_protected
    assert extent.writable


def test_add_sharer_bumps_refcount(frames):
    extent = frames.alloc(owner=1, count=10)
    frames.share_to_cow(extent)
    frames.add_sharer(extent)
    frames.add_sharer(extent)
    assert extent.effective_ref(0) == 3
    assert extent.effective_ref(9) == 3


def test_add_sharer_requires_shared(frames):
    extent = frames.alloc(owner=1, count=1)
    with pytest.raises(XenInvalidError):
        frames.add_sharer(extent)


def test_drop_last_ref_frees_frames(frames):
    extent = frames.alloc(owner=1, count=10)
    frames.share_to_cow(extent)
    freed = frames.drop_ref_range(extent, 0, 10)
    assert freed == 10
    assert extent.live_pages == 0
    assert frames.free_frames == frames.total_frames
    frames.check_invariants()


def test_drop_partial_range(frames):
    extent = frames.alloc(owner=1, count=10)
    frames.share_to_cow(extent)
    frames.add_sharer(extent)
    freed = frames.drop_ref_range(extent, 2, 3)
    assert freed == 0  # refcount went 2 -> 1, pages stay live
    assert extent.effective_ref(2) == 1
    assert extent.effective_ref(1) == 2
    freed = frames.drop_ref_range(extent, 2, 3)
    assert freed == 3  # now dead
    assert extent.live_pages == 7
    frames.check_invariants()


def test_cow_copy_allocates_and_drops(frames):
    extent = frames.alloc(owner=1, count=10)
    frames.share_to_cow(extent)
    frames.add_sharer(extent)  # two sharers
    copy = frames.cow_copy(extent, 0, new_owner=2, count=2)
    assert copy.owner == 2
    assert copy.count == 2
    assert extent.effective_ref(0) == 1
    assert extent.effective_ref(2) == 2
    assert frames.pages_owned(2) == 2
    frames.check_invariants()


def test_cow_adopt_moves_page_without_alloc(frames):
    extent = frames.alloc(owner=1, count=4)
    frames.share_to_cow(extent)  # single sharer: refcount 1
    free_before = frames.free_frames
    adopted = frames.cow_adopt(extent, 1, new_owner=1)
    assert frames.free_frames == free_before  # no allocation
    assert adopted.owner == 1
    assert extent.adopted == 1
    assert extent.is_dead(1)
    assert frames.pages_owned(DOMID_COW) == 3
    frames.check_invariants()


def test_cow_adopt_requires_refcount_one(frames):
    extent = frames.alloc(owner=1, count=4)
    frames.share_to_cow(extent)
    frames.add_sharer(extent)
    with pytest.raises(XenInvalidError):
        frames.cow_adopt(extent, 0, new_owner=2)


def test_add_ref_range_partial(frames):
    extent = frames.alloc(owner=1, count=10)
    frames.share_to_cow(extent)
    frames.add_ref_range(extent, 0, 5)
    assert extent.effective_ref(0) == 2
    assert extent.effective_ref(5) == 1
    frames.drop_ref_range(extent, 0, 5)
    assert extent.effective_ref(0) == 1


def test_add_ref_range_whole_extent_fast_path(frames):
    extent = frames.alloc(owner=1, count=10)
    frames.share_to_cow(extent)
    frames.add_ref_range(extent, 0, 10)
    assert extent.base_ref == 2
    assert extent.runs is None


def test_cannot_reref_dead_page(frames):
    extent = frames.alloc(owner=1, count=2)
    frames.share_to_cow(extent)
    frames.drop_ref_range(extent, 0, 1)  # page 0 dies
    with pytest.raises(XenInvalidError):
        frames.add_ref_range(extent, 0, 1)


def test_range_validation(frames):
    extent = frames.alloc(owner=1, count=4)
    frames.share_to_cow(extent)
    with pytest.raises(XenInvalidError):
        frames.drop_ref_range(extent, 2, 5)
    with pytest.raises(XenInvalidError):
        frames.add_ref_range(extent, -1, 2)


def test_conservation_through_mixed_operations(frames):
    """Alloc/share/copy/adopt/free in sequence conserves frames."""
    a = frames.alloc(owner=1, count=64)
    b = frames.alloc(owner=2, count=32)
    frames.share_to_cow(a)
    frames.add_sharer(a)
    frames.cow_copy(a, 0, new_owner=3, count=8)
    frames.drop_ref_range(a, 8, 56)  # one sharer drops the tail
    frames.free_extent(b)
    frames.check_invariants()


def test_stats_counters(frames):
    extent = frames.alloc(owner=1, count=8)
    frames.share_to_cow(extent)
    frames.add_sharer(extent)
    frames.cow_copy(extent, 0, new_owner=2)
    assert frames.stats["allocs"] >= 9
    assert frames.stats["shares"] == 8
    assert frames.stats["cow_copies"] == 1
