"""Unit tests: guest memory (segments, COW faults, dirty tracking)."""

import pytest

from repro.xen.errors import XenInvalidError, XenNoEntryError
from repro.xen.frames import PageType
from repro.xen.memory import GuestMemory, Segment


@pytest.fixture
def mem(frames):
    return GuestMemory(domid=1, frame_table=frames)


def test_populate_appends_contiguously(mem):
    a = mem.populate(10)
    b = mem.populate(5)
    assert a.pfn_start == 0
    assert b.pfn_start == 10
    assert mem.total_pages == 15


def test_find(mem):
    mem.populate(10)
    mem.populate(5, label="second")
    seg, local = mem.find(12)
    assert seg.label == "second"
    assert local == 2


def test_find_unmapped_raises(mem):
    mem.populate(4)
    with pytest.raises(XenNoEntryError):
        mem.find(100)


def test_write_private_is_plain(mem, frames):
    mem.populate(8)
    stats = mem.write_range(0, 8)
    assert stats.private == 8
    assert stats.copied == 0 and stats.adopted == 0
    assert mem.dirty.count == 8


def test_write_shared_copies(mem, frames):
    seg = mem.populate(8)
    frames.share_to_cow(seg.extent)
    frames.add_sharer(seg.extent)  # someone else also maps it
    stats = mem.write_range(2, 3)
    assert stats.copied == 3
    # The written range is now private to us.
    new_seg, _ = mem.find(2)
    assert not new_seg.shared
    # Untouched pages still shared.
    left, _ = mem.find(0)
    right, _ = mem.find(6)
    assert left.shared and right.shared
    frames.check_invariants()


def test_write_shared_sole_owner_adopts(mem, frames):
    seg = mem.populate(4)
    frames.share_to_cow(seg.extent)  # refcount 1: we are the only mapper
    free_before = frames.free_frames
    stats = mem.write_range(0, 2)
    assert stats.adopted == 2
    assert frames.free_frames == free_before  # adoption allocates nothing
    frames.check_invariants()


def test_idc_shared_write_does_not_cow(mem, frames):
    seg = mem.populate(4, PageType.IDC_SHM)
    frames.share_to_cow(seg.extent)
    stats = mem.write_range(0, 4)
    assert stats.private == 4
    assert stats.copied == 0
    frames.check_invariants()


def test_write_spanning_segments(mem, frames):
    a = mem.populate(4)
    mem.populate(4)
    frames.share_to_cow(a.extent)
    frames.add_sharer(a.extent)
    stats = mem.write_range(2, 4)  # 2 shared + 2 private
    assert stats.copied == 2
    assert stats.private == 2


def test_segment_split_bookkeeping(mem, frames):
    seg = mem.populate(10)
    frames.share_to_cow(seg.extent)
    frames.add_sharer(seg.extent)
    mem.write_range(5, 1)
    # 3 segments now: [0-5 shared][5-6 private][6-10 shared]
    assert len(mem.segments) == 3
    assert mem.total_pages == 10
    assert mem.shared_pages() == 9
    assert mem.private_pages() == 1


def test_dirty_tracking_and_clear(mem):
    mem.populate(16)
    mem.write_range(0, 4)
    mem.write_range(8, 2)
    assert mem.dirty.count == 6
    assert mem.clear_dirty() == 6
    assert mem.dirty.count == 0


def test_shareable_segments_excludes_private_types(mem):
    mem.populate(4)
    mem.populate(2, PageType.RX_BUFFER)
    mem.populate(1, PageType.IO_RING)
    mem.populate(2, PageType.IDC_SHM)
    shareable = mem.shareable_segments()
    labels = {s.extent.page_type for s in shareable}
    assert PageType.RX_BUFFER not in labels
    assert PageType.IO_RING not in labels
    assert PageType.NORMAL in labels
    assert PageType.IDC_SHM in labels


def test_release_frees_everything(mem, frames):
    mem.populate(16)
    seg = mem.populate(8)
    frames.share_to_cow(seg.extent)
    mem.write_range(20, 2)  # adopt 2 of the shared pages (refcount 1)
    mem.release()
    assert frames.free_frames == frames.total_frames
    assert mem.total_pages == 0
    frames.check_invariants()


def test_release_with_remaining_sharer_keeps_pages(mem, frames):
    seg = mem.populate(8)
    frames.share_to_cow(seg.extent)
    other = GuestMemory(domid=2, frame_table=frames)
    frames.add_sharer(seg.extent)
    other.adopt_segment(Segment(0, 8, seg.extent, 0))
    mem.release()
    # The other domain still references the pages.
    assert frames.pages_owned(2) == 0  # shared pages belong to dom_cow
    assert seg.extent.live_pages == 8
    other.release()
    assert frames.free_frames == frames.total_frames
    frames.check_invariants()


def test_write_range_rejects_nonpositive(mem):
    mem.populate(4)
    with pytest.raises(XenInvalidError):
        mem.write_range(0, 0)


def test_adopt_segment_keeps_order(mem, frames):
    extent = frames.alloc(owner=2, count=4)
    mem.populate(4)
    mem.adopt_segment(Segment(100, 4, extent, 0, "foreign"))
    seg, local = mem.find(102)
    assert seg.label == "foreign"
    assert local == 2
