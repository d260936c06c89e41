"""Unit tests: page-table and p2m sizing."""

from repro.xen.paging import (
    ENTRIES_PER_PAGE,
    build_paging,
    p2m_pages,
    page_table_pages,
    release_paging,
)


def test_zero_pages():
    assert page_table_pages(0) == 0
    assert p2m_pages(0) == 0


def test_small_guest_needs_four_levels():
    # 1 page of leaf PTEs + one page per upper level.
    assert page_table_pages(1) == 4
    assert page_table_pages(ENTRIES_PER_PAGE) == 4


def test_4mb_guest():
    # 1024 pages -> 2 leaf pages + 1 + 1 + 1.
    assert page_table_pages(1024) == 5


def test_4gb_guest():
    # 1 Mi pages -> 2048 leaf + 4 L2 + 1 L3 + 1 L4.
    assert page_table_pages(1 << 20) == 2048 + 4 + 1 + 1


def test_p2m_is_one_entry_per_page():
    assert p2m_pages(1) == 1
    assert p2m_pages(512) == 1
    assert p2m_pages(513) == 2
    assert p2m_pages(1 << 20) == 2048


def test_build_and_release(frames):
    paging = build_paging(frames, domid=1, guest_pages=1024)
    assert paging.pt_pages == 5
    assert paging.p2m_pages == 2
    assert paging.total_entries == 2048
    assert frames.pages_owned(1) == 7
    released = release_paging(frames, paging)
    assert released == 7
    assert frames.pages_owned(1) == 0
    frames.check_invariants()


def test_total_entries_scales_with_guest():
    small = build_paging_entries(256)
    large = build_paging_entries(1 << 20)
    assert large / small == (1 << 20) / 256


def build_paging_entries(guest_pages: int) -> int:
    from repro.xen.frames import FrameTable
    from repro.xen.paging import build_paging

    frames = FrameTable(1 << 22)
    return build_paging(frames, 1, guest_pages).total_entries


# ----------------------------------------------------------------------
# per-domain paging frames
# ----------------------------------------------------------------------
def test_release_templated_paging_keeps_template_intact(frames):
    """Releasing one domain's paging frames leaves a same-geometry
    sibling's frames and later builds as they were."""
    a = build_paging(frames, domid=1, guest_pages=1024)
    b = build_paging(frames, domid=2, guest_pages=1024)
    freed = release_paging(frames, a)
    assert freed == a.pt_pages + a.p2m_pages
    assert frames.pages_owned(2) == b.pt_pages + b.p2m_pages
    later = build_paging(frames, domid=3, guest_pages=1024)
    assert later.pt_pages == b.pt_pages == page_table_pages(1024)
    frames.check_invariants()


def test_mixed_geometry_fleet_does_not_share_skeletons():
    """Domains of different sizes must each get their own geometry."""
    from repro.sim.units import MIB
    from repro.xen.hypervisor import Hypervisor

    hyp = Hypervisor(guest_pool_bytes=1 << 31, cpus=4)
    small = [hyp.create_domain(f"s{i}", 4 * MIB) for i in range(3)]
    large = [hyp.create_domain(f"l{i}", 16 * MIB) for i in range(3)]
    small_geo = {(d.paging.pt_pages, d.paging.p2m_pages) for d in small}
    large_geo = {(d.paging.pt_pages, d.paging.p2m_pages) for d in large}
    assert len(small_geo) == 1 and len(large_geo) == 1
    assert small_geo != large_geo
    hyp.frames.check_invariants()


def test_destroy_templated_clone_keeps_sibling_accounting():
    from repro.sim.units import MIB
    from repro.xen.hypervisor import Hypervisor

    hyp = Hypervisor(guest_pool_bytes=1 << 31, cpus=4)
    fleet = [hyp.create_domain(f"c{i}", 4 * MIB, populate=True)
             for i in range(4)]
    owned_before = {d.domid: hyp.frames.pages_owned(d.domid) for d in fleet}
    victim = fleet.pop(1)
    hyp.destroy_domain(victim.domid)
    assert hyp.frames.pages_owned(victim.domid) == 0
    for survivor in fleet:
        assert hyp.frames.pages_owned(survivor.domid) == \
            owned_before[survivor.domid]
    replacement = hyp.create_domain("r", 4 * MIB, populate=True)
    assert hyp.frames.pages_owned(replacement.domid) == \
        owned_before[victim.domid]
    hyp.frames.check_invariants()
