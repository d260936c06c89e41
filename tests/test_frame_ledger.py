"""The frame ledger: the frame numbers Xen publishes, the ``frames.alloc``
events of a clone, a clone's layout, and the per-owner audit.

Extents keep no number; the frame table numbers the ones it creates,
in creation order, and a domain keeps the two numbers Xen publishes.
The pinned values below are those of the tree before extents lost
their ids, so they show the numbering did not move.
"""

from __future__ import annotations

import pytest

from repro import NepheleSession, P9Config
from repro.apps.udp_server import UdpServerApp
from repro.faults.chaos import audit_kvm_platform, audit_platform
from repro.guest.api import Region
from repro.idc.shm import IdcSharedArea
from repro.kvm.platform import KvmPlatform
from repro.sim.units import GIB, MIB, PAGE_SIZE
from repro.xen.domid import XEN_OWNER
from tests.heap_budget import clone_parent


def _touch_heap(domain, npages: int, offset_pages: int = 0) -> None:
    vm = domain.guest
    heap = Region(vm.heap_base_pfn, vm.heap_npages,
                  vm.heap_npages * PAGE_SIZE)
    vm.api.touch(heap, npages=npages, offset_pages=offset_pages)


def test_published_frame_numbers():
    """``store/ring-ref`` and the start_info numbers the clone
    notification carries, for a boot, a clone, a clone of a clone and a
    clone made after a COW write and an IDC retype (whose split numbers
    new extents)."""
    with NepheleSession(seed=0xC10E) as session:
        notified = []
        ring = session.cloneop.ring
        push = ring.push

        def record(entry):
            notified.append((entry.parent_domid, entry.child_domid,
                             entry.parent_start_info_mfn,
                             entry.child_start_info_mfn))
            push(entry)

        ring.push = record
        parent = session.boot("p", ip="10.0.1.1", max_clones=8,
                              app=UdpServerApp())
        child, = session.clone(parent)
        grandchild, = session.clone(child)
        _touch_heap(parent, npages=16, offset_pages=4)
        IdcSharedArea(session.hypervisor, parent, 2, label="mqueue")
        late, = session.clone(parent)
        ring_refs = [
            session.xenstore.read_node(f"/local/domain/{domid}/store/ring-ref")
            for domid in (parent.domid, child, grandchild, late)]
    assert (parent.domid, child, grandchild, late) == (1, 2, 3, 4)
    assert ring_refs == ["5", "19", "32", "48"]
    assert notified == [(1, 2, 2, 16), (2, 3, 16, 29), (1, 4, 2, 45)]


class _AllocRecorder:
    """A fault injector that records ``frames.alloc`` events and never
    fires."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[tuple[int, int, str]] = []

    def fire(self, site: str, **ctx) -> None:
        assert site == "frames.alloc"
        self.events.append((ctx["owner"], ctx["count"], ctx["page_type"]))


def test_frames_alloc_events_of_one_clone():
    """The chaos storms count these events (a spec's ``after``), so
    their number and order, with owner, count and page type, are part
    of every storm's outcome."""
    clone, parent = clone_parent(p9fs=False)
    recorder = _AllocRecorder()
    clone.__self__.hypervisor.frames.faults = recorder
    child, = clone(parent, count=1)
    assert child == 2
    assert recorder.events == [
        (XEN_OWNER, 24, "normal"),
        (2, 1, "start_info"),
        (2, 1, "shared_info"),
        (2, 1, "console_ring"),
        (2, 1, "xenstore_ring"),
        (2, 1, "grant_table"),
        (2, 5, "page_table"),
        (2, 2, "p2m"),
        (2, 1, "io_ring"),
        (2, 1, "io_ring"),
        (2, 256, "rx_buffer"),
        (2, 32, "io_ring"),
        (2, 28, "normal"),  # the resume's COW copy
    ]


def _layout(domain) -> list[tuple[int, int, str, str]]:
    """``(pfn_start, pfn_end, page_type, label)`` per area: adjacent
    segments of one area (a COW fault splits a segment) merged."""
    areas: list[tuple[int, int, str, str]] = []
    for seg in domain.memory.segments:
        area = (seg.pfn_start, seg.pfn_end, seg.extent.page_type.value,
                seg.label)
        if areas and areas[-1][1] == seg.pfn_start \
                and areas[-1][2:] == area[2:]:
            areas[-1] = (areas[-1][0], seg.pfn_end, *area[2:])
        else:
            areas.append(area)
    return areas


@pytest.mark.parametrize("p9fs", [False, True], ids=["vif", "vif+9pfs"])
def test_clone_maps_device_pages_at_its_parents_pfns(p9fs):
    """A clone's rings and buffers are fresh pages at the pfns its
    parent maps them at, so its map is its parent's: inside the RAM
    budget, with no hole."""
    with NepheleSession(seed=0xC10E) as session:
        parent = session.boot("p", ip="10.0.1.1", max_clones=8,
                              p9fs=[P9Config()] if p9fs else [],
                              app=UdpServerApp())
        child = session.domain(session.clone(parent)[0])
        grandchild = session.domain(session.clone(child)[0])
        layout = _layout(parent)
        assert [label for *_, label in layout] == [
            "kernel", "vif0-tx", "vif0-rx", "vif0-rxbuf", "vif0-txbuf",
            "heap"]
        for domain in (parent, child, grandchild):
            assert _layout(domain) == layout, domain.domid
            segments = domain.memory.segments
            assert segments[0].pfn_start == 0
            assert segments[-1].pfn_end == domain.ram_budget_pages
            assert all(a.pfn_end == b.pfn_start
                       for a, b in zip(segments, segments[1:]))
        for pfn in range(parent.ram_budget_pages):
            child.memory.find(pfn)
        ring = child.frontends["vif"][0].rx_ring
        assert not ring.extent.shared
        assert ring.extent.extent.owner == child.domid


def test_audit_holds_the_ledger_per_owner_after_churn():
    """COW writes, an IDC area, a cold boot and destroys leave every
    live guest holding exactly what the frame table charges it."""
    with NepheleSession(seed=0xC10E) as session:
        parent = session.boot("fn", memory_mb=8, ip="10.0.2.1",
                              p9fs=[P9Config()], max_clones=64)
        children = session.clone(parent, count=8)
        for index, domid in enumerate(children):
            _touch_heap(session.domain(domid), npages=64,
                        offset_pages=8 * index)
        IdcSharedArea(session.hypervisor, parent, 2, label="pipe")
        cold = session.boot("cold", memory_mb=8, ip="10.0.3.1",
                            p9fs=[P9Config()])
        assert audit_platform(session.platform) == []
        for domid in [*children[::2], cold.domid]:
            session.destroy(domid)
        assert audit_platform(session.platform) == []


def test_audit_reports_a_page_charged_to_the_wrong_guest():
    """Moving one page's charge between two live guests keeps the
    global conservation law, which cannot see it; the per-owner ledger
    names both guests."""
    with NepheleSession(seed=0xC10E) as session:
        a = session.boot("a", ip="10.0.1.1")
        b = session.boot("b", ip="10.0.1.2")
        frames = session.hypervisor.frames
        assert audit_platform(session.platform) == []
        frames._debit(a.domid, 1)
        frames._credit(b.domid, 1)
        frames.check_invariants()
        violations = audit_platform(session.platform)
        assert len(violations) == 2
        assert violations[0].startswith(f"domain {a.domid} ")
        assert violations[1].startswith(f"domain {b.domid} ")
        # Put the charge back, so the session closes clean.
        frames._debit(b.domid, 1)
        frames._credit(a.domid, 1)


def test_kvm_audit_reports_a_page_charged_to_the_wrong_vm():
    """The KVM audit holds the same ledger: a page's charge moved from
    a VM to its clone names both."""
    platform = KvmPlatform(memory_bytes=1 * GIB)
    a = platform.create_vm("a", 16 * MIB, ip="10.0.7.1", max_clones=2)
    (b,) = platform.clone(a.pid)
    frames = platform.host.frames
    assert audit_kvm_platform(platform) == []
    frames._debit(a.pid, 1)
    frames._credit(b, 1)
    frames.check_invariants()
    violations = audit_kvm_platform(platform)
    assert len(violations) == 2
    assert violations[0].startswith(f"VMM process {a.pid} ")
    assert violations[1].startswith(f"VMM process {b} ")
