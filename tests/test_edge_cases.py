"""Edge-case and error-path tests across the stack."""

import pytest

from repro import DomainConfig, Platform
from repro.apps.udp_server import UdpServerApp
from repro.devices.xenbus import shortcut_connect
from repro.sim.units import GIB, MIB
from repro.xen.errors import XenInvalidError
from repro.xen.frames import PageType
from repro.xen.memory import GuestMemory
from tests.conftest import udp_config


# ----------------------------------------------------------------------
# frames: split/retype error paths
# ----------------------------------------------------------------------
def test_split_private_validates(frames):
    extent = frames.alloc(owner=1, count=10)
    with pytest.raises(XenInvalidError):
        frames.split_private(extent, [(4, PageType.NORMAL, "a")])  # != 10
    frames.share_to_cow(extent)
    with pytest.raises(XenInvalidError):
        frames.split_private(extent, [(10, PageType.NORMAL, "a")])


def test_split_retires_original(frames):
    extent = frames.alloc(owner=1, count=10)
    parts = frames.split_private(
        extent, [(4, PageType.NORMAL, "a"), (6, PageType.IDC_SHM, "b")])
    assert extent.retired
    assert extent.live_pages == 0
    assert sum(p.count for p in parts) == 10
    with pytest.raises(XenInvalidError):
        frames.free_extent(extent)  # parts own the pages now
    with pytest.raises(XenInvalidError):
        frames.split_private(extent, [(10, PageType.NORMAL, "x")])
    for part in parts:
        frames.free_extent(part)
    frames.check_invariants()


def test_split_conserves_frames(frames):
    extent = frames.alloc(owner=1, count=10)
    owned_before = frames.pages_owned(1)
    free_before = frames.free_frames
    frames.split_private(extent, [(5, PageType.NORMAL, "a"),
                                  (5, PageType.NORMAL, "b")])
    assert frames.pages_owned(1) == owned_before
    assert frames.free_frames == free_before


def test_retype_requires_private_whole_extent(frames):
    memory = GuestMemory(1, frames)
    seg = memory.populate(10)
    frames.share_to_cow(seg.extent)
    with pytest.raises(XenInvalidError):
        memory.retype_range(0, 2, PageType.IDC_SHM)


def test_retype_range_cannot_cross_segments(frames):
    memory = GuestMemory(1, frames)
    memory.populate(4)
    memory.populate(4)
    with pytest.raises(XenInvalidError):
        memory.retype_range(2, 4, PageType.IDC_SHM)


def test_retype_at_extent_edges(frames):
    memory = GuestMemory(1, frames)
    memory.populate(8)
    start = memory.retype_range(0, 2, PageType.IDC_SHM, label="head")
    assert start.pfn_start == 0
    # The tail of the original is still retypeable (whole new extent).
    tail = memory.retype_range(6, 2, PageType.IDC_SHM, label="tail")
    assert tail.pfn_start == 6
    assert memory.total_pages == 8
    frames.check_invariants()


# ----------------------------------------------------------------------
# xenbus shortcut sanity check
# ----------------------------------------------------------------------
def test_shortcut_connect_asserts_connected_states(platform):
    handle = platform.dom0.handle
    handle.write("/f/state", "4")
    handle.write("/b/state", "2")  # not connected
    with pytest.raises(AssertionError):
        shortcut_connect(handle, "/f", "/b")
    handle.write("/b/state", "4")
    shortcut_connect(handle, "/f", "/b")  # now fine


# ----------------------------------------------------------------------
# platform / config edges
# ----------------------------------------------------------------------
def test_platform_invariant_checker_detects_broken_family(platform,
                                                          udp_parent):
    child_id = platform.cloneop.clone(udp_parent.domid)[0]
    udp_parent.children.remove(child_id)  # corrupt the family tree
    with pytest.raises(AssertionError):
        platform.check_invariants()


def test_platform_guest_pool_excludes_dom0():
    platform = Platform.create(total_memory_bytes=16 * GIB,
                               dom0_memory_bytes=4 * GIB)
    assert platform.free_hypervisor_bytes() == 12 * GIB


def test_minimum_memory_domain_boots(platform):
    domain = platform.xl.create(udp_config("tiny", memory_mb=4),
                                app=UdpServerApp())
    assert domain.memory.total_pages == 1024


def test_guest_heap_is_budget_minus_kernel_and_io(platform):
    domain = platform.xl.create(udp_config("g", memory_mb=4),
                                app=UdpServerApp())
    guest = domain.guest
    io_pages = sum(v.private_pages for v in domain.frontends["vif"])
    assert guest.heap_npages == (domain.ram_budget_pages
                                 - guest.kernel_pages - io_pages)


def test_clone_count_batch_equals_sequential_memory(platform):
    """clone(count=3) and three clone(count=1) cost the same frames."""
    a = Platform.create()
    parent_a = a.xl.create(udp_config("p", max_clones=8), app=UdpServerApp())
    a.cloneop.clone(parent_a.domid, count=3)

    b = Platform.create()
    parent_b = b.xl.create(udp_config("p", max_clones=8), app=UdpServerApp())
    for _ in range(3):
        b.cloneop.clone(parent_b.domid)
    assert a.free_hypervisor_bytes() == b.free_hypervisor_bytes()


def test_vif_rx_contents_preserved_across_clone(platform, udp_parent):
    """The paper's reason for copying RX rings: preallocated entries may
    hold allocator metadata the clone still needs."""
    parent_vif = udp_parent.frontends["vif"][0]
    parent_vif.rx_ring.push("preallocated-entry")
    child_id = platform.cloneop.clone(udp_parent.domid)[0]
    child_vif = platform.hypervisor.get_domain(child_id).frontends["vif"][0]
    assert list(child_vif.rx_ring.entries) == ["preallocated-entry"]
    # And independent: draining the child leaves the parent intact.
    child_vif.rx_ring.pop()
    assert list(parent_vif.rx_ring.entries) == ["preallocated-entry"]


def test_restore_does_not_inherit_clone_budget_usage(platform, udp_parent):
    platform.cloneop.clone(udp_parent.domid)
    image = platform.xl.save(udp_parent.domid, destroy=False)
    restored = platform.xl.restore(image, name="fresh")
    assert restored.clones_created == 0
    assert restored.may_clone()


# ----------------------------------------------------------------------
# failure injection: out-of-memory mid-operation must not leak
# ----------------------------------------------------------------------
def _tight_platform(headroom_mb: int) -> Platform:
    """A pool that fits one 900 MB guest plus ``headroom_mb``."""
    return Platform.create(
        total_memory_bytes=4 * GIB + (900 + 10 + headroom_mb) * MIB,
        dom0_memory_bytes=4 * GIB)


def _big_config(name: str) -> DomainConfig:
    from repro.toolstack.config import VifConfig

    return DomainConfig(name=name, memory_mb=900, kernel="minios-udp",
                        vifs=[VifConfig(ip="10.0.1.1")], max_clones=8)


def test_oom_during_boot_rolls_back(platform):
    from repro.xen.errors import XenNoMemoryError

    tight = _tight_platform(headroom_mb=-8)  # pool smaller than the guest
    free0 = tight.free_hypervisor_bytes()
    nodes0 = tight.xenstore.node_count
    with pytest.raises(XenNoMemoryError):
        tight.xl.create(_big_config("big"), app=UdpServerApp())
    assert tight.guest_count() == 0
    assert tight.free_hypervisor_bytes() == free0
    assert tight.xenstore.node_count <= nodes0 + 8  # infra dirs only
    tight.check_invariants()
    # The host is still usable.
    tight.xl.create(udp_config("small"), app=UdpServerApp())


def test_oom_during_clone_unwinds_child_and_resumes_parent():
    from repro.xen.domain import DomainState
    from repro.xen.errors import XenNoMemoryError

    tight = _tight_platform(headroom_mb=16)
    parent = tight.xl.create(_big_config("big"), app=UdpServerApp())
    # Eat the remaining pool down to ~2 MB: a clone of a 900 MB guest
    # needs ~5 MB of private memory (RX buffers, PT, p2m) and must fail
    # partway through the first stage.
    filler_pages = tight.hypervisor.frames.free_frames - 512
    tight.hypervisor.frames.alloc(owner=999, count=filler_pages,
                                  label="filler")
    free_before = tight.free_hypervisor_bytes()
    with pytest.raises(XenNoMemoryError):
        tight.cloneop.clone(parent.domid)
    assert parent.state is DomainState.RUNNING
    assert tight.guest_count() == 1
    assert parent.children == []
    tight.check_invariants()
    # Shared pages from the aborted attempt were dropped or are still
    # owned by the parent's family; either way nothing leaked beyond
    # COW-shared extents the parent itself still references.
    assert tight.free_hypervisor_bytes() <= free_before
    # The parent still works: a later clone attempt fails cleanly again.
    with pytest.raises(XenNoMemoryError):
        tight.cloneop.clone(parent.domid)
    tight.check_invariants()


def test_second_stage_failure_unwinds(platform, udp_parent):
    """If xencloned's second stage dies (e.g. a backend error), the
    parent must resume and the half-plumbed child must disappear."""
    from repro.xen.domain import DomainState

    def exploding(parent, child):
        raise RuntimeError("netback exploded")

    platform.xencloned._clone_devices = exploding
    with pytest.raises(RuntimeError):
        platform.cloneop.clone(udp_parent.domid)
    assert udp_parent.state is DomainState.RUNNING
    assert udp_parent.children == []
    assert udp_parent.clones_created == 0
    assert platform.guest_count() == 1
    platform.check_invariants()
