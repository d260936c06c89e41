"""Unit + integration tests: CLONEOP, first stage, xencloned."""

import pytest

from repro import Platform
from repro.apps.udp_server import UdpServerApp
from repro.core.cloneop import CloneOpError
from repro.xen.domain import DomainState
from repro.xen.domid import DOMID_COW
from repro.xen.errors import XenPermissionError
from tests.conftest import udp_config


# ----------------------------------------------------------------------
# policy checks
# ----------------------------------------------------------------------
def test_clone_requires_config(platform):
    domain = platform.xl.create(udp_config("noclone"))  # max_clones = 0
    with pytest.raises(CloneOpError):
        platform.cloneop.clone(domain.domid)


def test_clone_respects_max(platform):
    parent = platform.xl.create(udp_config("p", max_clones=2),
                                app=UdpServerApp())
    platform.cloneop.clone(parent.domid, count=2)
    with pytest.raises(CloneOpError):
        platform.cloneop.clone(parent.domid)


def test_clone_disabled_globally():
    platform = Platform.create()
    platform.cloneop.set_global_enable(False)
    parent = platform.xl.create(udp_config("p", max_clones=4),
                                app=UdpServerApp())
    with pytest.raises(CloneOpError):
        platform.cloneop.clone(parent.domid)


def test_unprivileged_guest_cannot_clone_others(platform):
    a = platform.xl.create(udp_config("a", max_clones=4), app=UdpServerApp())
    b = platform.xl.create(udp_config("b", ip="10.0.1.2", max_clones=4),
                           app=UdpServerApp())
    with pytest.raises(XenPermissionError):
        platform.cloneop.clone(a.domid, target_domid=b.domid)


def test_dom0_can_clone_any_guest(platform, udp_parent):
    children = platform.cloneop.clone(0, target_domid=udp_parent.domid)
    assert len(children) == 1


def test_nonpositive_count_rejected(platform, udp_parent):
    with pytest.raises(CloneOpError):
        platform.cloneop.clone(udp_parent.domid, count=0)


# ----------------------------------------------------------------------
# first-stage semantics
# ----------------------------------------------------------------------
def test_child_shares_parent_memory(platform, udp_parent):
    child_id = platform.cloneop.clone(udp_parent.domid)[0]
    child = platform.hypervisor.get_domain(child_id)
    # Kernel + heap pages are COW-shared through dom_cow.
    assert child.memory.shared_pages() > 0
    shared = [s for s in child.memory.segments if s.shared]
    assert all(s.extent.owner == DOMID_COW for s in shared)
    platform.check_invariants()


def test_child_gets_private_io_pages(platform, udp_parent):
    child_id = platform.cloneop.clone(udp_parent.domid)[0]
    child = platform.hypervisor.get_domain(child_id)
    vif = child.frontends["vif"][0]
    assert not vif.rx_buffers.shared
    assert vif.rx_buffers.extent.owner == child_id


def test_child_rax_fixup(platform, udp_parent):
    children = platform.cloneop.clone(udp_parent.domid, count=3)
    for i, child_id in enumerate(children):
        child = platform.hypervisor.get_domain(child_id)
        assert child.vcpus[0].registers["rax"] == i + 1
    assert udp_parent.vcpus[0].registers["rax"] == 0


def test_family_tree(platform, udp_parent):
    children = platform.cloneop.clone(udp_parent.domid, count=2)
    assert udp_parent.children == children
    hyp = platform.hypervisor
    assert hyp.family_of(children[0]) == {udp_parent.domid, *children}


def test_grandchildren(platform, udp_parent):
    child_id = platform.cloneop.clone(udp_parent.domid)[0]
    grandchild_id = platform.cloneop.clone(child_id)[0]
    hyp = platform.hypervisor
    assert grandchild_id in hyp.descendants(udp_parent.domid)
    assert hyp.family_of(grandchild_id) == {
        udp_parent.domid, child_id, grandchild_id}


def test_parent_resumes_after_clone(platform, udp_parent):
    platform.cloneop.clone(udp_parent.domid)
    assert udp_parent.state is DomainState.RUNNING


def test_children_resume_and_run_on_cloned(platform):
    ready = []
    platform.dom0.listen(9999, lambda pkt: ready.append(pkt.payload))
    parent = platform.xl.create(udp_config("p", max_clones=8),
                                app=UdpServerApp())
    platform.cloneop.clone(parent.domid, count=2)
    payloads = [p for p in ready if p[0] == "ready"]
    assert len(payloads) == 3  # parent boot + two clones


def test_children_can_stay_paused(platform):
    config = udp_config("p", max_clones=8)
    config.start_clones_paused = True
    parent = platform.xl.create(config, app=UdpServerApp())
    child_id = platform.cloneop.clone(parent.domid)[0]
    child = platform.hypervisor.get_domain(child_id)
    assert child.state is DomainState.PAUSED
    platform.cloneop.resume_clone(child_id)
    assert child.state is DomainState.RUNNING


def test_clone_faster_than_boot(platform, udp_parent):
    t0 = platform.now
    platform.cloneop.clone(udp_parent.domid)
    clone_ms = platform.now - t0
    p2 = Platform.create()
    t0 = p2.now
    p2.xl.create(udp_config("udp0"), app=UdpServerApp())
    boot_ms = p2.now - t0
    # The headline result: cloning is ~8x faster than booting.
    assert clone_ms * 4 < boot_ms


def test_first_stage_is_about_a_millisecond(platform, udp_parent):
    """Paper §6.1: "the first stage which runs entirely inside the
    hypervisor takes only 1 ms" for the 4 MB UDP server."""
    from repro.core import first_stage

    t0 = platform.now
    child = first_stage.clone_domain(platform.hypervisor, udp_parent, 0,
                                     platform.cloneop.stats)
    first_stage_ms = platform.now - t0
    assert 0.5 <= first_stage_ms <= 3.0
    # Clean up the half-cloned child (no second stage ran).
    platform.hypervisor.destroy_domain(child.domid)
    udp_parent.children.clear()


# ----------------------------------------------------------------------
# second-stage semantics
# ----------------------------------------------------------------------
def test_xencloned_sets_unique_names(platform, udp_parent):
    children = platform.cloneop.clone(udp_parent.domid, count=3)
    names = {platform.hypervisor.get_domain(c).name for c in children}
    assert len(names) == 3
    assert all(name.startswith("udp0-c") for name in names)


def test_xencloned_introduces_child_with_parent_id(platform, udp_parent):
    child_id = platform.cloneop.clone(udp_parent.domid)[0]
    assert platform.xenstore.introduced[child_id] == udp_parent.domid


def test_clone_devices_connected_without_negotiation(platform, udp_parent):
    child_id = platform.cloneop.clone(udp_parent.domid)[0]
    child = platform.hypervisor.get_domain(child_id)
    vif = child.frontends["vif"][0]
    assert vif.backend is not None
    assert vif.backend.connected
    state = platform.xenstore.read_node(
        f"/local/domain/0/backend/vif/{child_id}/0/state")
    assert state == "4"  # created connected


def test_clone_vifs_join_family_bond(platform, udp_parent):
    children = platform.cloneop.clone(udp_parent.domid, count=3)
    bond = platform.dom0.family_bond("10.0.1.1")
    # Parent + three clones.
    assert len(bond.slaves) == 4


def test_clone_console_ring_not_copied(platform, udp_parent):
    parent_console = udp_parent.frontends["console"][0]
    parent_console.write_line("parent output")
    child_id = platform.cloneop.clone(udp_parent.domid)[0]
    child = platform.hypervisor.get_domain(child_id)
    assert child.frontends["console"][0].output == []


def test_completion_tracked(platform, udp_parent):
    platform.cloneop.clone(udp_parent.domid, count=2)
    assert platform.xencloned.clones_completed == 2
    assert len(platform.cloneop._pending) == 0


def test_unexpected_completion_rejected(platform, udp_parent):
    with pytest.raises(CloneOpError):
        platform.cloneop.clone_completion(0, udp_parent.domid, 999)


def test_deep_copy_mode_slower_but_equivalent():
    fast = Platform.create(use_xs_clone=True)
    slow = Platform.create(use_xs_clone=False)
    results = {}
    for name, platform in (("xs", fast), ("deep", slow)):
        parent = platform.xl.create(udp_config("p", max_clones=4),
                                    app=UdpServerApp())
        t0 = platform.now
        child_id = platform.cloneop.clone(parent.domid)[0]
        results[name] = platform.now - t0
        child = platform.hypervisor.get_domain(child_id)
        assert child.frontends["vif"][0].backend.connected
    assert results["deep"] > 1.5 * results["xs"]


def test_destroyed_clone_returns_memory(platform, udp_parent):
    free0 = platform.free_hypervisor_bytes()
    child_id = platform.cloneop.clone(udp_parent.domid)[0]
    assert platform.free_hypervisor_bytes() < free0
    platform.xl.destroy(child_id)
    # Shared pages stay (parent still references them); private freed.
    platform.check_invariants()
    assert platform.guest_count() == 1


def test_parent_write_after_child_destroy_adopts(platform, udp_parent):
    child_id = platform.cloneop.clone(udp_parent.domid)[0]
    platform.xl.destroy(child_id)
    api = udp_parent.guest.api
    region = api.alloc(64 * 1024, touch=False)
    stats = api.touch(region)
    assert stats.adopted == region.npages  # refcount was 1
    platform.check_invariants()
