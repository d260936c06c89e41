"""KVM fault-hook parity: the chaos storm against the KVM backend.

The first slice of backend parity: the injector's frame-alloc, paging,
notify and device sites are threaded through KVM_CLONE_VM with
NULL_INJECTOR off-path, a failed batch unwinds whole (like CLONEOP), a
failed boot releases its half-built VM (like xl create), and the same
randomized storm that audits the Xen platform audits the KVM one.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.faults import (
    KVM_SITES,
    NULL_INJECTOR,
    FaultPlan,
    FaultSpec,
    audit_kvm_platform,
    run_kvm_chaos,
)
from repro.faults.sites import SITES
from repro.kvm.platform import KvmPlatform
from repro.sim.units import GIB, MIB, PAGE_SIZE
from repro.xen.errors import XenInvalidError, XenNoMemoryError


def kvm_with(spec: FaultSpec) -> KvmPlatform:
    return KvmPlatform(memory_bytes=2 * GIB,
                       fault_plan=FaultPlan(specs=[spec], name="t"))


def parent_on(platform: KvmPlatform):
    if platform.faults.enabled:
        platform.faults.active = False
    vm = platform.create_vm("p", 16 * MIB, ip="10.0.7.1", max_clones=64)
    if platform.faults.enabled:
        platform.faults.active = True
    return vm


def test_kvm_sites_are_registered():
    assert set(KVM_SITES) <= set(SITES)
    assert "frames.alloc" in KVM_SITES


def test_off_path_is_the_null_injector():
    platform = KvmPlatform(memory_bytes=1 * GIB)
    assert platform.faults is NULL_INJECTOR
    assert platform.host.frames.faults is NULL_INJECTOR


@pytest.mark.parametrize("site", KVM_SITES)
def test_each_site_aborts_the_batch_without_leaking(site):
    platform = kvm_with(FaultSpec(site=site, count=1))
    parent = parent_on(platform)
    before = platform.host.frames.free_frames
    with pytest.raises(ReproError):
        platform.clone(parent.pid, count=3)
    assert platform.host.frames.free_frames == before
    assert parent.children == []
    assert parent.clones_created == 0
    assert audit_kvm_platform(platform) == []


@pytest.mark.parametrize("after", [1, 2, 3, 4])
def test_each_boot_allocation_fails_without_leaking(after):
    # The boot's frame allocations in order: guest RAM, the two EPT
    # extents, the VMM extent, the virtio-net queues. A failure past
    # the first releases what the earlier ones took.
    platform = kvm_with(FaultSpec(site="frames.alloc", after=after, count=1))
    before = platform.host.frames.free_frames
    with pytest.raises(XenNoMemoryError):
        platform.create_vm("p", 16 * MIB, ip="10.0.7.1")
    assert platform.host.frames.free_frames == before
    assert platform.host.vms == {}
    assert audit_kvm_platform(platform) == []


def test_boot_that_outgrows_the_host_releases_its_frames():
    """A VM whose RAM fits in a full host but whose EPT and VMM extent
    do not leaves no frames with its dead pid."""
    platform = KvmPlatform(memory_bytes=256 * MIB)
    frames = platform.host.frames
    while frames.free_frames > 32 * MIB // PAGE_SIZE:
        platform.create_vm(f"vm{len(platform.host.vms)}", 16 * MIB)
    before = frames.free_frames
    with pytest.raises(XenNoMemoryError):
        platform.create_vm("big", before * PAGE_SIZE)
    assert frames.free_frames == before
    assert audit_kvm_platform(platform) == []


def test_failed_create_vm_destroys_the_vm():
    # A bad clone budget fails after the tap is plugged in: the VM is
    # destroyed whole, as xl create destroys a guest that fails to boot.
    platform = KvmPlatform(memory_bytes=1 * GIB)
    before = platform.host.frames.free_frames
    with pytest.raises(XenInvalidError):
        platform.create_vm("p", 16 * MIB, ip="10.0.7.1", max_clones=-1)
    assert platform.host.frames.free_frames == before
    assert platform.host.vms == {}
    assert list(platform.host.bridge.ports) == [platform.host.host_port]
    assert audit_kvm_platform(platform) == []


def test_midbatch_failure_rolls_back_earlier_children():
    # Fire on the third child's paging rebuild: children 1 and 2 are
    # already fully plumbed and must be unwound too.
    platform = kvm_with(FaultSpec(site="paging.build", after=2, count=1))
    parent = parent_on(platform)
    before = platform.host.frames.free_frames
    with pytest.raises(ReproError):
        platform.clone(parent.pid, count=3)
    assert platform.host.frames.free_frames == before
    assert parent.children == []
    assert platform.cloneop.stats["rollbacks"] == 1
    assert audit_kvm_platform(platform) == []
    # The family bond holds no dead taps after the unwind: at most the
    # parent's own port remains enslaved.
    live = {parent.net}
    for bond in platform.host.bonds.values():
        assert set(bond.slaves) <= live
    platform.clone(parent.pid, count=2)  # spec consumed: cloning works
    assert len(parent.children) == 2


def test_destroy_releases_the_tap_from_bond_and_bridge():
    platform = KvmPlatform(memory_bytes=1 * GIB)
    parent = parent_on(platform)
    (child_pid,) = platform.clone(parent.pid, count=1)
    child = platform.host.get_vm(child_pid)
    bond = platform.host.family_bond(parent.net.ip)
    assert child.net in bond.slaves
    platform.destroy(child_pid)
    assert child.net not in bond.slaves
    assert child.net not in platform.host.bridge.ports
    assert audit_kvm_platform(platform) == []


def test_kvm_chaos_storm_is_clean_and_deterministic():
    # rounds defaults to scaling past the fault budget, so the run
    # also exercises the post-storm steady state where clones succeed.
    first = run_kvm_chaos(seed=0xC10E, faults=40)
    second = run_kvm_chaos(seed=0xC10E, faults=40)
    assert first["violations"] == []
    assert first["fault_stats"]["stats"]["injected"] > 0
    assert first["clone_errors"] > 0
    assert first["clones_succeeded"] > 0
    assert first["fingerprint"] == second["fingerprint"]


def test_same_plan_shape_runs_on_both_backends():
    # The parity point: one randomized KVM_SITES plan is a valid plan
    # for either platform (all sites are registry sites).
    plan = FaultPlan.randomized(3, faults=10, sites=list(KVM_SITES))
    report = run_kvm_chaos(seed=3, plan=plan, rounds=6)
    assert report["plan"] == plan.name
    assert report["violations"] == []
