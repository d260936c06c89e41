"""Rollback invariants: every injected fault leaves the platform clean.

Each scenario arms one site on a real platform, injects during a clone
batch, then checks the three hardening promises: the failure is
contained (whole-batch abort or single-child degradation, as the site's
stage dictates), the leak oracle finds nothing, and the parent is still
cloneable afterwards.
"""

from __future__ import annotations

import pytest

from repro.apps.udp_server import UdpServerApp
from repro.errors import ReproError
from repro.faults import FaultPlan, FaultSpec
from repro.faults.chaos import audit_platform
from repro.idc.channel import IdcChannel
from repro.platform import Platform
from repro.toolstack.config import DomainConfig, VifConfig
from repro.xenstore.transactions import TransactionConflict

BATCH = 3

FIRST_STAGE_SITES = ["frames.alloc", "paging.build", "grants.clone",
                     "events.clone"]
SECOND_STAGE_SITES = ["xenstore.xs_clone", "device.attach"]


def boot_parent(*specs: FaultSpec, seed: int = 0x5EED):
    """Platform with one booted parent; injection armed only afterwards.

    The parent owns an IDC channel, so every clone is bound to it at
    creation (paper §5.2.2) and every unwind must drop that endpoint.
    """
    plan = FaultPlan(specs=list(specs), name="rollback")
    platform = Platform.create(seed=seed, fault_plan=plan)
    platform.faults.active = False
    config = DomainConfig(name="parent", memory_mb=4,
                          vifs=[VifConfig(ip="10.0.7.1")], max_clones=64)
    domain = platform.xl.create(config, app=UdpServerApp())
    IdcChannel(platform.hypervisor, domain)
    platform.faults.active = True
    return platform, domain.domid


def assert_clean(platform, root: int) -> None:
    """Leak oracle is quiet and the parent can still clone."""
    assert audit_platform(platform) == []
    platform.faults.active = False
    children = platform.xl.clone(root, count=2)
    assert len(children) == 2
    for child in children:
        platform.xl.destroy(child)
    assert audit_platform(platform) == []


@pytest.mark.parametrize("site", FIRST_STAGE_SITES)
def test_first_stage_fault_aborts_whole_batch(site):
    platform, root = boot_parent(FaultSpec(site=site, count=64))
    domains_before = set(platform.hypervisor.domains)
    with pytest.raises(ReproError):
        platform.xl.clone(root, count=BATCH)
    assert set(platform.hypervisor.domains) == domains_before
    parent = platform.hypervisor.domains[root]
    assert parent.clones_created == 0
    assert platform.faults.stats["aborted"] >= 1
    assert_clean(platform, root)


@pytest.mark.parametrize("site", SECOND_STAGE_SITES)
def test_second_stage_fault_degrades_gracefully(site):
    platform, root = boot_parent(FaultSpec(site=site, count=1))
    children = platform.xl.clone(root, count=BATCH)
    # One child failed its second stage and was unwound; siblings live.
    assert len(children) == BATCH - 1
    assert platform.cloneop.stats["failed_clones"] == 1
    parent = platform.hypervisor.domains[root]
    assert parent.clones_created == BATCH - 1
    live = set(platform.hypervisor.domains)
    assert set(children) <= live
    assert audit_platform(platform) == []
    for child in children:
        platform.xl.destroy(child)
    assert_clean(platform, root)


def test_mid_batch_first_stage_fault_unwinds_earlier_siblings():
    # after=2 lets the first child's allocations through, then fails the
    # second child mid-batch: the already-plumbed sibling must unwind too.
    platform, root = boot_parent(FaultSpec(site="frames.alloc", after=2,
                                           count=64))
    domains_before = set(platform.hypervisor.domains)
    with pytest.raises(ReproError):
        platform.xl.clone(root, count=BATCH)
    assert set(platform.hypervisor.domains) == domains_before
    assert platform.hypervisor.domains[root].clones_created == 0
    assert_clean(platform, root)


def test_dropped_clone_virq_is_redelivered():
    platform, root = boot_parent(FaultSpec(site="virq.deliver", kind="drop",
                                           count=1))
    children = platform.xl.clone(root, count=BATCH)
    assert len(children) == BATCH
    assert platform.faults.stats["injected"] == 1
    assert platform.faults.stats["recovered"] >= 1
    assert_clean(platform, root)


def test_persistent_virq_loss_aborts_cleanly():
    platform, root = boot_parent(FaultSpec(site="virq.deliver", kind="drop",
                                           count=None))
    domains_before = set(platform.hypervisor.domains)
    with pytest.raises(ReproError):
        platform.xl.clone(root, count=BATCH)
    assert set(platform.hypervisor.domains) == domains_before
    assert platform.faults.by_site["virq.deliver"]["aborted"] >= 1
    assert_clean(platform, root)


def test_transient_ring_stall_recovers():
    platform, root = boot_parent(FaultSpec(site="notify.ring", count=1))
    children = platform.xl.clone(root, count=BATCH)
    assert len(children) == BATCH
    assert platform.faults.by_site["notify.ring"]["recovered"] == 1
    assert_clean(platform, root)


def test_persistent_ring_stall_aborts_cleanly():
    platform, root = boot_parent(FaultSpec(site="notify.ring", count=None))
    domains_before = set(platform.hypervisor.domains)
    with pytest.raises(ReproError):
        platform.xl.clone(root, count=BATCH)
    assert set(platform.hypervisor.domains) == domains_before
    assert platform.faults.by_site["notify.ring"]["aborted"] >= 1
    assert_clean(platform, root)


def test_txn_conflict_is_retried_with_backoff():
    platform, root = boot_parent(FaultSpec(site="xenstore.txn_commit",
                                           count=2))
    handle = platform.dom0.handle
    before = platform.clock.now

    def _write(h, tid):
        h.t_write(tid, "/chaos/key", "value")

    handle.run_transaction(_write)
    assert handle.read("/chaos/key") == "value"
    assert platform.faults.by_site["xenstore.txn_commit"]["recovered"] == 1
    assert platform.clock.now > before  # backoff charged virtual time
    assert_clean(platform, root)


def test_txn_conflict_exhaustion_aborts_cleanly():
    platform, root = boot_parent(FaultSpec(site="xenstore.txn_commit",
                                           count=None))
    handle = platform.dom0.handle

    def _write(h, tid):
        h.t_write(tid, "/chaos/key", "value")

    with pytest.raises(TransactionConflict):
        handle.run_transaction(_write)
    assert platform.xenstore.transactions.open_count == 0
    assert platform.faults.by_site["xenstore.txn_commit"]["aborted"] == 1
    assert_clean(platform, root)


def test_grant_map_fault_surfaces_without_leaking():
    from repro.idc.shm import IdcSharedArea

    platform, root = boot_parent(FaultSpec(site="grants.map", count=1))
    platform.faults.active = False
    children = platform.xl.clone(root, count=1)
    platform.faults.active = True
    hyp = platform.hypervisor
    area = IdcSharedArea(hyp, hyp.domains[root], npages=2)
    child = hyp.domains[children[0]]
    with pytest.raises(ReproError):
        area.map_into(child)
    assert audit_platform(platform) == []
    area.map_into(child)  # spec exhausted: the retried mapping succeeds
    platform.xl.destroy(children[0])
    assert_clean(platform, root)
