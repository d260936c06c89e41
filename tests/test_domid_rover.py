"""Domain-ID allocation: Xen's domctl rover.

Domids are handed out after the last one given, skip live domains and
wrap to 1 before ``DOMID_FIRST_RESERVED``, so a long-lived session
recycles the ids of destroyed guests instead of running into the
reserved range. Everything keyed by a domid must then treat a recycled
id as a new domain. The KVM port's VMM pids come from the same rover.
"""

from __future__ import annotations

import pytest

from repro import NepheleSession
from repro.apps.udp_server import UdpServerApp
from repro.errors import ReproError
from repro.faults import FaultPlan, FaultSpec
from repro.faults.chaos import audit_kvm_platform, audit_platform
from repro.idc.channel import IdcChannel
from repro.kvm.platform import KvmPlatform
from repro.platform import Platform
from repro.sim.units import GIB, MIB
from repro.toolstack.config import DomainConfig, VifConfig
from repro.xen.domid import DOMID_FIRST_RESERVED, is_reserved
from repro.xen.errors import XenNoMemoryError
from repro.xen.hypervisor import Hypervisor

#: The last domid the allocator may hand out.
TOP = DOMID_FIRST_RESERVED - 1


def test_allocator_skips_live_domids_and_wraps_before_the_reserved_range():
    hyp = Hypervisor(guest_pool_bytes=1 * GIB)
    low = [hyp.create_domain(f"low{i}", 4 * MIB).domid for i in range(3)]
    assert low == [1, 2, 3]
    hyp._domid_rover = TOP - 2
    high = [hyp.create_domain(f"high{i}", 4 * MIB).domid for i in range(2)]
    assert high == [TOP - 1, TOP]
    # Wrapped: 1-3 are live, so the next free id is 4.
    assert hyp.create_domain("wrapped", 4 * MIB).domid == 4
    hyp.destroy_domain(2)
    hyp._domid_rover = 1
    assert hyp.create_domain("recycled", 4 * MIB).domid == 2
    hyp.frames.check_invariants()


def test_allocator_raises_enomem_when_every_domid_is_live():
    hyp = Hypervisor(guest_pool_bytes=1 * GIB)
    # Stand-ins are enough: the allocator only asks which ids are taken.
    hyp.domains.update(dict.fromkeys(range(1, DOMID_FIRST_RESERVED)))
    with pytest.raises(XenNoMemoryError):
        hyp.allocate_domid()


def test_clone_boot_and_destroy_across_the_domid_wrap():
    with NepheleSession() as session:
        parent = session.boot("p", ip="10.0.1.1", max_clones=64,
                              app=UdpServerApp())
        other = session.boot("q", ip="10.0.1.2")
        assert (parent.domid, other.domid) == (1, 2)
        session.hypervisor._domid_rover = TOP - 2
        handed_out = []
        for round_ in range(3):
            children = session.clone(parent, count=3)
            cold = session.boot(f"cold{round_}", ip="10.0.2.1")
            handed_out += [*children, cold.domid]
            assert audit_platform(session.platform) == []
            for domid in [*children, cold.domid]:
                session.destroy(domid)
            assert audit_platform(session.platform) == []
        # The first batch crossed the wrap; after it, ids of destroyed
        # guests come back, never the live parent's or a reserved one.
        assert handed_out[:4] == [TOP - 1, TOP, 3, 4]
        assert not any(is_reserved(domid) for domid in handed_out)
        assert not {parent.domid, other.domid} & set(handed_out)
        assert [d.domid for d in session.domains()] == [1, 2]
        session.platform.check_invariants()


def test_first_stage_fault_after_the_wrap_spares_older_higher_domids():
    """An unwound first stage destroys the child it created, not every
    domain with a higher domid than the allocator's position."""
    plan = FaultPlan(specs=[FaultSpec(site="grants.clone", count=1)],
                     name="wrap")
    platform = Platform.create(fault_plan=plan)
    platform.faults.active = False
    config = DomainConfig(name="parent", memory_mb=4,
                          vifs=[VifConfig(ip="10.0.7.1")], max_clones=8)
    root = platform.xl.create(config, app=UdpServerApp()).domid
    platform.hypervisor._domid_rover = TOP - 1
    survivor = platform.xl.clone(root, count=1)[0]
    assert survivor == TOP
    platform.faults.active = True
    with pytest.raises(ReproError):
        platform.xl.clone(root, count=1)
    assert set(platform.hypervisor.domains) == {root, survivor}
    assert audit_platform(platform) == []


def test_recycled_parent_domid_reads_the_parent_info_again():
    with NepheleSession() as session:
        handle = session.xencloned.handle

        def requests_per_clone(parent) -> int:
            before = handle.requests_issued
            session.clone(parent, count=1)
            return handle.requests_issued - before

        first = session.boot("a", ip="10.0.1.1", max_clones=4)
        first_domid = first.domid
        cold_clone = requests_per_clone(first)
        warm_clone = requests_per_clone(first)
        assert cold_clone == warm_clone + 1
        for child in first.children[:]:
            session.destroy(child)
        session.destroy(first)
        session.hypervisor._domid_rover = first_domid - 1
        second = session.boot("b", ip="10.0.1.2", max_clones=4)
        assert second.domid == first_domid
        assert requests_per_clone(second) == cold_clone
        assert requests_per_clone(second) == warm_clone


def test_recycled_domid_does_not_inherit_virq_bindings():
    hyp = Hypervisor(guest_pool_bytes=1 * GIB)
    virq = 7
    hits = []
    first = hyp.create_domain("first", 4 * MIB)
    hyp.bind_virq(first.domid, virq, handler=lambda port: hits.append(port))
    hyp.destroy_domain(first.domid)
    hyp._domid_rover = first.domid - 1
    second = hyp.create_domain("second", 4 * MIB)
    assert second.domid == first.domid
    hyp.bind_virq(second.domid, virq, handler=lambda port: hits.append(port))
    assert hyp.raise_virq(virq) == 1
    assert len(hits) == 1


def test_orphaned_clone_is_not_adopted_by_a_recycled_parent_domid():
    """A clone outliving its parent keeps no link to the parent's
    domid, so the domain that gets that domid next is no parent of it:
    the family tree stays sound and IDC notifications do not reach it."""
    with NepheleSession() as session:
        parent = session.boot("p", ip="10.0.1.1", max_clones=4)
        channel = IdcChannel(session.hypervisor, parent)
        (orphan,) = session.clone(parent, count=1)
        parent_domid = parent.domid
        session.destroy(parent)
        assert session.domain(orphan).parent_id is None
        session.hypervisor._domid_rover = parent_domid - 1
        stranger = session.boot("x", ip="10.0.1.9")
        assert stranger.domid == parent_domid
        hits = []
        stranger.events.alloc_unbound(0)
        stranger.events.set_handler(channel.port, hits.append)
        assert session.hypervisor.family_of(orphan) == {orphan}
        assert channel.notify(session.domain(orphan)) == 0
        assert hits == []
        session.platform.check_invariants()
        assert audit_platform(session.platform) == []


# ----------------------------------------------------------------------
# KVM: VMM pids from the same rover
# ----------------------------------------------------------------------
def test_kvm_pids_wrap_before_the_reserved_range_and_recycle():
    platform = KvmPlatform(memory_bytes=1 * GIB)
    first = platform.create_vm("first", 16 * MIB)
    assert first.pid == 2000
    platform.host._pid_rover = TOP - 1
    parent = platform.create_vm("p", 16 * MIB, ip="10.0.7.1", max_clones=8)
    children = platform.clone(parent.pid, count=3)
    assert [parent.pid, *children] == [TOP, 1, 2, 3]
    assert audit_kvm_platform(platform) == []
    platform.destroy(children[1])
    platform.host._pid_rover = 1
    assert platform.create_vm("again", 16 * MIB).pid == 2
    assert audit_kvm_platform(platform) == []


def test_orphaned_kvm_clone_is_not_adopted_by_a_recycled_parent_pid():
    platform = KvmPlatform(memory_bytes=1 * GIB)
    parent = platform.create_vm("p", 16 * MIB, ip="10.0.7.1", max_clones=4)
    (orphan_pid,) = platform.clone(parent.pid, count=1)
    orphan = platform.host.get_vm(orphan_pid)
    platform.destroy(parent.pid)
    assert orphan.parent_pid is None
    platform.host._pid_rover = parent.pid - 1
    stranger = platform.create_vm("x", 16 * MIB)
    assert stranger.pid == parent.pid
    assert not orphan.is_clone
    assert orphan_pid not in platform.host.descendants(stranger.pid)
    platform.destroy(orphan_pid)
    assert audit_kvm_platform(platform) == []
