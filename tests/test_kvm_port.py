"""Tests: the KVM port (paper §5.3 porting guidance, §9 future work)."""

import pytest

from repro.kvm.clone import KvmCloneError
from repro.kvm.platform import KvmPlatform
from repro.kvm.vm import VmState
from repro.sim.units import GIB, MIB
from repro.xen.errors import XenInvalidError


@pytest.fixture
def kvm() -> KvmPlatform:
    return KvmPlatform(memory_bytes=8 * GIB)


@pytest.fixture
def parent(kvm):
    return kvm.create_vm("guest0", 64 * MIB, ip="10.0.5.1",
                         p9_export="/srv/kvm", max_clones=16)


def test_create_and_destroy(kvm):
    free0 = kvm.free_bytes()
    vm = kvm.create_vm("a", 64 * MIB)
    assert vm.state is VmState.RUNNING
    assert kvm.free_bytes() < free0
    kvm.destroy(vm.pid)
    assert kvm.free_bytes() == free0
    kvm.check_invariants()


def test_clone_shares_memory_cow(kvm, parent):
    child_pid = kvm.clone(parent.pid)[0]
    child = kvm.host.get_vm(child_pid)
    assert child.memory.shared_pages() > 0
    # Writing COWs, exactly as on Xen.
    stats = child.memory.write_range(0, 4)
    assert stats.copied == 4
    kvm.check_invariants()


def test_clone_much_cheaper_than_boot(kvm, parent):
    t0 = kvm.now
    child_pid = kvm.clone(parent.pid)[0]
    clone_ms = kvm.now - t0
    t0 = kvm.now
    kvm.create_vm("fresh", 64 * MIB, ip="10.0.5.9")
    boot_ms = kvm.now - t0
    assert clone_ms * 3 < boot_ms
    assert child_pid in kvm.host.vms


def test_clone_rax_fixup(kvm, parent):
    pids = kvm.clone(parent.pid, count=2)
    for i, pid in enumerate(pids):
        assert kvm.host.get_vm(pid).vcpus[0].registers["rax"] == i + 1
    assert parent.vcpus[0].registers["rax"] == 0


def test_clone_respects_budget(kvm):
    vm = kvm.create_vm("capped", 64 * MIB, max_clones=1)
    kvm.clone(vm.pid)
    with pytest.raises(KvmCloneError):
        kvm.clone(vm.pid)


def test_virtio_net_clone_keeps_identity_and_joins_bond(kvm, parent):
    child_pid = kvm.clone(parent.pid)[0]
    child = kvm.host.get_vm(child_pid)
    assert child.net is not None
    assert child.net.ip == parent.net.ip
    assert child.net.mac == parent.net.mac
    assert child.net.name != parent.net.name  # fresh tap
    bond = kvm.host.family_bond(parent.net.ip)
    assert len(bond.slaves) == 2  # parent + clone


def test_taps_are_named_after_their_vms():
    """A tap is ``tap<pid>``, as a vif is ``vif<domid>.<index>``, so two
    same-seed platforms in one process name a family's taps alike and
    their bonds spread the same host traffic over the same names."""
    runs = []
    for _ in range(2):
        kvm = KvmPlatform(memory_bytes=1 * GIB)
        parent = kvm.create_vm("p", 16 * MIB, ip="10.0.5.3", max_clones=4)
        family = [parent.pid, *kvm.clone(parent.pid, count=3)]
        for src_port in range(40000, 40016):
            kvm.host.send_to_guest("10.0.5.3", 9000, src_port=src_port)
        names = [kvm.host.get_vm(pid).net.name for pid in family]
        assert names == [f"tap{pid}" for pid in family]
        runs.append((names, kvm.host.family_bond("10.0.5.3").distribution()))
    assert runs[0] == runs[1]


def test_virtio_9p_fids_inherited_by_fork(kvm, parent):
    fid = parent.p9.open("/dump", create=True)
    parent.p9.write(fid, 500)
    child_pid = kvm.clone(parent.pid)[0]
    child = kvm.host.get_vm(child_pid)
    # fork duplicated the descriptor: same fid, same offset, no QMP.
    assert child.p9.fids[fid].offset == 500
    child.p9.write(fid, 100)
    assert parent.p9.fids[fid].offset == 500  # offsets now independent


def test_family_tracking(kvm, parent):
    pids = kvm.clone(parent.pid, count=3)
    assert set(kvm.host.descendants(parent.pid)) == set(pids)
    grandchild = kvm.clone(pids[0])[0]
    assert grandchild in kvm.host.descendants(parent.pid)


def test_density_advantage_like_xen(kvm):
    """The headline density result ports: clones cost a fraction of a
    full VM (here: EPT + queues + VMM resident vs whole guest RAM)."""
    parent = kvm.create_vm("dense", 64 * MIB, ip="10.0.5.2", max_clones=64)
    free_before = kvm.free_bytes()
    pids = kvm.clone(parent.pid, count=8)
    per_clone = (free_before - kvm.free_bytes()) / 8
    assert per_clone < 0.5 * parent.memory_bytes
    for pid in pids:
        kvm.destroy(pid)
    kvm.check_invariants()


def test_clone_first_stage_is_fork_priced(kvm):
    """On KVM the memory stage rides on fork(): its cost scales like the
    Fig 6 process baseline, not like a fresh boot."""
    small = kvm.create_vm("small", 16 * MIB, max_clones=4)
    big = kvm.create_vm("big", 1024 * MIB, max_clones=4)
    t0 = kvm.now
    kvm.clone(small.pid)
    small_ms = kvm.now - t0
    t0 = kvm.now
    kvm.clone(big.pid)
    big_ms = kvm.now - t0
    assert big_ms > 5 * small_ms


# ----------------------------------------------------------------------
# app portability: the same GuestApp protocol runs on both platforms
# ----------------------------------------------------------------------
def test_xen_apps_run_unmodified_on_kvm(kvm):
    from repro.apps.faas import CLONE_DIRTY_MB, PythonFunctionApp

    parent = kvm.create_vm("py-fn", 64 * MIB, ip="10.0.5.7",
                           p9_export="/srv/py", max_clones=8,
                           app=PythonFunctionApp())
    assert parent.app.heap is not None  # main() ran at boot
    free_before = kvm.free_bytes()
    child_pid = kvm.clone(parent.pid)[0]
    child = kvm.host.get_vm(child_pid)
    # on_cloned dirtied the interpreter heap, exactly as on Xen.
    assert child.memory.cow_copied_total >= (CLONE_DIRTY_MB * MIB) >> 12
    per_clone = free_before - kvm.free_bytes()
    assert per_clone > CLONE_DIRTY_MB * MIB  # dirty heap + EPT + VMM
    kvm.check_invariants()


def test_udp_server_app_on_kvm(kvm):
    from repro.apps.udp_server import UdpServerApp

    got = []
    kvm.host.listen(9999, lambda pkt: got.append(pkt.payload))
    parent = kvm.create_vm("udp", 16 * MIB, ip="10.0.5.8", max_clones=8,
                           app=UdpServerApp())
    assert got == [("ready", parent.pid)]
    kvm.clone(parent.pid, count=2)
    assert len(got) == 3  # both clones announced themselves
    # Echo path: host -> bond -> whichever family member owns the
    # flow's slave; each clone rebinds to its unique port (paper §6.1),
    # so scan source ports until the parent's slave is hit.
    echoed = []
    for src_port in range(6000, 6032):
        kvm.host.listen(src_port, lambda pkt: echoed.append(pkt.payload))
        kvm.host.send_to_guest("10.0.5.8", 9000, payload="ping",
                               src_port=src_port)
        if echoed:
            break
    assert "ping" in echoed


def test_kvm_handle_offers_the_shared_calls_and_no_xen_only_ones(kvm,
                                                                  parent):
    api = parent.api
    for name in ("shutdown", "crash", "read_file", "pipe", "socketpair"):
        assert not hasattr(api, name)
    assert api.domid == parent.pid and api.now == kvm.now
    (child,) = api.fork()
    assert kvm.host.get_vm(child).parent_pid == parent.pid
    fid = api.open("/log", create=True)
    assert api.write_file(fid, 64) == 64
    api.close_file(fid)
    bare = kvm.create_vm("bare", 16 * MIB)
    with pytest.raises(XenInvalidError):
        bare.api.udp_send("10.0.0.1", 9999)


def test_kvm_console_via_api(kvm, parent):
    parent.api.console("hello from kvm")
    assert parent.console_output == ["hello from kvm"]
