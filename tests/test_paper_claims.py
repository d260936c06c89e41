"""The paper's headline claims, asserted end-to-end.

One test per claim from the abstract/conclusions, so a regression that
breaks a headline number fails with the claim's name.
"""

import pytest

from repro import Platform
from repro.apps.udp_server import UdpServerApp
from repro.sim.units import GIB
from repro.xen.domid import DOMID_CHILD
from repro.xen.errors import XenPermissionError
from tests.conftest import udp_config


def test_claim_8x_faster_instantiation():
    """Abstract: "Nephele provides 8x faster instantiation times"."""
    from repro.experiments import fig4_instantiation

    result = fig4_instantiation.run(instances=150, include_restore=False)
    assert 6.0 <= result.clone_speedup <= 11.0


def test_claim_3x_more_vms_on_same_hardware():
    """Abstract: "...can run 3x more active unikernel VMs on the same
    hardware compared to booting separate unikernels"."""
    from repro.experiments import fig5_density

    result = fig5_density.run(sample_every=1000,
                              total_memory_bytes=6 * GIB)
    assert result.density_ratio >= 2.5


def test_claim_transparent_operation(platform):
    """§2 requirement: "both parent and child VMs should continue to
    work seamlessly after the completion of the cloning operation,
    without requiring any code changes"."""
    served = []
    parent = platform.xl.create(udp_config("t", max_clones=4),
                                app=UdpServerApp())
    child_id = platform.cloneop.clone(parent.domid)[0]
    # The parent still echoes on its original port (scan source ports
    # until the bond hashes the flow to the parent's slave)...
    for src in range(7000, 7064):
        platform.dom0.listen(src, lambda pkt: served.append(pkt.payload))
        platform.dom0.send_to_guest("10.0.1.1", 9000, payload="to-parent",
                                    src_port=src)
        if "to-parent" in served:
            break
    assert "to-parent" in served
    # ...and the child echoes on its unique port, no re-setup needed.
    child_app = platform.hypervisor.get_domain(child_id).guest.app
    for src in range(7100, 7164):
        platform.dom0.listen(src, lambda pkt: served.append(pkt.payload))
        platform.dom0.send_to_guest("10.0.1.1", child_app.listen_port,
                                    payload="to-child", src_port=src)
        if "to-child" in served:
            break
    assert "to-child" in served


def test_claim_io_cloning(platform, udp_parent):
    """§2 requirement: "cloning should go beyond duplicating address
    spaces ... to enable storage and network I/O to function seamlessly
    after cloning"."""
    child_id = platform.cloneop.clone(udp_parent.domid)[0]
    child = platform.hypervisor.get_domain(child_id)
    vif = child.frontends["vif"][0]
    assert vif.backend is not None and vif.backend.connected
    # Outbound traffic works immediately.
    got = []
    platform.dom0.listen(4242, lambda pkt: got.append(pkt.payload))
    child.guest.api.udp_send("10.0.0.1", 4242, payload="io-works")
    assert got == ["io-works"]


def test_claim_single_hypercall_interface(platform):
    """§1: "Nephele extends the hypervisor interface only with a single
    new hypercall" - every cloning operation is a CLONEOP subop."""
    from repro.core.cloneop import CloneSubOp

    subops = {op.value for op in CloneSubOp}
    assert subops == {"clone", "clone_completion", "clone_failed",
                      "clone_cow", "clone_reset", "set_global_enable"}
    # And the hypervisor exposes exactly one cloning entry point.
    assert platform.hypervisor.cloneop is platform.cloneop


def test_claim_memory_sharing_restricted_to_family(platform):
    """§1/§8: dedup side channels are closed by sharing only within a
    family of clones: a ``DOMID_CHILD`` grant maps from the granter's
    clones and from no other tenant."""
    a = platform.xl.create(udp_config("a", max_clones=2), app=UdpServerApp())
    b = platform.xl.create(udp_config("b", ip="10.0.9.1", max_clones=2),
                           app=UdpServerApp())
    hyp = platform.hypervisor
    gref = a.grants.grant_access(DOMID_CHILD, a.guest.heap_base_pfn)
    a_child = platform.cloneop.clone(a.domid)[0]
    assert hyp.map_grant(a.domid, gref, a_child).gref == gref
    with pytest.raises(XenPermissionError,
                       match=f"domain {b.domid} may not map grant {gref}"):
        hyp.map_grant(a.domid, gref, b.domid)
    assert a_child in hyp.family_of(a.domid)
    assert b.domid not in hyp.family_of(a.domid)


def test_claim_ipc_as_idc(platform):
    """§4.3: "IPC mechanisms can be replicated as IDC based on the
    primitives provided by the virtualization platform"."""
    from repro.idc.pipe import Pipe
    from repro.idc.socketpair import SocketPair

    parent = platform.xl.create(udp_config("p", max_clones=4),
                                app=UdpServerApp())
    pipe = Pipe(platform.hypervisor, parent)
    pair = SocketPair(platform.hypervisor, parent)
    child_id = platform.cloneop.clone(parent.domid)[0]
    child = platform.hypervisor.get_domain(child_id)
    # "with our solution IPC is already established when the call ends"
    pipe.write_end(parent).write(b"ready at fork-return")
    assert pipe.read_end(child).read() == b"ready at fork-return"
    pair.end_a(parent).send(b"hello")
    assert pair.end_b(child).recv() == b"hello"


def test_claim_fuzzing_throughput_bump():
    """§7.2/abstract: cloning lifts Unikraft fuzzing from ~2 to ~470
    exec/s, within 20% of native process fuzzing."""
    from repro.apps.fuzzing import FuzzMode, FuzzSession

    means = {}
    for mode in (FuzzMode.UNIKRAFT_NOCLONE, FuzzMode.UNIKRAFT_CLONE,
                 FuzzMode.LINUX_PROCESS):
        report = FuzzSession(Platform.create(), mode,
                             baseline=True).run(duration_s=10.0)
        means[mode] = report.mean_throughput
    assert means[FuzzMode.UNIKRAFT_CLONE] > \
        100 * means[FuzzMode.UNIKRAFT_NOCLONE]
    gap = (means[FuzzMode.LINUX_PROCESS] - means[FuzzMode.UNIKRAFT_CLONE]) \
        / means[FuzzMode.LINUX_PROCESS]
    assert gap < 0.25


def test_claim_faas_memory_advantage():
    """§7.3: clones cost tens of MB per FaaS instance vs hundreds for
    containers, with similar first-instance footprints."""
    from repro.apps.faas import FaasBackendType, OpenFaasGateway

    platform = Platform.create(total_memory_bytes=32 * GIB,
                               dom0_memory_bytes=8 * GIB, cpus=10)
    timeline = OpenFaasGateway(platform,
                               FaasBackendType.UNIKERNEL).run(duration_s=60)
    first = timeline.memory[1][1]
    last = timeline.memory[-1][1]
    per_instance = (last - first) / max(1, len(timeline.ready_times_s))
    assert per_instance < 100  # tens of MB, not hundreds
    assert 60 <= first <= 110
