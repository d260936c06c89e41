"""Tests: platform snapshots and event counters."""

from repro.apps.udp_server import UdpServerApp
from repro.faults import FaultPlan, FaultSpec
from repro.metrics import counters, snapshot
from repro.platform import Platform
from repro.sim.units import GIB
from tests.conftest import udp_config


def test_empty_platform_snapshot(platform):
    snap = snapshot(platform)
    assert snap.domains == 0
    assert snap.guest_pool_total == 12 * GIB
    assert snap.guest_pool_free == 12 * GIB
    assert snap.cow_shared_bytes == 0
    assert snap.families == []
    assert "guest pool" in snap.format()


def test_snapshot_counts_domains_and_states(platform, udp_parent):
    config = udp_config("paused-one", ip="10.0.1.9")
    config.start_clones_paused = True
    other = platform.xl.create(config, app=UdpServerApp())
    platform.domctl.pause(0, other.domid)
    snap = snapshot(platform)
    assert snap.domains == 2
    assert snap.running == 1
    assert snap.paused == 1
    assert snap.clones == 0


def test_snapshot_family_sharing(platform, udp_parent):
    platform.cloneop.clone(udp_parent.domid, count=3)
    snap = snapshot(platform)
    assert snap.clones == 3
    assert len(snap.families) == 1
    family = snap.families[0]
    assert family.members == 4
    assert family.root_name == "udp0"
    assert family.shared_pages > 0
    assert 0.3 <= family.sharing_ratio <= 0.9
    assert snap.cow_shared_bytes > 0
    assert f"family 'udp0'" in snap.format()


def test_snapshot_tracks_registries(platform, udp_parent):
    platform.cloneop.clone(udp_parent.domid)
    snap = snapshot(platform)
    assert snap.clone_operations == 1
    assert snap.xenstore_nodes > 20
    assert snap.xenstore_requests > 20


def test_snapshot_counts_clone_operations_not_children(platform, udp_parent):
    platform.cloneop.clone(udp_parent.domid, count=3)
    snap = snapshot(platform)
    assert snap.clone_operations == 1
    assert "clone operations  1" in snap.format()


def test_snapshot_grandchildren_in_one_family(platform, udp_parent):
    child_id = platform.cloneop.clone(udp_parent.domid)[0]
    platform.cloneop.clone(child_id)
    snap = snapshot(platform)
    assert len(snap.families) == 1
    assert snap.families[0].members == 3


def test_cli_stats_command(platform, tmp_path):
    import io

    from repro.cli import XlShell

    shell = XlShell(platform, out=io.StringIO())
    cfg = tmp_path / "g.cfg"
    cfg.write_text("name='g'\nmemory=4\nvif=['ip=10.0.1.1']\nmax_clones=4\n")
    shell.execute(f"create {cfg}")
    shell.execute("clone g 2")
    shell.execute("stats")
    text = shell.out.getvalue()
    assert "domains           3" in text
    assert "family 'g'" in text


#: The counters :func:`_count_events` moves.
MOVED = {
    "boot.creates", "clone.children", "clone.failed", "clone.ops",
    "clone.pages_copied", "clone.pages_shared", "clone.second_stages",
    "faults.aborted", "faults.injected", "net.bridge.flood_deliveries",
    "net.bridge.flood_filtered", "net.bridge.flooded",
    "net.bridge.forwarded", "vif.booted", "vif.cloned", "xenstore.requests",
}


def _count_events(trace: bool) -> tuple[dict[str, int], float]:
    """Clone with one second stage failing, COW-write, cold-boot, send a
    host packet and destroy everything; return counters and clock."""
    plan = FaultPlan(specs=[FaultSpec(site="xenstore.xs_clone", count=1)])
    platform = Platform.create(trace=trace, fault_plan=plan)
    platform.faults.active = False
    parent = platform.xl.create(udp_config("udp0", max_clones=8),
                                app=UdpServerApp())
    platform.faults.active = True
    for child in platform.xl.clone(parent.domid, count=4):
        memory = platform.hypervisor.domains[child].memory
        memory.write_range(memory.segments[0].pfn_start, 2)
    platform.xl.create(udp_config("cold", ip="10.0.1.2"), app=UdpServerApp())
    platform.dom0.send_to_guest("10.0.1.2", 9000, payload="ping")
    for domid in sorted(platform.hypervisor.domains, reverse=True):
        platform.xl.destroy(domid)
    return counters(platform), platform.now


def test_tracing_changes_no_count():
    traced, traced_ms = _count_events(trace=True)
    untraced, untraced_ms = _count_events(trace=False)
    assert traced == untraced
    assert traced_ms == untraced_ms
    assert MOVED <= set(traced)
    assert all(traced[name] > 0 for name in MOVED)
    assert traced["clone.failed"] == 1
    assert traced["clone.children"] == traced["clone.second_stages"] == 3
