"""Fleet behavior: placement, forwarding, failure detection, failover."""

from __future__ import annotations

import pytest

from repro.faults.plan import FaultPlan, FaultSpec
from repro.fleet import Fleet, FleetConfig, FleetError, HostState, audit_fleet
from repro.sim.units import MIB
from repro.toolstack.config import DomainConfig, VifConfig


def fam(i: int, max_clones: int = 64) -> DomainConfig:
    return DomainConfig(name=f"fam{i}", memory_mb=4,
                        vifs=[VifConfig(ip=f"10.8.{i + 1}.1")],
                        max_clones=max_clones)


def small_fleet(hosts: int = 3, plan: FaultPlan | None = None,
                **overrides) -> Fleet:
    config = FleetConfig(hosts=hosts, host_memory_bytes=96 * MIB,
                         host_dom0_bytes=32 * MIB, **overrides)
    return Fleet(config, plan=plan)


def test_member_hosts_are_fully_independent():
    fleet = small_fleet(hosts=2)
    fleet.create_family(fam(0))
    h0, h1 = fleet.hosts
    assert h0.platform.hypervisor is not h1.platform.hypervisor
    assert h0.platform.guest_count() == 1
    assert h1.platform.guest_count() == 0


def test_member_host_seeds_differ_but_are_deterministic():
    seeds_a = [h.platform.config.seed for h in small_fleet(hosts=3).hosts]
    seeds_b = [h.platform.config.seed for h in small_fleet(hosts=3).hosts]
    assert seeds_a == seeds_b
    assert len(set(seeds_a)) == 3


def test_clone_result_conserves_children():
    fleet = small_fleet()
    fleet.create_family(fam(0))
    result = fleet.clone_family("fam0", count=5)
    assert result.requested == len(result.placed) + result.failed
    assert not audit_fleet(fleet)


def test_unknown_family_and_bad_count_raise():
    fleet = small_fleet()
    with pytest.raises(FleetError):
        fleet.clone_family("nope", count=1)
    fleet.create_family(fam(0))
    with pytest.raises(FleetError):
        fleet.clone_family("fam0", count=0)


def test_capacity_pressure_forwards_cross_host():
    fleet = small_fleet(hosts=3)
    fleet.create_family(fam(0, max_clones=512))
    placed_hosts: set[str] = set()
    for _ in range(12):
        result = fleet.clone_family("fam0", count=4)
        placed_hosts.update(host for host, _ in result.placed)
        if len(placed_hosts) > 1:
            break
    assert len(placed_hosts) > 1, "origin never filled up"
    assert fleet.stats["forwards"] >= 1
    # The forward booted a replica on the target host.
    family = fleet.families["fam0"]
    assert len(family.replicas) == len(placed_hosts)
    assert not audit_fleet(fleet)


def test_replicas_keep_the_family_exit_policies():
    # Every replica, the origin's and a forwarded one, boots from the
    # family config: its exit policies, but vif objects of its own.
    config = fam(0, max_clones=512)
    config.on_crash = "preserve"
    fleet = small_fleet(hosts=2)
    fleet.create_family(config)
    family = fleet.families["fam0"]
    for _ in range(12):
        fleet.clone_family("fam0", count=4)
        if len(family.replicas) > 1:
            break
    assert len(family.replicas) == 2, "origin never filled up"
    for host_name, domid in family.replicas.items():
        platform = fleet.host(host_name).platform
        replica = platform.hypervisor.domains[domid]
        assert replica.config.on_crash == "preserve"
        assert replica.config.vifs[0] is not config.vifs[0]
        # xl applies the policy: a crashed replica is kept for debugging.
        platform.hypervisor.guest_shutdown(domid, crashed=True)
        assert platform.xl.preserved == [domid]
        assert domid in platform.hypervisor.domains


def test_heartbeat_crash_is_detected_at_the_timeout():
    plan = FaultPlan(specs=[FaultSpec(site="host.crash",
                                      match={"op": "heartbeat"}, count=1)],
                     name="one-crash")
    fleet = small_fleet(hosts=2, plan=plan)
    timeout = fleet.config.heartbeat_timeout_beats
    fleet.tick()  # fault fires: host0 is CRASHED, not yet declared
    assert fleet.hosts[0].state is HostState.CRASHED
    fleet.run_heartbeats(timeout - 1)
    assert fleet.hosts[0].state is HostState.DEAD
    assert fleet.stats["detections"] == 1
    assert fleet.stats["hosts_crashed"] == 1


def test_partitioned_host_is_fenced():
    plan = FaultPlan(specs=[FaultSpec(site="host.partition",
                                      match={"op": "heartbeat"}, count=1)],
                     name="one-partition")
    fleet = small_fleet(hosts=2, plan=plan)
    fleet.create_family(fam(0))  # lands on host0 (round-robin)
    fleet.run_heartbeats(fleet.config.heartbeat_timeout_beats)
    dead = fleet.hosts[0]
    assert dead.state is HostState.DEAD
    assert fleet.stats["hosts_fenced"] == 1
    assert dead.platform.guest_count() == 0
    assert not audit_fleet(fleet)


def test_degraded_host_is_drained_and_repairable():
    plan = FaultPlan(specs=[FaultSpec(site="host.degraded",
                                      match={"op": "heartbeat"}, count=1)],
                     name="one-grey")
    fleet = small_fleet(hosts=2, plan=plan)
    fleet.tick()
    grey = fleet.hosts[0]
    assert grey.state is HostState.DEGRADED
    # Drained from new placement...
    origin = fleet.create_family(fam(0)).host
    assert origin != grey.name
    # ...but repairable back into the pool.
    fleet.repair_host(grey.name)
    assert grey.state is HostState.UP
    assert fleet.stats["repairs"] == 1
    with pytest.raises(FleetError):
        fleet.repair_host(grey.name)


def test_host_death_replaces_lost_children_on_survivors():
    # after=0: the first heartbeat poll is host0 — the origin, since
    # round-robin placed the first family there. The clones land before
    # any tick, so the host dies with three children to fail over.
    plan = FaultPlan(specs=[FaultSpec(site="host.crash",
                                      match={"op": "heartbeat"}, count=1)],
                     name="origin-crash")
    fleet = small_fleet(hosts=3, plan=plan)
    origin = fleet.create_family(fam(0)).host
    assert origin == "host0"
    fleet.clone_family("fam0", count=3)
    assert fleet.stats["children_placed"] == 3
    fleet.run_heartbeats(fleet.config.heartbeat_timeout_beats + 3)
    dead = fleet.host(origin)
    assert dead.state is HostState.DEAD
    stats = fleet.stats
    assert stats["children_lost"] == 3
    assert stats["children_replaced"] + stats["replace_failed"] == 3
    assert stats["children_replaced"] >= 1
    # The family now lives entirely on survivors.
    family = fleet.families["fam0"]
    assert origin not in family.replicas
    assert origin not in family.clones
    assert not audit_fleet(fleet)


def test_midbatch_kill_unwinds_via_whole_batch_rollback():
    plan = FaultPlan(specs=[FaultSpec(site="host.crash",
                                      match={"op": "clone"},
                                      after=1, count=1)],
                     name="midbatch")
    fleet = small_fleet(hosts=3, plan=plan)
    origin = fleet.create_family(fam(0)).host
    first = fleet.clone_family("fam0", count=2)
    assert first.failed == 0  # after=1 skips the first batch
    second = fleet.clone_family("fam0", count=3)
    # The host died under the batch; every child was either re-placed
    # on a survivor or reported failed — none on the dead host.
    assert second.requested == len(second.placed) + second.failed
    assert fleet.host(origin).state is HostState.DEAD
    assert all(host != origin for host, _ in second.placed)
    assert second.retries >= 1
    assert not audit_fleet(fleet)


def test_shutdown_quiesces_everything():
    fleet = small_fleet(hosts=2)
    fleet.create_family(fam(0))
    fleet.clone_family("fam0", count=2)
    fleet.shutdown()
    assert fleet.guest_count() == 0
    assert not fleet.families
    assert not audit_fleet(fleet)


def test_report_is_json_shaped():
    import json

    fleet = small_fleet(hosts=2)
    fleet.create_family(fam(0))
    fleet.tick()
    report = fleet.report()
    json.dumps(report)  # must be serializable
    assert report["beats"] == 1
    assert set(report["hosts"]) == {"host0", "host1"}
    assert report["families"]["fam0"]["origin"] == "host0"
