"""Migration chaos: never-split property, cutover crash, golden pin."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan, FaultSpec
from repro.fleet import (
    Fleet,
    FleetConfig,
    HostState,
    audit_fleet,
    run_migration_chaos,
)
from repro.scenarios import SCENARIOS
from repro.sim.units import MIB
from repro.toolstack.config import DomainConfig, VifConfig


def build_fleet(plan: FaultPlan | None = None, hosts: int = 3,
                seed: int = 0xC10E) -> Fleet:
    config = FleetConfig(hosts=hosts, seed=seed,
                         host_memory_bytes=24 * MIB,
                         host_dom0_bytes=8 * MIB)
    fleet = Fleet(config, plan=plan)
    if fleet.faults.enabled:
        # Arm the plan only for the migration itself, not the setup.
        fleet.faults.active = False
    fleet.create_family(DomainConfig(
        name="web", memory_mb=4, vifs=[VifConfig(ip="10.11.0.1")],
        max_clones=64))
    fleet.clone_family("web", count=2)
    if fleet.faults.enabled:
        fleet.faults.active = True
    return fleet


def dirty_family(fleet: Fleet, pages: int) -> None:
    family = fleet.families["web"]
    for host_name, domids in family.clones.items():
        host = fleet.host(host_name)
        for domid in domids:
            memory = host.platform.hypervisor.domains[domid].memory
            remaining = pages
            for segment in memory.segments:
                if remaining <= 0:
                    break
                count = min(remaining,
                            segment.pfn_end - segment.pfn_start)
                memory.write_range(segment.pfn_start, count)
                remaining -= count


def family_hosts(fleet: Fleet) -> set[str]:
    family = fleet.families["web"]
    return (set(family.replicas)
            | {h for h, ids in family.clones.items() if ids})


def quiesce(fleet: Fleet, record) -> None:
    for _ in range(fleet.planner.round_limit + 4):
        fleet.tick()
        if not record.active:
            return


# ----------------------------------------------------------------------
# the never-split property
# ----------------------------------------------------------------------
@given(
    site=st.sampled_from(["migration.source", "migration.target",
                          "migration.stream"]),
    after=st.integers(0, 6),
    mode=st.sampled_from(["precopy", "postcopy"]),
    pages=st.integers(0, 200),
    seed=st.integers(0, 0xFF),
)
@settings(max_examples=40, deadline=None)
def test_any_single_fault_never_splits_the_family(site, after, mode,
                                                  pages, seed):
    """One fault at any site, in any round, in either mode: the family
    is never left half-migrated and no conservation law breaks."""
    plan = FaultPlan(specs=[FaultSpec(site=site, count=1, after=after)],
                     name="one-shot")
    fleet = build_fleet(plan=plan, seed=seed)
    dirty_family(fleet, pages)
    record = fleet.planner.plan_family("web", "host0", target="host1",
                                       mode=mode)
    quiesce(fleet, record)

    assert not record.active, "migration never quiesced"
    assert record.pages_pending == 0
    assert (record.pages_queued
            == record.pages_streamed + record.pages_aborted)
    assert not audit_fleet(fleet)
    hosts = family_hosts(fleet)
    if record.phase == "done":
        # The fault missed (or was absorbed): a complete move.
        assert hosts == {"host1"}
    elif not record.committed and all(h.alive for h in fleet.hosts):
        # Aborted in place before cutover: wholly back at the source.
        assert hosts == {"host0"}
    else:
        # A host died (or a committed family lost its page source):
        # the survivors re-placed it cold — somewhere, and never on a
        # dead host.
        assert hosts
        assert all(fleet.host(h).alive for h in hosts)


# ----------------------------------------------------------------------
# crash exactly at the stop-and-copy window
# ----------------------------------------------------------------------
def test_target_crash_during_cutover_leaves_source_intact():
    # Learn the cutover round from an identical clean run, then aim the
    # target's death at precisely the stop-and-copy advance.
    clean = build_fleet()
    dirty_family(clean, 40)
    clean_record = clean.planner.plan_family("web", "host0",
                                             target="host1")
    quiesce(clean, clean_record)
    assert clean_record.phase == "done"
    cutover_round = clean_record.rounds_done

    plan = FaultPlan(specs=[FaultSpec(site="migration.target", count=1,
                                      after=cutover_round - 1)],
                     name="die-at-cutover")
    fleet = build_fleet(plan=plan)
    dirty_family(fleet, 40)
    record = fleet.planner.plan_family("web", "host0", target="host1")
    quiesce(fleet, record)

    assert record.phase == "failed"
    assert record.reason == "target-lost"
    assert not record.committed
    assert fleet.host("host1").state in (HostState.CRASHED,
                                         HostState.DEAD)
    # Every page already streamed is simply thrown away; the family
    # keeps serving from the source as if nothing happened.
    assert family_hosts(fleet) == {"host0"}
    assert record.pages_streamed > 0
    assert not audit_fleet(fleet)


# ----------------------------------------------------------------------
# the golden storm pin (the registry's migration-chaos scenario)
# ----------------------------------------------------------------------
def test_storm_fingerprint_is_pinned():
    # Any behavior drift in the migration tier, the fault injector or
    # the fleet's failover paths moves this hash.
    report = run_migration_chaos(seed=0xC10E)
    assert report["violations"] == []
    assert report["migrations_planned"] > 0
    assert report["migrations_done"] > 0
    assert report["migrations_failed"] > 0
    assert report["fingerprint"] == SCENARIOS["migration-chaos"].pin, (
        "migration storm drifted: planned "
        f"{report['migrations_planned']}, done "
        f"{report['migrations_done']}, failed "
        f"{report['migrations_failed']}, streamed "
        f"{report['pages_streamed']}, aborted {report['pages_aborted']}")
