"""Fleet migration headline: drain-evacuate vs. kill-reboot tails.

The operational question warm migration answers: when a host must go
away (maintenance, imbalance), is *draining* it — live pre-copy
migration of its clone families under traffic — actually better for
the request tail than the brutal alternative the fleet already
survived, killing the host and letting failover re-place the children
cold? Three arms, each a fresh same-seed
:class:`~repro.frontdoor.session.FleetSession` under identical
front-door traffic (heartbeats driven by the dispatch loop, so
migrations and failure detection advance *under load*):

- **baseline** — nobody touches the fleet;
- **drain** — the family's origin host is drained before the run;
  pre-copy rounds, cutover and the post-move pool refresh all happen
  mid-traffic;
- **kill** — the same host is crashed mid-run by a ``host.crash``
  fault; detection waits out the heartbeat timeout, the children are
  re-placed cold.

The fleet is sized so the family *spans* hosts (tight host pools make
the clone batches spill: seven instances on the origin, three on a
second host), which is what makes the comparison sharp. The kill arm
loses seven of ten servers for the whole detection window — the two
survivors' processor-sharing queues eat the full arrival rate, and the
backlog drains only after cold re-placement — while the drain arm
keeps serving on the DRAINING source until cutover, paying only the
in-flight copies retired at the stop-and-copy instant. Drain therefore
holds a P99 near the untouched baseline while the kill arm's tail
carries the overload window (the experiment asserts all three). A
fourth unit runs the 100-fault migration storm
(:func:`run_migration_chaos`) and requires a clean fleet-wide audit
with pages in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.experiments.report import format_table
from repro.faults.plan import FaultPlan, FaultSpec
from repro.fleet.chaos import audit_fleet
from repro.fleet.migration import run_migration_chaos
from repro.frontdoor.session import FleetSession
from repro.scenarios import fingerprint

MIB = 1024 * 1024

#: Per-host guest pool: 13.5 MiB (3456 frames). Sized so the origin
#: host fits the parent replica (~1132 frames) plus the first clone
#: batch (6 x ~354 frames) and nothing more — the second batch spills
#: to a fresh host, splitting the family 7/3 across hosts, and the
#: post-kill re-placement is forced onto the empty third host.
HOST_MEMORY_BYTES = 2 * MIB + 13 * MIB + 512 * 1024
HOST_DOM0_BYTES = 2 * MIB


def _run_arm(kind: str, seed: int, params: dict[str, Any]
             ) -> dict[str, Any]:
    """One experiment unit: a traffic arm or the migration storm."""
    if kind == "storm":
        report = run_migration_chaos(
            seed=seed, hosts=params["hosts"],
            faults=params["faults"], rounds=params["storm_rounds"])
        return {key: report[key] for key in (
            "migrations_planned", "migrations_done", "migrations_failed",
            "pages_streamed", "pages_aborted", "faults_fired",
            "midstream_audits", "violations", "fingerprint")}

    plan = None
    if kind == "kill":
        # Fire on the origin host's heartbeat poll at the requested
        # tick: with all hosts up, host0 is polled at hits 1, 1+H,
        # 1+2H, ... so `after = H * (tick - 1)` lands the crash on
        # host0's poll of that tick. The family's origin is host0 by
        # construction (fresh fleet, first placement).
        after = params["hosts"] * (params["kill_tick"] - 1)
        plan = FaultPlan(specs=[
            FaultSpec(site="host.crash", match={"op": "heartbeat"},
                      after=after, count=1),
        ], name=f"migration-kill-{seed:#x}")
    session = FleetSession(hosts=params["hosts"], seed=seed,
                           policy="least-loaded",
                           host_memory_bytes=HOST_MEMORY_BYTES,
                           host_dom0_bytes=HOST_DOM0_BYTES,
                           plan=plan)
    placement = session.create_family("web", ip="10.77.0.1")
    # Two batches: the first fills the origin host, the second spills
    # (replica boot + clones) onto a second host. The family now spans
    # hosts, so a lost host leaves live-but-overloaded survivors.
    session.clone("web", count=params["clones_origin"])
    session.clone("web", count=params["clones_spill"])
    migrations: list[dict[str, Any]] = []
    if kind == "drain":
        drained = session.drain_host(placement.host)
        migrations = drained["migrations"]
    dispatch = session.dispatch(
        "web", "faas", requests=params["requests"],
        arrival_rps=params["arrival_rps"],
        heartbeat_every_ms=params["heartbeat_every_ms"],
        label=f"migration-{kind}")
    fleet_stats = dict(session.fleet.stats)
    family = session.handle("GET", "/families/web").body
    violations = audit_fleet(session.fleet, session.frontdoor)
    if kind == "drain":
        migrations = [record.to_dict()
                      for record in session.fleet.migrations]
    session.close(check=False)
    return {
        "origin": placement.host,
        "requests": dispatch.requests,
        "completed": dispatch.completed,
        "failed": dispatch.failed,
        "timed_out": dispatch.timed_out,
        "copies_lost": dispatch.copies_lost,
        "p50_ms": round(dispatch.latency_p50_ms, 6),
        "p99_ms": round(dispatch.latency_p99_ms, 6),
        "hosts_killed": (fleet_stats["hosts_crashed"]
                         + fleet_stats["hosts_fenced"]),
        "children_replaced": fleet_stats["children_replaced"],
        "migrations_done": fleet_stats["migrations_done"],
        "migrations_failed": fleet_stats["migrations_failed"],
        "migration_rounds": fleet_stats["migration_rounds"],
        "pages_streamed": fleet_stats["migration_pages_streamed"],
        "instances_migrated": fleet_stats["instances_migrated"],
        "family_end_state": {
            "migrating": family["migrating"],
            "source_host": family["source_host"],
            "target_host": family["target_host"],
            "rounds_done": family["rounds_done"],
        },
        "migrations": migrations,
        "violations": violations,
        "fingerprint": dispatch.fingerprint,
    }


@dataclass
class FleetMigrationResult:
    """The ablation table plus the storm unit."""

    seed: int
    hosts: int
    instances: int
    requests: int
    arrival_rps: float
    arms: dict[str, dict[str, Any]] = field(default_factory=dict)
    storm: dict[str, Any] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    fingerprint: str = ""

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation, the fingerprint payload."""
        return {
            "seed": self.seed,
            "hosts": self.hosts,
            "instances": self.instances,
            "requests": self.requests,
            "arrival_rps": round(self.arrival_rps, 6),
            "arms": {name: dict(arm)
                     for name, arm in sorted(self.arms.items())},
            "storm": dict(self.storm),
            "violations": list(self.violations),
            "fingerprint": self.fingerprint,
        }


def run(seed: int = 0xC10E, *, hosts: int = 3, clones_origin: int = 6,
        clones_spill: int = 2, requests: int = 12_000,
        arrival_rps: float = 1500.0, heartbeat_every_ms: float = 50.0,
        kill_tick: int | None = None, storm_faults: int = 100,
        storm_rounds: int = 10) -> FleetMigrationResult:
    """The drain-vs-kill ablation at one operating point.

    The arrival rate deliberately exceeds what the spill host's
    survivors can serve alone (the kill arm's overload window is the
    whole point); ``kill_tick`` defaults to a quarter of the run,
    mirroring where the drain arm's cutover lands, so both arms lose
    their host at a comparable point in the request stream.
    """
    if kill_tick is None:
        duration_ms = requests / arrival_rps * 1000.0
        kill_tick = max(2, int(duration_ms / heartbeat_every_ms / 4))
    params = {
        "hosts": hosts, "clones_origin": clones_origin,
        "clones_spill": clones_spill, "requests": requests,
        "arrival_rps": arrival_rps,
        "heartbeat_every_ms": heartbeat_every_ms,
        "kill_tick": kill_tick, "faults": storm_faults,
        "storm_rounds": storm_rounds,
    }
    result = FleetMigrationResult(
        seed=seed, hosts=hosts,
        instances=2 + clones_origin + clones_spill,
        requests=requests, arrival_rps=arrival_rps)
    for kind in ("baseline", "drain", "kill", "storm"):
        unit = _run_arm(kind, seed, params)
        if kind == "storm":
            result.storm = unit
        else:
            result.arms[kind] = unit
        result.violations.extend(
            f"{kind}: {violation}" for violation in unit["violations"])

    drain = result.arms["drain"]
    kill = result.arms["kill"]
    if drain["migrations_done"] < 1:
        result.violations.append("drain arm completed no migration")
    if not drain["family_end_state"]["target_host"]:
        result.violations.append("drain arm reports no target host")
    if kill["hosts_killed"] != 1:
        result.violations.append(
            f"kill arm killed {kill['hosts_killed']} hosts, wanted 1")
    baseline = result.arms["baseline"]
    if drain["p99_ms"] >= kill["p99_ms"]:
        result.violations.append(
            f"drain P99 {drain['p99_ms']} ms did not beat kill P99 "
            f"{kill['p99_ms']} ms")
    if kill["p99_ms"] <= baseline["p99_ms"]:
        result.violations.append(
            f"kill P99 {kill['p99_ms']} ms shows no tail damage over "
            f"baseline {baseline['p99_ms']} ms")
    if drain["p99_ms"] > baseline["p99_ms"] * 1.25:
        result.violations.append(
            f"drain P99 {drain['p99_ms']} ms is not a bounded blip over "
            f"baseline {baseline['p99_ms']} ms")

    result.fingerprint = fingerprint(result.to_dict())
    return result


def run_quick(seed: int = 0xC10E) -> FleetMigrationResult:
    """The CI-sized run: 3k requests per arm, small storm; the
    ``fleet-migration`` entry of :data:`repro.scenarios.SCENARIOS`."""
    return run(seed, requests=3_000, storm_faults=30, storm_rounds=4)


def format_result(result: FleetMigrationResult) -> str:
    """The drain-vs-kill table plus the storm line."""
    rows = []
    for name in ("baseline", "drain", "kill"):
        arm = result.arms[name]
        rows.append([
            name,
            f"{arm['completed']}/{arm['requests']}",
            arm["failed"],
            f"{arm['p50_ms']:.2f}",
            f"{arm['p99_ms']:.2f}",
            arm["migrations_done"],
            arm["children_replaced"],
        ])
    table = format_table(
        f"Fleet migration: drain-evacuate vs kill-reboot "
        f"({result.hosts} hosts, {result.instances} instances, "
        f"{result.requests} requests/arm @ {result.arrival_rps:.0f} rps)",
        ["arm", "completed", "failed", "p50 ms", "p99 ms",
         "migrations", "re-placed"],
        rows)
    storm = result.storm
    lines = [table, (
        f"\nstorm ({storm.get('faults_fired', 0)} faults fired): "
        f"{storm.get('migrations_done', 0)} migrations done, "
        f"{storm.get('migrations_failed', 0)} failed, "
        f"{storm.get('pages_streamed', 0)} pages streamed, "
        f"{storm.get('midstream_audits', 0)} mid-stream audits clean")]
    if result.violations:
        lines.append(f"\nVIOLATIONS ({len(result.violations)}):")
        lines.extend(f"\n  - {violation}"
                     for violation in result.violations)
    return "".join(lines)
