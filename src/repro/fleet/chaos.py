"""Fleet chaos: host-kill storms + the fleet-wide leak oracle.

``run_fleet_chaos`` drives a clone workload across N hosts while a
deterministic kill plan takes hosts down — some mid-batch (exercising
the whole-batch rollback on the dying host), some between batches
(exercising heartbeat-timeout detection) — then quiesces the fleet and
audits every host, dead or alive, for leaked frames, grants, event
endpoints and Xenstore nodes. The payload fingerprint covers every
deterministic output, so two runs at the same (seed, plan, policy) must
be byte-identical; :data:`repro.scenarios.SCENARIOS` pins the default
storm.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ReproError
from repro.faults.chaos import audit_platform, disarmed
from repro.faults.plan import FaultPlan, FaultSpec
from repro.fleet.fleet import Fleet, FleetConfig, HostState
from repro.sim import DeterministicRNG
from repro.sim.units import MIB


def audit_fleet(fleet: Fleet, frontdoor: Any = None) -> list[str]:
    """Fleet-wide leak oracle: every violation, as strings.

    Runs the single-host oracle (:func:`audit_platform`) on every
    member — *including dead hosts*, whose power-off accounting must
    have released every frame, grant, endpoint and store node — then
    checks the control plane's own bookkeeping: family records must
    reference only live hosts and live domains, and the child-count
    conservation laws must hold (no clone silently dropped, no lost
    clone unaccounted). Warm migrations add a page ledger
    (:func:`repro.fleet.migration.audit_migrations`): pages queued ==
    streamed + aborted + pending for every record — no page lost in
    flight, none double-owned — and every planned migration ends done,
    failed, or still streaming.

    Pass the fleet's :class:`~repro.frontdoor.dispatch.FrontDoor` as
    ``frontdoor`` to additionally check the request-dispatch
    conservation laws: every request and every clone copy ends in
    exactly one terminal state, and the service work the replica
    servers delivered equals the work charged to copies — request
    cloning with cancellation must never double-count service work.
    """
    violations: list[str] = []
    for host in fleet.hosts:
        for violation in audit_platform(host.platform):
            violations.append(f"{host.name}: {violation}")
        if host.state is HostState.DEAD:
            guests = host.platform.guest_count()
            if guests:
                violations.append(
                    f"{host.name}: dead host still runs {guests} guests")
            if host.platform.cloneop._pending:
                violations.append(
                    f"{host.name}: dead host has pending second stages")

    for family in fleet.families.values():
        for host_name, domid in family.replicas.items():
            host = fleet.host(host_name)
            if host.state is HostState.DEAD:
                violations.append(
                    f"family {family.name}: replica on dead {host_name}")
            elif domid not in host.platform.hypervisor.domains:
                violations.append(
                    f"family {family.name}: replica domid {domid} "
                    f"not live on {host_name}")
        for host_name, domids in family.clones.items():
            host = fleet.host(host_name)
            if host.state is HostState.DEAD:
                violations.append(
                    f"family {family.name}: clones on dead {host_name}")
                continue
            for domid in domids:
                if domid not in host.platform.hypervisor.domains:
                    violations.append(
                        f"family {family.name}: clone domid {domid} "
                        f"not live on {host_name}")

    stats = fleet.stats
    if (stats["children_requested"]
            != stats["children_placed"] + stats["children_failed"]):
        violations.append(
            f"clone conservation broken: requested "
            f"{stats['children_requested']} != placed "
            f"{stats['children_placed']} + failed "
            f"{stats['children_failed']}")
    if (stats["children_lost"]
            != stats["children_replaced"] + stats["replace_failed"]):
        violations.append(
            f"failover conservation broken: lost {stats['children_lost']} "
            f"!= replaced {stats['children_replaced']} + replace-failed "
            f"{stats['replace_failed']}")
    if fleet.migrations:
        from repro.fleet.migration import audit_migrations
        violations.extend(audit_migrations(fleet))
    if frontdoor is not None:
        violations.extend(audit_frontdoor(frontdoor))
    return violations


def audit_frontdoor(frontdoor: Any) -> list[str]:
    """The front-door work-conservation laws, as violation strings.

    Five invariants, all exact counts except the float work ledger:

    - every first try accounted at admission:
      ``offered == admitted (requests) + shed`` — admission control
      never silently drops a request, and shed requests never leak
      into the admitted ledger;
    - every request resolved exactly once:
      ``requests == completed + failed + timed_out + in-flight``;
    - every copy ended exactly once:
      ``copies == won + cancelled + lost + timed_out + in-flight``;
    - no double-counted service: the work the replica servers delivered
      (live pools plus retired servers) equals the work charged to
      copies (ended plus in-flight partial service), and the useful
      work never exceeds the served work;
    - retries within budget: granted retries never exceed the
      configured fraction of first-try traffic plus the burst
      allowance (checked through the live resilience state when one
      is armed).
    """
    violations: list[str] = []
    stats = frontdoor.stats
    inflight = frontdoor.inflight_copies()
    if stats["offered"] != stats["requests"] + stats["shed"]:
        violations.append(
            f"frontdoor admission conservation broken: "
            f"{stats['offered']} offered != {stats['requests']} admitted "
            f"+ {stats['shed']} shed")
    resolved = (stats["completed"] + stats["failed"] + stats["timed_out"])
    if stats["requests"] < resolved:
        violations.append(
            f"frontdoor request conservation broken: {stats['requests']} "
            f"requests < {resolved} resolved")
    ended = (stats["copies_won"] + stats["copies_cancelled"]
             + stats["copies_lost"] + stats["copies_timed_out"])
    if stats["copies"] != ended + inflight:
        violations.append(
            f"frontdoor copy conservation broken: {stats['copies']} copies "
            f"!= {ended} ended + {inflight} in flight")
    delivered = frontdoor.live_work_ms() + frontdoor.retired_work_ms
    charged = stats["work_served_ms"] + frontdoor.inflight_consumed_ms()
    tolerance = 1e-6 * max(1.0, delivered)
    if abs(delivered - charged) > tolerance:
        violations.append(
            f"frontdoor work conservation broken: servers delivered "
            f"{delivered:.6f} work-ms, copies charged {charged:.6f}")
    if stats["work_useful_ms"] > stats["work_served_ms"] + tolerance:
        violations.append(
            f"frontdoor useful work {stats['work_useful_ms']:.6f} exceeds "
            f"served work {stats['work_served_ms']:.6f}")
    res = getattr(frontdoor, "_res", None)
    if res is not None:
        violations.extend(res.audit())
        if stats["retries"] < res.budget.granted:
            violations.append(
                f"frontdoor retry ledger broken: stats count "
                f"{stats['retries']} retries < {res.budget.granted} "
                f"granted by the budget")
    return violations


def kill_plan(seed: int, hosts: int, kills: int,
              degrade: bool = True) -> FaultPlan:
    """A deterministic host-kill schedule for ``kills`` of ``hosts``.

    Kills alternate between mid-batch crashes (``op="clone"`` context:
    the spec fires while a clone request is being routed, so whichever
    host is serving it dies inside the batch, forcing the whole-batch
    rollback) and heartbeat-time crashes/partitions (``op="heartbeat"``:
    detection waits for the timeout). Specs match on operation, not on
    a host name, so every kill is guaranteed to land on a host that is
    actually alive and in use. With ``kills < hosts`` at least one host
    survives to take re-placements; ``kills == hosts`` is the
    total-loss storm — every placement after the last kill simply
    fails, conservation still holds, and the report still fingerprints.
    The ``after`` floors leave earlier rounds intact so there are
    placed clones to fail over. With ``degrade``, one survivor
    additionally goes grey during the run.
    """
    if kills > hosts:
        raise ReproError(
            f"cannot kill {kills} of only {hosts} hosts")
    rng = DeterministicRNG(seed).fork("fleet-kill-plan")
    specs: list[FaultSpec] = []
    for kill in range(kills):
        if kill % 2 == 0:
            specs.append(FaultSpec(
                site="host.crash", match={"op": "clone"},
                after=rng.randint(2, 6), count=1))
        else:
            site = "host.partition" if rng.random() < 0.5 else "host.crash"
            specs.append(FaultSpec(
                site=site, match={"op": "heartbeat"},
                after=rng.randint(4, 10), count=1))
    if degrade:
        specs.append(FaultSpec(
            site="host.degraded", match={"op": "heartbeat"},
            after=rng.randint(8, 16), count=1))
    return FaultPlan(specs=specs, name=f"fleet-kill-{seed:#x}-{kills}")


def run_fleet_chaos(seed: int = 0xC10E, hosts: int = 4, kills: int = 2,
                    parents: int = 2, batch: int = 3,
                    rounds: int = 8, policy: str = "round-robin",
                    plan: FaultPlan | None = None,
                    host_memory_mb: int = 192,
                    ) -> dict[str, Any]:
    """One fleet chaos run: storm, quiesce, audit, fingerprint.

    Hosts are deliberately small (``host_memory_mb``) so capacity
    pressure — and with it cross-host forwarding — shows up at
    clone-batch scale, not only after thousands of instances.
    """
    from repro.apps.udp_server import UdpServerApp
    from repro.scenarios import fingerprint
    from repro.toolstack.config import DomainConfig, VifConfig

    if plan is None:
        plan = kill_plan(seed, hosts, kills)
    config = FleetConfig(hosts=hosts, seed=seed, policy=policy,
                         host_memory_bytes=host_memory_mb * MIB,
                         host_dom0_bytes=(host_memory_mb // 3) * MIB)
    fleet = Fleet(config, plan=plan)
    report: dict[str, Any] = {
        "seed": seed, "hosts": hosts, "policy": policy, "plan": plan.name,
        "clones_requested": 0, "clones_placed": 0, "clones_failed": 0}
    rng = fleet.rng.fork("fleet-chaos-workload")

    # Boot the parent families with host-fault polling disarmed: the
    # storm targets the clone/failover paths, not initial placement.
    families = [f"fam{i}" for i in range(parents)]
    with disarmed(fleet.faults):
        for i, name in enumerate(families):
            fleet.create_family(DomainConfig(
                name=name, memory_mb=4,
                vifs=[VifConfig(ip=f"10.1.{i + 1}.1")], max_clones=1024),
                app_factory=UdpServerApp)

    for round_index in range(rounds):
        for name in families:
            result = fleet.clone_family(name, count=batch)
            report["clones_requested"] += result.requested
            report["clones_placed"] += len(result.placed)
            report["clones_failed"] += result.failed

            # Touch clone memory on its host: COW writes must behave
            # identically whether or not the fleet is mid-failover.
            for host_name, domid in result.placed:
                host = fleet.host(host_name)
                child = host.platform.hypervisor.domains.get(domid)
                if child is None or not child.memory.segments:
                    continue
                try:
                    child.memory.write_range(
                        child.memory.segments[0].pfn_start,
                        rng.randint(1, 4))
                except ReproError:
                    pass

            # Destroy one placed clone per round: interleaved teardown
            # must not confuse the failover bookkeeping either.
            if result.placed:
                host_name, domid = result.placed[
                    rng.randint(0, len(result.placed) - 1)]
                host = fleet.host(host_name)
                if (host.alive
                        and domid in host.platform.hypervisor.domains):
                    host.platform.xl.destroy(domid)
                    clones = fleet.families[name].clones.get(host_name, [])
                    if domid in clones:
                        clones.remove(domid)
        # One heartbeat round per workload round: timeout-based
        # detection interleaves deterministically with placement.
        fleet.tick()

    # Quiesce: enough extra beats to push any still-undetected failure
    # over the timeout, then heal grey hosts and tear everything down.
    fleet.run_heartbeats(fleet.config.heartbeat_timeout_beats + 1)
    for host in fleet.hosts:
        if host.state is HostState.DEGRADED:
            fleet.repair_host(host.name)
    fleet.shutdown()

    report["hosts_killed"] = (fleet.stats["hosts_crashed"]
                              + fleet.stats["hosts_fenced"])
    report["replacements"] = fleet.stats["children_replaced"]
    report["violations"] = audit_fleet(fleet)
    report["fleet_stats"] = fleet.report()["stats"]
    report["clock_ms"] = round(fleet.clock.now, 6)
    report["fingerprint"] = fingerprint(report)
    return report
