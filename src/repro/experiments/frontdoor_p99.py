"""Front-door headline: P99 latency vs. request-clone factor *d*.

The first experiment that composes *every* prior subsystem under one
API: a :class:`~repro.frontdoor.session.FleetSession` places a clone
family across member hosts (clone fast path + fleet placement), the
front door dispatches an open-loop Poisson request stream with request
cloning + cancellation (PR 6), and the measured tail is validated
against the processor-sharing model's analytic curves
(:mod:`repro.frontdoor.model`).

The expected shape, from "Modeling of Request Cloning in Cloud Server
Systems using Processor Sharing": cloning trades wasted work for
tail-latency shielding, so P99 *improves* monotonically with ``d``
while the effective utilization ``rho_eff = served / capacity`` stays
clear of 1, then blows up past the **capacity knee** where the
cancelled copies' waste saturates the fleet. At the default operating
point (rho ~ 0.15; synchronized exponential demand, whose waste per
extra copy approaches 1 at light load) the knee sits near d=8 — the
headline curve dips through d=2..3 and then spikes.

A composed variant runs the same dispatch under an autoscaler *and* a
host-kill fault plan with live heartbeats: the origin host dies
mid-run, its replicas' in-flight copies are lost, the fleet re-places
the clones on survivors, the front door re-resolves its pool, and the
conservation laws still hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.apps.traffic import as_shape
from repro.experiments.report import format_table
from repro.faults.plan import FaultPlan, FaultSpec
from repro.fleet.chaos import audit_fleet
from repro.frontdoor.dispatch import AutoscalePolicy
from repro.frontdoor.model import measured_rho_eff, quantile_sojourn_ms
from repro.frontdoor.results import DispatchResult
from repro.frontdoor.session import FleetSession
from repro.scenarios import fingerprint

#: rho_eff above this is "at the knee": the open-loop backlog grows for
#: as long as arrivals continue, so the measured tail is a function of
#: run length and only its *divergence* is meaningful.
KNEE_RHO = 0.95


@dataclass
class FrontdoorPoint:
    """One clone factor's measured + predicted tail."""

    clone_factor: int
    requests: int
    completed: int
    failed: int
    timed_out: int
    latency_p50_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    waste_fraction: float
    #: served work / (duration x replicas): utilization incl. waste.
    rho_eff: float
    #: The analytic M/M/1-PS prediction at the measured rho_eff.
    predicted_p99_ms: float
    fingerprint: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (infinities become strings)."""
        return {
            "d": self.clone_factor,
            "requests": self.requests,
            "completed": self.completed,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "p50_ms": round(self.latency_p50_ms, 6),
            "p99_ms": round(self.latency_p99_ms, 6),
            "mean_ms": round(self.latency_mean_ms, 6),
            "waste": round(self.waste_fraction, 6),
            "rho_eff": round(self.rho_eff, 6),
            "predicted_p99_ms": (round(self.predicted_p99_ms, 6)
                                 if self.predicted_p99_ms != float("inf")
                                 else "inf"),
            "fingerprint": self.fingerprint,
        }


@dataclass
class FrontdoorP99Result:
    """The full sweep plus the composed chaos run."""

    seed: int
    shape: str
    hosts: int
    replicas: int
    base_rho: float
    arrival_rps: float
    points: list[FrontdoorPoint] = field(default_factory=list)
    total_requests: int = 0
    composed: dict[str, Any] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    fingerprint: str = ""

    def point(self, d: int) -> FrontdoorPoint:
        """The data point for clone factor ``d``."""
        for point in self.points:
            if point.clone_factor == d:
                return point
        raise KeyError(d)

    def stable_points(self) -> list[FrontdoorPoint]:
        """Points measured clear of the capacity knee."""
        return [p for p in self.points if p.rho_eff < KNEE_RHO]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation, the fingerprint payload."""
        return {
            "seed": self.seed,
            "shape": self.shape,
            "hosts": self.hosts,
            "replicas": self.replicas,
            "base_rho": round(self.base_rho, 6),
            "arrival_rps": round(self.arrival_rps, 6),
            "points": [p.to_dict() for p in self.points],
            "total_requests": self.total_requests,
            "composed": self.composed,
            "violations": list(self.violations),
            "fingerprint": self.fingerprint,
        }


def _measure(session: FleetSession, family: str, shape_name: str, *,
             requests: int, arrival_rps: float, clone_factor: int,
             replicas: int) -> tuple[DispatchResult, float]:
    """One dispatch run; returns (result, measured rho_eff)."""
    result = session.dispatch(
        family, shape_name, requests=requests, arrival_rps=arrival_rps,
        clone_factor=clone_factor, label=f"p99-d{clone_factor}")
    rho_eff = measured_rho_eff(result.work_served_ms, result.duration_ms,
                               replicas)
    return result, rho_eff


def _unresolved(dispatch: DispatchResult) -> list[str]:
    """A run that has returned must have resolved every request:
    ``requests == completed + failed + timed_out``, which is stricter
    than the mid-run ``requests >= resolved`` of
    :func:`~repro.fleet.chaos.audit_frontdoor`."""
    resolved = dispatch.completed + dispatch.failed + dispatch.timed_out
    if dispatch.requests == resolved:
        return []
    return [f"{dispatch.requests} requests but {dispatch.completed}"
            f"+{dispatch.failed}+{dispatch.timed_out} resolved"]


def run(seed: int = 0xC10E, *, shape: str = "faas",
        clone_factors: tuple[int, ...] = (1, 2, 3, 4, 6, 8),
        requests_per_factor: int = 175_000,
        hosts: int = 4, replicas: int = 12,
        utilization: float = 0.15,
        composed: bool = True,
        composed_requests: int | None = None) -> FrontdoorP99Result:
    """The P99-vs-*d* sweep (defaults: >= 1M requests total).

    Every clone factor runs on a *fresh* same-seed fleet, so the
    factors are independent and the whole sweep is reproducible
    byte-for-byte. ``utilization`` is the useful-work operating point;
    with the synchronized-service waste of exponential demand the
    capacity knee then lands inside the default factor range.
    """
    request_shape = as_shape(shape)
    arrival_rps = utilization * replicas * request_shape.capacity_rps
    result = FrontdoorP99Result(
        seed=seed, shape=request_shape.name, hosts=hosts,
        replicas=replicas, base_rho=utilization, arrival_rps=arrival_rps)

    for d in clone_factors:
        with FleetSession(hosts=hosts, seed=seed) as session:
            session.create_family("p99", ip="10.99.0.1")
            session.clone("p99", count=replicas - 1)
            dispatch, rho_eff = _measure(
                session, "p99", request_shape.name,
                requests=requests_per_factor, arrival_rps=arrival_rps,
                clone_factor=d, replicas=replicas)
            result.violations.extend(
                f"d={d}: {v}" for v in audit_fleet(session.fleet,
                                                   session.frontdoor))
            result.violations.extend(
                f"d={d}: {v}" for v in _unresolved(dispatch))
            session.close(check=False)
        result.points.append(FrontdoorPoint(
            clone_factor=d, requests=dispatch.requests,
            completed=dispatch.completed, failed=dispatch.failed,
            timed_out=dispatch.timed_out,
            latency_p50_ms=dispatch.latency_p50_ms,
            latency_p99_ms=dispatch.latency_p99_ms,
            latency_mean_ms=dispatch.latency_mean_ms,
            waste_fraction=dispatch.waste_fraction,
            rho_eff=rho_eff,
            predicted_p99_ms=quantile_sojourn_ms(
                request_shape.mean_service_ms, rho_eff, d=d),
            fingerprint=dispatch.fingerprint))
        result.total_requests += dispatch.requests

    if composed:
        result.composed = _run_composed(
            seed, request_shape.name, hosts=hosts,
            requests=(composed_requests if composed_requests is not None
                      else max(10_000, requests_per_factor // 8)),
            arrival_rps=arrival_rps / 2.0)
        result.total_requests += result.composed["requests"]
        result.violations.extend(result.composed.pop("violations"))

    result.fingerprint = fingerprint(result.to_dict())
    return result


def _run_composed(seed: int, shape_name: str, *, hosts: int,
                  requests: int, arrival_rps: float) -> dict[str, Any]:
    """Dispatch at d=2 while the autoscaler grows the family and a
    host-kill storm takes the origin host down mid-run."""
    plan = FaultPlan(specs=[
        FaultSpec(site="host.crash", match={"op": "heartbeat"},
                  after=4, count=1),
    ], name=f"frontdoor-composed-{seed:#x}")
    with FleetSession(hosts=hosts, seed=seed, plan=plan) as session:
        session.create_family("burst", ip="10.99.1.1")
        session.clone("burst", count=3)
        policy = AutoscalePolicy(
            threshold_rps=0.5 * as_shape(shape_name).capacity_rps,
            check_interval_ms=200.0, max_replicas=24, scale_step=2)
        dispatch = session.dispatch(
            "burst", shape_name, requests=requests,
            arrival_rps=arrival_rps, clone_factor=2,
            autoscale=policy, heartbeat_every_ms=50.0,
            label="composed")
        stats = dict(session.frontdoor.stats)
        fleet_stats = dict(session.fleet.stats)
        violations = audit_fleet(session.fleet, session.frontdoor)
        violations.extend(f"composed: {v}" for v in _unresolved(dispatch))
        session.close(check=False)
    return {
        "requests": dispatch.requests,
        "completed": dispatch.completed,
        "failed": dispatch.failed,
        "timed_out": dispatch.timed_out,
        "copies_lost": dispatch.copies_lost,
        "p99_ms": round(dispatch.latency_p99_ms, 6),
        "hosts_killed": (fleet_stats["hosts_crashed"]
                         + fleet_stats["hosts_fenced"]),
        "children_replaced": fleet_stats["children_replaced"],
        "autoscale_events": stats["autoscale_events"],
        "servers_retired": stats["servers_retired"],
        "fingerprint": dispatch.fingerprint,
        "violations": violations,
    }


def run_quick(seed: int = 0xC10E) -> FrontdoorP99Result:
    """The CI-sized sweep: small fleet, 10k requests, d in {1, 2}; the
    ``frontdoor-p99`` entry of :data:`repro.scenarios.SCENARIOS`."""
    return run(seed, clone_factors=(1, 2), requests_per_factor=5_000,
               hosts=2, replicas=6, composed=True,
               composed_requests=2_000)


def format_result(result: FrontdoorP99Result) -> str:
    """The P99-vs-d table with the analytic comparison."""
    rows = []
    for point in result.points:
        predicted = (f"{point.predicted_p99_ms:.2f}"
                     if point.predicted_p99_ms != float("inf") else "inf")
        knee = " <- knee" if point.rho_eff >= KNEE_RHO else ""
        rows.append([
            point.clone_factor,
            f"{point.rho_eff:.3f}{knee}",
            f"{point.waste_fraction:.3f}",
            f"{point.latency_p50_ms:.2f}",
            f"{point.latency_p99_ms:.2f}",
            predicted,
        ])
    table = format_table(
        f"Front door: P99 vs clone factor (shape={result.shape}, "
        f"rho={result.base_rho:.2f}, {result.replicas} replicas, "
        f"{result.total_requests} requests)",
        ["d", "rho_eff", "waste", "p50 ms", "p99 ms", "model p99 ms"],
        rows)
    lines = [table]
    if result.composed:
        composed = result.composed
        lines.append(
            f"\ncomposed (autoscale + host-kill): "
            f"{composed['completed']}/{composed['requests']} completed, "
            f"{composed['hosts_killed']} hosts killed, "
            f"{composed['children_replaced']} clones re-placed, "
            f"{composed['autoscale_events']} scale-ups, "
            f"p99 {composed['p99_ms']:.2f} ms")
    lines.append(
        "\nmodel: P99 improves monotonically with d until rho_eff "
        "approaches 1 (the capacity knee), then diverges")
    if result.violations:
        lines.append(f"\nVIOLATIONS ({len(result.violations)}):")
        lines.extend(f"  - {violation}" for violation in result.violations)
    return "".join(lines)
