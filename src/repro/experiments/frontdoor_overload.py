"""Overload ablation: metastable collapse vs. protected shedding.

The robustness headline for the front door's resilience layer
(:mod:`repro.frontdoor.resilience`). Request cloning has a capacity
knee (:mod:`repro.experiments.frontdoor_p99`): past it, the cancelled
copies' wasted work saturates the fleet and the open-loop backlog
diverges. A naive client stack makes that failure *metastable* — every
timed-out request is retried at full clone factor, the retries add
load, more requests time out, and goodput collapses even though the
offered load never changed. Three arms, each a fresh same-seed
:class:`~repro.frontdoor.session.FleetSession` under identical offered
traffic:

- **baseline** — clone factor below the knee (d=2), no protection: the
  healthy operating point whose P99 anchors the protected arm's bound;
- **unprotected** — clone factor past the knee (d=8) with naive
  retries (unbounded budget, no admission control, no breakers): the
  retry storm. The per-segment completed series falls wave over wave
  while offered load stays flat — goodput collapse;
- **protected** — the same past-knee demand under the full resilience
  policy: admission control sheds deterministically before copies are
  placed, brownout degrades the clone factor toward 1, retries are
  budgeted at 10% of first tries, and circuit breakers eject sick
  replicas. Goodput holds and the P99 of *admitted* requests stays
  within 2x of the below-knee baseline.

A fourth unit runs the seeded overload storm
(:func:`repro.frontdoor.resilience.run_overload_storm`): randomized
``frontdoor.*`` faults (admission drops, replica stalls, breaker
flaps) with conservation audits between waves. Each traffic arm also
audits the fleet *between* its waves — retry budgets and breaker state
alive, work in flight across the audit — and the experiment requires
every audit clean.
"""

from __future__ import annotations

from typing import Any

from repro.apps.traffic import as_shape
from repro.experiments.report import format_table
from repro.fleet.chaos import audit_fleet
from repro.frontdoor.resilience import ResiliencePolicy, run_overload_storm
from repro.frontdoor.session import FleetSession
from repro.scenarios import fingerprint

#: Goodput segments reported per wave (offered load is flat across
#: them by construction, so the series *is* the goodput curve).
SEGMENTS_PER_WAVE = 10

#: The protected arm's P99 (admitted requests) must stay within this
#: factor of the below-knee baseline's P99.
P99_BOUND_FACTOR = 2.0


def _arm_policy(kind: str, params: dict[str, Any]
                ) -> ResiliencePolicy | None:
    """The resilience policy each arm dispatches under."""
    if kind == "baseline":
        return None
    if kind == "unprotected":
        # The naive client stack: every failure retried on an
        # effectively unbounded budget, no admission control, no
        # breakers — the configuration that makes overload metastable.
        return ResiliencePolicy(
            retry_budget_fraction=1.0, retry_burst=1e6,
            max_attempts=3, breaker_window=0)
    return ResiliencePolicy(
        sojourn_bound_ms=params["sojourn_bound_ms"],
        brownout_start=2.0, brownout_full=8.0,
        retry_budget_fraction=0.1, retry_burst=8.0, max_attempts=3,
        breaker_window=16, breaker_failure_threshold=0.7,
        breaker_min_samples=8, breaker_probe_quota=2,
        deadline_ms=params["deadline_ms"])


def _run_arm(kind: str, seed: int, params: dict[str, Any]
             ) -> dict[str, Any]:
    """One experiment unit: a traffic arm or the overload storm."""
    if kind == "storm":
        report = run_overload_storm(
            seed=seed, hosts=params["hosts"],
            replicas=params["replicas"],
            requests=params["storm_requests"],
            faults=params["storm_faults"])
        stats = report["stats"]
        return {
            "offered": stats.get("offered", 0),
            "shed": stats.get("shed", 0),
            "retries": stats.get("retries", 0),
            "breaker_trips": stats.get("breaker_trips", 0),
            "faults_fired": sum(sum(c.values())
                                for c in report["faults"].values()),
            "violations": report["violations"],
            "fingerprint": report["fingerprint"],
        }

    d = params["baseline_d"] if kind == "baseline" else params["overload_d"]
    # The protected arm runs a hedged-attempt discipline: a short
    # per-attempt timeout (so a budgeted retry fits inside the
    # end-to-end deadline) instead of one deadline-sized attempt.
    timeout_ms = (params["attempt_timeout_ms"] if kind == "protected"
                  else params["timeout_ms"])
    policy = _arm_policy(kind, params)
    session = FleetSession(hosts=params["hosts"], seed=seed,
                           resilience=policy)
    session.create_family("load", ip="10.88.0.1")
    session.clone("load", count=params["replicas"] - 1)
    waves: list[dict[str, Any]] = []
    violations: list[str] = []
    per_wave = params["requests"] // params["waves"]
    for wave in range(params["waves"]):
        dispatch = session.dispatch(
            "load", params["shape"], requests=per_wave,
            arrival_rps=params["arrival_rps"], clone_factor=d,
            timeout_ms=timeout_ms,
            report_segments=SEGMENTS_PER_WAVE,
            label=f"{kind}-w{wave}")
        # Mid-run audit: breakers and the retry budget carry state
        # across waves, so this exercises the conservation laws with
        # the resilience ledgers live, not just at quiesce.
        violations.extend(
            f"{kind} wave {wave}: {v}"
            for v in audit_fleet(session.fleet, session.frontdoor))
        waves.append({
            "wave": wave,
            "offered": dispatch.offered,
            "completed": dispatch.completed,
            "timed_out": dispatch.timed_out,
            "failed": dispatch.failed,
            "shed": dispatch.shed,
            "retries": dispatch.retries,
            "p50_ms": round(dispatch.latency_p50_ms, 6),
            "p99_ms": round(dispatch.latency_p99_ms, 6),
            "waste": round(dispatch.waste_fraction, 6),
            "segment_completed": list(dispatch.segment_completed),
            "fingerprint": dispatch.fingerprint,
        })
    stats = dict(session.frontdoor.stats)
    resilience = session.frontdoor.resilience_report()
    session.close(check=False)
    offered = sum(w["offered"] for w in waves)
    completed = sum(w["completed"] for w in waves)
    return {
        "clone_factor": d,
        "offered": offered,
        "completed": completed,
        "timed_out": sum(w["timed_out"] for w in waves),
        "failed": sum(w["failed"] for w in waves),
        "shed": sum(w["shed"] for w in waves),
        "retries": sum(w["retries"] for w in waves),
        "goodput": round(completed / offered, 6) if offered else 0.0,
        "p99_ms": round(max(w["p99_ms"] for w in waves), 6),
        "breaker_trips": stats["breaker_trips"],
        "brownout_admissions": (resilience["brownout_admissions"]
                                if resilience is not None else 0),
        "sheds_by_reason": (dict(resilience["sheds"])
                            if resilience is not None else {}),
        "waves": waves,
        "violations": violations,
    }


def run(seed: int = 0xC10E, *, shape: str = "faas", hosts: int = 4,
        replicas: int = 12, requests: int = 24_000, waves: int = 2,
        utilization: float = 0.3, baseline_d: int = 2,
        overload_d: int = 8, timeout_ms: float = 60.0,
        attempt_timeout_ms: float = 40.0,
        sojourn_bound_ms: float = 25.0, deadline_ms: float = 50.0,
        storm_requests: int = 3_000, storm_faults: int = 30
        ) -> dict[str, Any]:
    """The overload ablation at one operating point; returns the
    fingerprinted payload (``arms`` by name, plus the ``storm`` unit).

    ``utilization`` is chosen so the baseline clone factor sits clear
    of the capacity knee while ``overload_d`` lands far past it
    (rho_eff > 1): the unprotected arm must collapse and the protected
    arm must shed its way back to a bounded tail.
    """
    request_shape = as_shape(shape)
    arrival_rps = utilization * replicas * request_shape.capacity_rps
    params = {
        "shape": request_shape.name, "hosts": hosts,
        "replicas": replicas, "requests": requests, "waves": waves,
        "arrival_rps": arrival_rps, "baseline_d": baseline_d,
        "overload_d": overload_d, "timeout_ms": timeout_ms,
        "attempt_timeout_ms": attempt_timeout_ms,
        "sojourn_bound_ms": sojourn_bound_ms,
        "deadline_ms": deadline_ms,
        "storm_requests": storm_requests, "storm_faults": storm_faults,
    }
    arms: dict[str, dict[str, Any]] = {}
    violations: list[str] = []
    payload: dict[str, Any] = {
        "seed": seed,
        "hosts": hosts,
        "replicas": replicas,
        "requests": requests,
        "arrival_rps": round(arrival_rps, 6),
        "arms": arms,
        "storm": {},
        "violations": violations,
    }
    for kind in ("baseline", "unprotected", "protected", "storm"):
        unit = _run_arm(kind, seed, params)
        if kind == "storm":
            payload["storm"] = unit
        else:
            arms[kind] = unit
        violations.extend(unit["violations"])

    baseline = arms["baseline"]
    unprotected = arms["unprotected"]
    protected = arms["protected"]

    # (a) Metastable collapse: offered load flat, goodput fallen and
    # *held* down — every unprotected goodput segment sits below the
    # weakest baseline segment (the retry storm reaches a degraded
    # steady state, it does not recover), and the retry volume dwarfs
    # the protected arm's budgeted trickle.
    if unprotected["goodput"] >= 0.8 * baseline["goodput"]:
        violations.append(
            f"unprotected goodput {unprotected['goodput']} did not "
            f"collapse below baseline {baseline['goodput']}")
    base_floor = min(min(w["segment_completed"])
                     for w in baseline["waves"])
    bad_segments = [s for w in unprotected["waves"]
                    for s in w["segment_completed"] if s >= base_floor]
    if bad_segments:
        violations.append(
            f"unprotected goodput segments {bad_segments} reached the "
            f"baseline floor {base_floor} — no sustained collapse")
    if unprotected["retries"] < 5 * (protected["retries"] + 1):
        violations.append(
            f"no retry storm: unprotected retries "
            f"{unprotected['retries']} vs protected "
            f"{protected['retries']}")
    offered = {w["offered"] for w in unprotected["waves"]}
    if len(offered) != 1:
        violations.append(
            f"unprotected offered load was not flat across waves: "
            f"{sorted(offered)}")

    # (b) Protected: deterministic shedding, bounded admitted tail.
    if protected["shed"] < 1:
        violations.append("protected arm shed nothing")
    if protected["p99_ms"] > baseline["p99_ms"] * P99_BOUND_FACTOR:
        violations.append(
            f"protected P99 {protected['p99_ms']} ms exceeds "
            f"{P99_BOUND_FACTOR}x the below-knee baseline "
            f"{baseline['p99_ms']} ms")
    if protected["goodput"] <= unprotected["goodput"]:
        violations.append(
            f"protected goodput {protected['goodput']} did not beat "
            f"unprotected {unprotected['goodput']}")
    if protected["retries"] > 0.1 * protected["offered"] + 8:
        violations.append(
            f"protected retries {protected['retries']} exceed the 10% "
            f"budget of {protected['offered']} first tries")

    payload["fingerprint"] = fingerprint(payload)
    return payload


def run_quick(seed: int = 0xC10E) -> dict[str, Any]:
    """The CI-sized run: small fleet, 6k requests across the arms; the
    ``frontdoor-overload`` entry of :data:`repro.scenarios.SCENARIOS`."""
    return run(seed, hosts=2, replicas=6, requests=6_000, overload_d=6,
               storm_requests=1_500, storm_faults=20)


def format_result(payload: dict[str, Any]) -> str:
    """The ablation table plus the collapse and storm lines."""
    rows = []
    for name in ("baseline", "unprotected", "protected"):
        arm = payload["arms"][name]
        rows.append([
            name,
            arm["clone_factor"],
            arm["offered"],
            f"{arm['goodput']:.3f}",
            arm["shed"],
            arm["retries"],
            arm["breaker_trips"],
            f"{arm['p99_ms']:.2f}",
        ])
    table = format_table(
        f"Front door overload: collapse vs protection "
        f"({payload['hosts']} hosts, {payload['replicas']} replicas, "
        f"{payload['requests']} requests/arm @ "
        f"{payload['arrival_rps']:.0f} rps)",
        ["arm", "d", "offered", "goodput", "shed", "retries",
         "breaker trips", "p99 ms"],
        rows)
    unprotected = payload["arms"]["unprotected"]
    segments = unprotected["waves"][0]["segment_completed"]
    storm = payload["storm"]
    lines = [table]
    lines.append(
        "\ncollapse (unprotected, wave 0 goodput per segment): "
        + " ".join(str(s) for s in segments))
    lines.append(
        f"\nstorm ({storm['faults_fired']} faults fired): "
        f"{storm['shed']} shed, {storm['retries']} "
        f"retries, {storm['breaker_trips']} breaker trips, "
        f"audits clean: {not storm['violations']}")
    if payload["violations"]:
        lines.append(f"\nVIOLATIONS ({len(payload['violations'])}):")
        lines.extend(f"\n  - {violation}"
                     for violation in payload["violations"])
    return "".join(lines)
