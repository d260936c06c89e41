"""Overload resilience for the fleet front door.

The survival layer every real serving stack puts in front of request
cloning, made deterministic and auditable like the rest of the
library (docs/RESILIENCE.md derives the model, docs/CALIBRATION.md
anchors the constants):

- **Admission control** — a per-front-door token bucket plus an
  expected-sojourn bound from the analytic PS model
  (:func:`repro.frontdoor.model.expected_sojourn_ms`) shed first-try
  requests *before* any copy is placed. A **brownout** band degrades
  ``clone_factor`` toward 1 under queue pressure instead of rejecting
  outright, so redundancy is the first thing sacrificed, goodput the
  last.
- **Retry budgets** — a client-side retry layer on dispatch whose
  budget (a fraction of first-try traffic, default 10%) is enforced
  front-door-wide, so retries can never exceed first-try traffic and
  the retry-storm feedback loop that makes overload metastable cannot
  close. Backoff is exponential with deterministic jitter drawn from
  ``rng.fork("retries")`` — storms replay bit-for-bit.
- **Circuit breakers** — per-replica rolling failure/timeout windows
  on the fleet virtual clock eject a replica from the routing set
  (OPEN), then probe it half-open after a cooldown
  (``frontdoor_breaker_cooldown``) to readmit it. Draining hosts are
  routed around the same way, so dispatch avoids a family mid-cutover
  instead of paying the migration pause window.
- **Deadline propagation** — a policy deadline flows into admission
  (shed what cannot finish in time), per-attempt timeouts, and the
  retry gate (never schedule a retry that would land past the
  deadline), so doomed copies are cancelled early rather than
  simmered.

All state machines run on the fleet virtual clock and all randomness
comes from forked deterministic streams; the conservation laws they
must obey (``offered == admitted + shed``, ``retries <= budget``) are
checked by :func:`repro.fleet.chaos.audit_frontdoor`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import Any

from repro.frontdoor.results import FrontDoorError
from repro.sim.costs import CostModel

_COSTS = CostModel()

#: Circuit-breaker states (string-valued so reports are JSON-ready).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the overload-resilience layer (docs/RESILIENCE.md).

    Frozen: a policy is configuration, all mutable state lives in
    :class:`ResilienceState`. Every default is either dimensionless or
    anchored in :mod:`repro.sim.costs` (docs/CALIBRATION.md); the
    policy table in docs/RESILIENCE.md is registry-diffed against this
    dataclass by ``tests/test_resilience_docs.py``.
    """

    #: Token-bucket admission rate (first-try requests/s); ``None``
    #: disables the bucket and leaves only the sojourn bound.
    admission_rate_rps: float | None = None
    #: Bucket depth: the burst admitted above the sustained rate.
    admission_burst: float = 64.0
    #: Shed a first try when the PS model expects its sojourn (at the
    #: brownout-effective clone factor) to exceed this; ``None``
    #: disables the bound.
    sojourn_bound_ms: float | None = None
    #: Mean resident jobs per pool replica at which brownout begins
    #: degrading the clone factor.
    brownout_start: float = 8.0
    #: Mean depth at which brownout reaches ``clone_factor == 1``.
    brownout_full: float = 32.0
    #: Retry budget as a fraction of first-try traffic (the classic
    #: 10%: retries can never exceed this share of offered load).
    retry_budget_fraction: float = 0.1
    #: Retry tokens available before any first try has refilled the
    #: budget (and the cap the budget can accumulate to).
    retry_burst: float = 8.0
    #: Total attempts per request including the first try; 1 disables
    #: retries entirely.
    max_attempts: int = 3
    #: Base client backoff before the first retry, doubled per
    #: attempt. Anchor: ``frontdoor_retry_backoff_base`` (4 LAN RTTs).
    backoff_base_ms: float = _COSTS.frontdoor_retry_backoff_base
    #: Deterministic jitter: each backoff is multiplied by a uniform
    #: draw from ``[1, 1 + backoff_jitter]`` out of the retry stream.
    backoff_jitter: float = 0.5
    #: Rolling outcome-window length per replica breaker; 0 disables
    #: circuit breakers.
    breaker_window: int = 16
    #: Failure fraction of the window that trips the breaker OPEN.
    breaker_failure_threshold: float = 0.5
    #: Outcomes required in the window before it may trip.
    breaker_min_samples: int = 8
    #: How long an OPEN breaker rejects before probing half-open.
    #: Anchor: ``frontdoor_breaker_cooldown`` (20 LAN RTTs).
    breaker_cooldown_ms: float = _COSTS.frontdoor_breaker_cooldown
    #: Copies a HALF_OPEN breaker admits before deciding: the first
    #: probe outcome closes it (success) or re-opens it (failure).
    breaker_probe_quota: int = 2
    #: End-to-end request deadline propagated into admission, the
    #: per-attempt timeout, and the retry gate; ``None`` disables it.
    deadline_ms: float | None = None
    #: Route around replicas on DRAINING hosts (mid-migration) unless
    #: they are the only capacity left.
    route_around_draining: bool = True

    def __post_init__(self) -> None:
        if self.admission_rate_rps is not None and self.admission_rate_rps <= 0:
            raise FrontDoorError(
                f"non-positive admission rate: {self.admission_rate_rps}")
        if self.admission_burst < 1:
            raise FrontDoorError(f"admission burst < 1: {self.admission_burst}")
        if self.sojourn_bound_ms is not None and self.sojourn_bound_ms <= 0:
            raise FrontDoorError(
                f"non-positive sojourn bound: {self.sojourn_bound_ms}")
        if not 0 <= self.brownout_start <= self.brownout_full:
            raise FrontDoorError(
                "brownout band inverted: "
                f"[{self.brownout_start}, {self.brownout_full}]")
        if self.retry_budget_fraction < 0 or self.retry_burst < 0:
            raise FrontDoorError("negative retry budget")
        if self.max_attempts < 1:
            raise FrontDoorError(f"max_attempts < 1: {self.max_attempts}")
        if self.backoff_base_ms <= 0 or self.backoff_jitter < 0:
            raise FrontDoorError("bad backoff parameters")
        if self.breaker_window < 0:
            raise FrontDoorError(f"negative breaker window: {self.breaker_window}")
        if self.breaker_window:
            if not 0 < self.breaker_failure_threshold <= 1:
                raise FrontDoorError(
                    f"breaker threshold out of (0, 1]: "
                    f"{self.breaker_failure_threshold}")
            if not 1 <= self.breaker_min_samples <= self.breaker_window:
                raise FrontDoorError(
                    "breaker_min_samples must lie in [1, breaker_window]")
            if self.breaker_cooldown_ms <= 0 or self.breaker_probe_quota < 1:
                raise FrontDoorError("bad breaker cooldown/probe quota")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise FrontDoorError(f"non-positive deadline: {self.deadline_ms}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (control-plane bodies)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class TokenBucket:
    """Deterministic token bucket on the fleet virtual clock."""

    __slots__ = ("rate_per_ms", "burst", "tokens", "last_ms")

    def __init__(self, rate_rps: float, burst: float, now_ms: float) -> None:
        self.rate_per_ms = rate_rps / 1000.0
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last_ms = now_ms

    def take(self, now_ms: float) -> bool:
        """Refill to ``now_ms`` and spend one token if available."""
        tokens = self.tokens + (now_ms - self.last_ms) * self.rate_per_ms
        if tokens > self.burst:
            tokens = self.burst
        self.last_ms = now_ms
        if tokens >= 1.0:
            self.tokens = tokens - 1.0
            return True
        self.tokens = tokens
        return False


class RetryBudget:
    """Front-door-wide retry budget: a fraction of first-try traffic.

    Each first try deposits ``fraction`` of a token; each granted
    retry spends a whole one. The balance is capped at ``burst`` (also
    the opening balance), which yields the invariant
    ``granted <= fraction * first_tries + burst`` under *any*
    interleaving — the law :meth:`audit` checks and the hypothesis
    property in ``tests/test_resilience_properties.py`` hammers.
    """

    __slots__ = ("fraction", "burst", "tokens", "first_tries", "granted",
                 "denied")

    def __init__(self, fraction: float, burst: float) -> None:
        self.fraction = fraction
        self.burst = float(burst)
        self.tokens = float(burst)
        self.first_tries = 0
        self.granted = 0
        self.denied = 0

    def note_first_try(self) -> None:
        """Record one admitted first try (deposits ``fraction``)."""
        self.first_tries += 1
        tokens = self.tokens + self.fraction
        self.tokens = tokens if tokens <= self.burst else self.burst

    def grant(self) -> bool:
        """Spend one retry token; ``False`` exhausts silently."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.granted += 1
            return True
        self.denied += 1
        return False

    def ceiling(self) -> float:
        """Most retries the budget may ever have granted by now."""
        return self.fraction * self.first_tries + self.burst

    def audit(self) -> list[str]:
        """Budget conservation-law violations (empty when healthy)."""
        if self.granted > self.ceiling() + 1e-9:
            return [
                f"retry budget overdrawn: granted {self.granted} retries "
                f"against a ceiling of {self.ceiling():.1f} "
                f"({self.fraction:.0%} of {self.first_tries} first tries "
                f"+ {self.burst:.0f} burst)"]
        return []


class CircuitBreaker:
    """Per-replica breaker: rolling outcome window on the virtual clock.

    CLOSED records outcomes into a rolling window and trips OPEN when
    the window holds at least ``min_samples`` outcomes of which at
    least ``failure_threshold`` failed. OPEN rejects all routing for
    ``cooldown_ms``, then turns HALF_OPEN on the next :meth:`allow`
    and admits exactly ``probe_quota`` probe copies: the first probe
    outcome closes the breaker (success) or re-opens it (failure).
    """

    __slots__ = ("policy", "state", "window", "opened_at_ms", "probes_left",
                 "trips")

    def __init__(self, policy: ResiliencePolicy) -> None:
        self.policy = policy
        self.state = BREAKER_CLOSED
        self.window: deque[int] = deque(maxlen=policy.breaker_window)
        self.opened_at_ms = 0.0
        self.probes_left = 0
        self.trips = 0

    def allow(self, now_ms: float) -> bool:
        """May a copy be routed to this replica right now?"""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if now_ms - self.opened_at_ms < self.policy.breaker_cooldown_ms:
                return False
            self.state = BREAKER_HALF_OPEN
            self.probes_left = self.policy.breaker_probe_quota
        if self.probes_left > 0:
            self.probes_left -= 1
            return True
        return False

    def record(self, ok: bool, now_ms: float) -> bool:
        """Feed one copy outcome; returns ``True`` if this trips OPEN."""
        if self.state == BREAKER_HALF_OPEN:
            if ok:
                self.state = BREAKER_CLOSED
                self.window.clear()
                return False
            return self._trip(now_ms)
        if self.state == BREAKER_OPEN:
            # Outcome of a copy admitted before the trip: already priced
            # into the window that tripped us.
            return False
        self.window.append(0 if ok else 1)
        policy = self.policy
        if (len(self.window) >= policy.breaker_min_samples
                and sum(self.window)
                >= policy.breaker_failure_threshold * len(self.window)):
            return self._trip(now_ms)
        return False

    def force_open(self, now_ms: float) -> bool:
        """Trip regardless of the window (the breaker-flap fault site)."""
        if self.state == BREAKER_OPEN:
            return False
        return self._trip(now_ms)

    def _trip(self, now_ms: float) -> bool:
        self.state = BREAKER_OPEN
        self.opened_at_ms = now_ms
        self.probes_left = 0
        self.trips += 1
        self.window.clear()
        return True


class ResilienceState:
    """Mutable runtime of one :class:`ResiliencePolicy`.

    Owned by a :class:`repro.frontdoor.dispatch.FrontDoor` and kept
    across dispatch runs, so circuit breakers and the retry budget see
    the whole front door's history, not one run's.
    """

    def __init__(self, policy: ResiliencePolicy, rng, now_ms: float) -> None:
        self.policy = policy
        self.rng = rng.fork("retries")
        self.bucket = (TokenBucket(policy.admission_rate_rps,
                                   policy.admission_burst, now_ms)
                       if policy.admission_rate_rps is not None else None)
        self.budget = RetryBudget(policy.retry_budget_fraction,
                                  policy.retry_burst)
        self.breakers: dict[tuple[str, int], CircuitBreaker] = {}
        self.breaker_trips = 0
        self.sheds: dict[str, int] = {}
        self.brownout_admissions = 0

    # -- routing -------------------------------------------------------

    def breaker_for(self, key: tuple[str, int],
                    create: bool = True) -> CircuitBreaker | None:
        """The replica's breaker (created lazily; None when disabled)."""
        if not self.policy.breaker_window:
            return None
        breaker = self.breakers.get(key)
        if breaker is None and create:
            breaker = self.breakers[key] = CircuitBreaker(self.policy)
        return breaker

    def allow_route(self, key: tuple[str, int], now_ms: float) -> bool:
        """Breaker verdict for routing a copy to ``key`` now."""
        breaker = self.breakers.get(key)
        return breaker is None or breaker.allow(now_ms)

    def record_success(self, key: tuple[str, int], now_ms: float) -> None:
        """Feed a copy success to the replica's breaker, if any."""
        breaker = self.breakers.get(key)
        if breaker is not None:
            breaker.record(True, now_ms)

    def record_failure(self, key: tuple[str, int], now_ms: float) -> bool:
        """Feed a failure; returns ``True`` when it trips the breaker."""
        breaker = self.breaker_for(key)
        if breaker is not None and breaker.record(False, now_ms):
            self.breaker_trips += 1
            return True
        return False

    # -- admission -----------------------------------------------------

    def note_shed(self, reason: str) -> None:
        """Count one shed first try under its reason."""
        self.sheds[reason] = self.sheds.get(reason, 0) + 1

    def effective_clone_factor(self, d: int, depth: float) -> int:
        """Brownout: degrade ``d`` toward 1 as mean queue depth grows."""
        policy = self.policy
        if d <= 1 or depth <= policy.brownout_start:
            return d
        if depth >= policy.brownout_full:
            d_eff = 1
        else:
            span = policy.brownout_full - policy.brownout_start
            pressure = (depth - policy.brownout_start) / span
            d_eff = d - int(pressure * (d - 1))
        if d_eff < d:
            self.brownout_admissions += 1
        return d_eff

    # -- retries -------------------------------------------------------

    def backoff_ms(self, attempt: int) -> float:
        """Jittered exponential backoff before retry ``attempt`` (>=1)."""
        policy = self.policy
        base = policy.backoff_base_ms * (2.0 ** (attempt - 1))
        if policy.backoff_jitter:
            base *= 1.0 + policy.backoff_jitter * self.rng.random()
        return base

    # -- reporting / auditing ------------------------------------------

    def report(self) -> dict[str, Any]:
        """JSON-ready snapshot (``GET /status``)."""
        breakers = {
            f"{host}/{domid}": {
                "state": b.state, "trips": b.trips,
                "window_failures": sum(b.window), "window": len(b.window),
            }
            for (host, domid), b in sorted(self.breakers.items())
        }
        open_breakers = sum(1 for b in self.breakers.values()
                            if b.state != BREAKER_CLOSED)
        return {
            "policy": self.policy.to_dict(),
            "retry_budget": {
                "tokens": round(self.budget.tokens, 6),
                "first_tries": self.budget.first_tries,
                "granted": self.budget.granted,
                "denied": self.budget.denied,
            },
            "admission_tokens": (round(self.bucket.tokens, 6)
                                 if self.bucket is not None else None),
            "sheds": dict(sorted(self.sheds.items())),
            "brownout_admissions": self.brownout_admissions,
            "breaker_trips": self.breaker_trips,
            "open_breakers": open_breakers,
            "breakers": breakers,
        }

    def audit(self) -> list[str]:
        """Resilience conservation-law violations (empty = healthy)."""
        violations = list(self.budget.audit())
        for (host, domid), breaker in sorted(self.breakers.items()):
            if breaker.state == BREAKER_HALF_OPEN and breaker.probes_left < 0:
                violations.append(
                    f"breaker {host}/{domid} overdrew its half-open "
                    f"probe quota")
        return violations


# ----------------------------------------------------------------------
# The overload storm
# ----------------------------------------------------------------------

#: Policy the overload storm runs under: admission + brownout + budgeted
#: retries + breakers, all enabled, tuned for the storm's small fleet.
def storm_policy() -> ResiliencePolicy:
    """The protected configuration the overload storm runs under."""
    return ResiliencePolicy(
        sojourn_bound_ms=40.0,
        brownout_start=3.0,
        brownout_full=10.0,
        retry_budget_fraction=0.1,
        retry_burst=8.0,
        max_attempts=3,
        breaker_window=12,
        breaker_failure_threshold=0.5,
        breaker_min_samples=6,
        breaker_probe_quota=2,
    )


def run_overload_storm(seed: int = 0xC10E, *, hosts: int = 2,
                       replicas: int = 6, requests: int = 3000,
                       waves: int = 3, faults: int = 30,
                       utilization: float = 0.85,
                       clone_factor: int = 4,
                       timeout_ms: float = 30.0) -> dict[str, Any]:
    """Seeded chaos storm across the ``frontdoor.*`` fault sites.

    Drives an overloaded dispatch (past the effective-utilization
    knee) in ``waves`` waves under the protected policy while a
    randomized :class:`~repro.faults.plan.FaultPlan` fires admission
    drops, replica stalls, and breaker flaps; runs the full fleet +
    front-door conservation audit *between* waves (mid-run, work in
    flight) and once after quiesce. The payload's sha256 fingerprint
    is pinned in :data:`repro.scenarios.SCENARIOS`.
    """
    from repro.apps.traffic import FAAS_INVOKE
    from repro.faults.plan import FaultPlan
    from repro.faults.sites import frontdoor_sites
    from repro.fleet.chaos import audit_fleet
    from repro.frontdoor.session import FleetSession
    from repro.scenarios import fingerprint

    plan = FaultPlan.randomized(seed, faults=faults,
                                sites=frontdoor_sites())
    policy = storm_policy()
    session = FleetSession(seed=seed, hosts=hosts, plan=plan,
                           resilience=policy)
    report: dict[str, Any] = {"seed": seed, "waves": [], "stats": {},
                              "resilience": {}, "faults": {},
                              "violations": []}
    try:
        session.create_family("storm", ip="10.77.0.1")
        if replicas > 1:
            session.clone("storm", count=replicas - 1)
        arrival_rps = (utilization * replicas
                       * 1000.0 / FAAS_INVOKE.mean_service_ms)
        per_wave = max(1, requests // waves)
        for wave in range(waves):
            result = session.dispatch(
                "storm", workload="faas", requests=per_wave,
                arrival_rps=arrival_rps, clone_factor=clone_factor,
                timeout_ms=timeout_ms, label=f"storm-w{wave}")
            # Mid-run audit: earlier waves' retries may still be in
            # flight inside the front door between dispatch calls.
            report["violations"].extend(
                audit_fleet(session.fleet, session.frontdoor))
            report["waves"].append({
                "wave": wave,
                "requests": result.requests,
                "offered": result.offered,
                "completed": result.completed,
                "timed_out": result.timed_out,
                "failed": result.failed,
                "shed": result.shed,
                "retries": result.retries,
                "fingerprint": result.fingerprint,
            })
        final = audit_fleet(session.fleet, session.frontdoor)
        report["violations"].extend(v for v in final
                                    if v not in report["violations"])
        stats = session.frontdoor.stats
        report["stats"] = {k: round(v, 6) if isinstance(v, float) else v
                           for k, v in sorted(stats.items())}
        report["resilience"] = session.frontdoor.resilience_report() or {}
        injector = session.fleet.faults
        fired = getattr(injector, "by_site", {})
        report["faults"] = {site: dict(counts)
                            for site, counts in sorted(fired.items())}
    finally:
        session.close(check=False)
    report["fingerprint"] = fingerprint(report)
    return report
