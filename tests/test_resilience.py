"""Tests: the front door's overload-resilience layer.

Units (token bucket, retry budget, circuit breaker, brownout),
policy validation, the control-plane 429 surface, fault-site
integration, and the pinned overload-storm fingerprint.
"""

import pytest

from repro.apps.traffic import as_shape
from repro.faults.plan import FaultPlan, FaultSpec
from repro.fleet.chaos import audit_fleet
from repro.frontdoor import FleetSession, Overloaded
from repro.frontdoor.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    ResiliencePolicy,
    ResilienceState,
    RetryBudget,
    TokenBucket,
    run_overload_storm,
    storm_policy,
)
from repro.frontdoor.results import FrontDoorError
from repro.scenarios import SCENARIOS
from repro.sim.rng import DeterministicRNG


# ----------------------------------------------------------------------
# units: token bucket
# ----------------------------------------------------------------------

def test_token_bucket_spends_and_refills():
    bucket = TokenBucket(rate_rps=1000.0, burst=2.0, now_ms=0.0)
    assert bucket.take(0.0) and bucket.take(0.0)
    assert not bucket.take(0.0)          # burst exhausted
    assert bucket.take(1.0)              # 1 ms at 1 token/ms refills one
    assert not bucket.take(1.0)


def test_token_bucket_refill_caps_at_burst():
    bucket = TokenBucket(rate_rps=1000.0, burst=2.0, now_ms=0.0)
    assert bucket.take(1000.0)           # a long idle gap
    assert bucket.take(1000.0)           # still only `burst` tokens
    assert not bucket.take(1000.0)


# ----------------------------------------------------------------------
# units: retry budget
# ----------------------------------------------------------------------

def test_retry_budget_enforces_the_fraction():
    budget = RetryBudget(fraction=0.1, burst=2.0)
    granted = sum(budget.grant() for _ in range(10))
    assert granted == 2                  # opening burst only
    for _ in range(100):
        budget.note_first_try()
    granted += sum(budget.grant() for _ in range(100))
    assert budget.granted <= budget.ceiling()
    assert budget.audit() == []
    assert budget.denied > 0


def test_retry_budget_balance_caps_at_burst():
    budget = RetryBudget(fraction=0.5, burst=1.0)
    for _ in range(1000):
        budget.note_first_try()
    # The balance saturated at `burst`, so only one grant is possible
    # without further first tries.
    assert budget.grant() and not budget.grant()


# ----------------------------------------------------------------------
# units: circuit breaker
# ----------------------------------------------------------------------

def _breaker(**overrides) -> CircuitBreaker:
    policy = ResiliencePolicy(breaker_window=4, breaker_min_samples=2,
                              breaker_failure_threshold=0.5,
                              breaker_cooldown_ms=10.0,
                              breaker_probe_quota=2, **overrides)
    return CircuitBreaker(policy)


def test_breaker_trips_open_and_rejects_until_cooldown():
    breaker = _breaker()
    assert breaker.state == BREAKER_CLOSED
    breaker.record(False, 0.0)
    assert breaker.record(False, 0.0)    # 2/2 failures >= 0.5: trips
    assert breaker.state == BREAKER_OPEN and breaker.trips == 1
    assert not breaker.allow(5.0)        # inside the cooldown
    assert breaker.allow(10.0)           # half-open probe 1
    assert breaker.state == BREAKER_HALF_OPEN


def test_breaker_half_open_admits_exactly_the_probe_quota():
    breaker = _breaker()
    breaker.record(False, 0.0)
    breaker.record(False, 0.0)
    admitted = sum(breaker.allow(20.0) for _ in range(10))
    assert admitted == 2                 # breaker_probe_quota
    breaker.record(True, 20.0)           # first probe outcome: success
    assert breaker.state == BREAKER_CLOSED
    assert len(breaker.window) == 0      # history cleared on close


def test_breaker_failed_probe_reopens():
    breaker = _breaker()
    breaker.record(False, 0.0)
    breaker.record(False, 0.0)
    assert breaker.allow(10.0)
    assert breaker.record(False, 10.0)   # probe failed: re-trips
    assert breaker.state == BREAKER_OPEN and breaker.trips == 2
    assert not breaker.allow(15.0)


def test_breaker_open_ignores_straggler_outcomes():
    breaker = _breaker()
    breaker.record(False, 0.0)
    breaker.record(False, 0.0)
    # A copy admitted before the trip resolves late: no state change.
    assert not breaker.record(False, 1.0)
    assert breaker.state == BREAKER_OPEN and breaker.trips == 1


def test_breaker_force_open_is_the_flap_site_primitive():
    breaker = _breaker()
    assert breaker.force_open(0.0)
    assert breaker.state == BREAKER_OPEN
    assert not breaker.force_open(0.0)   # already open: no double trip
    assert breaker.trips == 1


# ----------------------------------------------------------------------
# units: brownout + state
# ----------------------------------------------------------------------

def test_brownout_degrades_clone_factor_toward_one():
    policy = ResiliencePolicy(brownout_start=2.0, brownout_full=10.0)
    state = ResilienceState(policy, DeterministicRNG(7), 0.0)
    assert state.effective_clone_factor(4, 1.0) == 4   # below the band
    assert state.effective_clone_factor(4, 10.0) == 1  # fully browned out
    mid = state.effective_clone_factor(4, 6.0)
    assert 1 <= mid < 4
    assert state.brownout_admissions == 2


def test_resilience_state_allows_unknown_replicas():
    policy = ResiliencePolicy()
    state = ResilienceState(policy, DeterministicRNG(7), 0.0)
    assert state.allow_route(("host0", 3), 0.0)
    state.record_failure(("host0", 3), 0.0)
    assert ("host0", 3) in state.breakers


# ----------------------------------------------------------------------
# policy validation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"admission_rate_rps": 0.0},
    {"admission_burst": 0.5},
    {"sojourn_bound_ms": -1.0},
    {"brownout_start": 10.0, "brownout_full": 5.0},
    {"retry_budget_fraction": -0.1},
    {"max_attempts": 0},
    {"backoff_base_ms": 0.0},
    {"breaker_window": -1},
    {"breaker_failure_threshold": 0.0},
    {"breaker_min_samples": 0},
    {"breaker_cooldown_ms": 0.0},
    {"breaker_probe_quota": 0},
    {"deadline_ms": 0.0},
])
def test_policy_validation_rejects_bad_knobs(kwargs):
    with pytest.raises(FrontDoorError):
        ResiliencePolicy(**kwargs)


def test_policy_to_dict_round_trips():
    policy = storm_policy()
    assert ResiliencePolicy(**policy.to_dict()) == policy


# ----------------------------------------------------------------------
# dispatch + control plane integration
# ----------------------------------------------------------------------

@pytest.fixture
def protected():
    policy = ResiliencePolicy(sojourn_bound_ms=0.001)  # sheds everything
    with FleetSession(hosts=2, resilience=policy) as sess:
        sess.create_family("web", ip="10.31.0.1")
        sess.clone("web", count=3)
        yield sess
        sess.close(check=False)


def test_shed_everything_resolves_without_hangs(protected):
    result = protected.dispatch("web", "faas", requests=50,
                                arrival_rps=500.0, clone_factor=2)
    assert result.offered == 50 and result.shed == 50
    assert result.completed == 0 and result.timed_out == 0
    assert result.failed == 0


def test_dispatch_one_raises_overloaded_with_retry_after(protected):
    with pytest.raises(Overloaded) as exc_info:
        protected.frontdoor.dispatch_one("web", "faas")
    assert exc_info.value.retry_after_ms > 0


def test_dispatch_route_maps_full_shed_to_429(protected):
    response = protected.handle("POST", "/dispatch", {
        "family": "web", "workload": "faas", "requests": 20,
        "arrival_rps": 500.0, "clone_factor": 2,
    })
    assert response.status == 429
    assert response.body["retry_after_ms"] > 0
    assert response.body["result"]["shed"] == 20


def test_dispatch_route_accepts_policy_dict():
    with FleetSession(hosts=2) as sess:
        sess.create_family("web", ip="10.31.0.2")
        sess.clone("web", count=3)
        response = sess.handle("POST", "/dispatch", {
            "family": "web", "workload": "faas", "requests": 20,
            "arrival_rps": 100.0, "clone_factor": 2,
            "resilience": {"sojourn_bound_ms": 0.001},
        })
        assert response.status == 429
        sess.close(check=False)


def test_status_and_family_routes_surface_resilience(protected):
    protected.dispatch("web", "faas", requests=10, arrival_rps=500.0)
    status = protected.handle("GET", "/status")
    res = status.body["frontdoor"]["resilience"]
    assert res["sheds"] == {"sojourn": 10}
    family = protected.handle("GET", "/families/web")
    assert family.body["resilience"]["policy"]["sojourn_bound_ms"] == 0.001


def test_unprotected_front_door_reports_null_resilience():
    with FleetSession(hosts=2) as sess:
        sess.create_family("web", ip="10.31.0.3")
        status = sess.handle("GET", "/status")
        assert status.body["frontdoor"]["resilience"] is None
        assert sess.handle("GET", "/families/web").body["resilience"] is None


def test_deadline_sheds_what_cannot_finish_in_time():
    policy = ResiliencePolicy(deadline_ms=0.001)
    with FleetSession(hosts=2, resilience=policy) as sess:
        sess.create_family("web", ip="10.31.0.4")
        sess.clone("web", count=3)
        result = sess.dispatch("web", "faas", requests=25,
                               arrival_rps=500.0, clone_factor=2)
        assert result.shed == 25
        res = sess.frontdoor.resilience_report()
        assert res["sheds"] == {"deadline": 25}


@pytest.mark.parametrize("seed", [0xC10E, 1, 2])
def test_retry_past_its_deadline_during_a_drain_times_out(seed):
    """Heartbeats during a live drain can move the clock past a waiting
    retry's deadline. The retry must resolve as timed out, placing no
    copies, instead of scheduling its timeout in the past."""
    policy = ResiliencePolicy(
        sojourn_bound_ms=25.0, brownout_start=2.0, brownout_full=8.0,
        retry_budget_fraction=0.1, retry_burst=8.0, max_attempts=3,
        breaker_window=16, breaker_failure_threshold=0.7,
        breaker_min_samples=8, breaker_probe_quota=2, deadline_ms=50.0)
    with FleetSession(hosts=4, seed=seed) as sess:
        sess.create_family("fd", ip="10.9.0.1")
        sess.clone("fd", count=11)
        sess.drain_host("host0")
        rps = 0.3 * 12 * as_shape("faas").capacity_rps
        result = sess.dispatch("fd", "faas", requests=5000, arrival_rps=rps,
                               clone_factor=2, timeout_ms=40.0,
                               resilience=policy, heartbeat_every_ms=50.0,
                               label="readmit")
        assert audit_fleet(sess.fleet, sess.frontdoor) == []
        assert result.requests == (result.completed + result.failed
                                   + result.timed_out + result.shed)
        assert result.timed_out > 0
        sess.close(check=False)


def test_legacy_fingerprint_untouched_by_the_resilience_fields():
    """A front door without a policy must fingerprint exactly as it
    did before the resilience tier existed: the offered/shed/retries
    counts only join the hash for resilient runs."""
    with FleetSession(hosts=2, seed=7) as plain:
        plain.create_family("web", ip="10.31.0.5")
        plain.clone("web", count=3)
        before = plain.dispatch("web", "faas", requests=200,
                                arrival_rps=300.0, clone_factor=2)
        plain.close(check=False)
    policy = ResiliencePolicy()  # all protections at permissive defaults
    with FleetSession(hosts=2, seed=7, resilience=policy) as guarded:
        guarded.create_family("web", ip="10.31.0.5")
        guarded.clone("web", count=3)
        after = guarded.dispatch("web", "faas", requests=200,
                                 arrival_rps=300.0, clone_factor=2)
        guarded.close(check=False)
    assert before.latency_p99_ms == after.latency_p99_ms
    assert before.fingerprint != after.fingerprint  # resilient runs differ
    assert after.offered == 200 and after.shed == 0


# ----------------------------------------------------------------------
# fault sites
# ----------------------------------------------------------------------

def test_admission_fault_site_sheds_spuriously():
    plan = FaultPlan(specs=[FaultSpec(site="frontdoor.admission",
                                      count=5)])
    with FleetSession(hosts=2, plan=plan,
                      resilience=ResiliencePolicy()) as sess:
        sess.create_family("web", ip="10.31.0.6")
        sess.clone("web", count=3)
        result = sess.dispatch("web", "faas", requests=50,
                               arrival_rps=300.0, clone_factor=2)
        assert result.shed == 5
        assert sess.frontdoor.resilience_report()["sheds"] == {"fault": 5}
        sess.close(check=False)


def test_replica_stall_fault_feeds_the_breaker():
    plan = FaultPlan(specs=[FaultSpec(site="frontdoor.replica_stall",
                                      count=20, after=0)])
    policy = ResiliencePolicy(breaker_window=4, breaker_min_samples=2,
                              breaker_failure_threshold=0.5)
    with FleetSession(hosts=2, plan=plan, resilience=policy) as sess:
        sess.create_family("web", ip="10.31.0.7")
        sess.clone("web", count=3)
        result = sess.dispatch("web", "faas", requests=60,
                               arrival_rps=300.0, clone_factor=2)
        assert sess.frontdoor.stats["breaker_trips"] > 0
        assert result.completed + result.failed + result.timed_out == 60
        sess.close(check=False)


def test_breaker_flap_fault_trips_a_healthy_replica():
    plan = FaultPlan(specs=[FaultSpec(site="frontdoor.breaker_flap",
                                      count=3)])
    with FleetSession(hosts=2, plan=plan,
                      resilience=ResiliencePolicy()) as sess:
        sess.create_family("web", ip="10.31.0.8")
        sess.clone("web", count=3)
        result = sess.dispatch("web", "faas", requests=50,
                               arrival_rps=300.0, clone_factor=2)
        assert sess.frontdoor.stats["breaker_trips"] == 3
        assert result.completed == 50  # flaps cost capacity, not requests
        sess.close(check=False)


def test_fault_sites_are_inert_without_a_policy():
    plan = FaultPlan(specs=[FaultSpec(site="frontdoor.admission",
                                      count=5)])
    with FleetSession(hosts=2, plan=plan) as sess:
        sess.create_family("web", ip="10.31.0.9")
        sess.clone("web", count=3)
        result = sess.dispatch("web", "faas", requests=50,
                               arrival_rps=300.0, clone_factor=2)
        assert result.shed == 0 and result.completed == 50
        sess.close(check=False)


# ----------------------------------------------------------------------
# the overload storm
# ----------------------------------------------------------------------

def test_overload_storm_is_deterministic_and_pinned():
    # Any behavior drift in admission, retries, breakers or the fault
    # sites moves the registry pin.
    report = run_overload_storm()
    again = run_overload_storm()
    pin = SCENARIOS["overload-storm"].pin
    assert report["fingerprint"] == again["fingerprint"] == pin
    assert report["violations"] == []
    stats = report["stats"]
    assert stats["shed"] > 0 and stats["retries"] > 0
    assert stats["breaker_trips"] > 0
    fired = sum(sum(c.values()) for c in report["faults"].values())
    assert fired > 0


def test_overload_storm_seed_changes_the_fingerprint():
    assert (run_overload_storm(seed=1)["fingerprint"]
            != SCENARIOS["overload-storm"].pin)
