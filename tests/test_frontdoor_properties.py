"""Property tests: front-door conservation laws and the d=1 PS model.

Three contracts:

- request cloning with cancellation never double-counts service work in
  ``audit_fleet``'s conservation laws, whatever the load, clone factor
  or timeout (hypothesis sweeps the space);
- at ``clone_factor=1`` the front door matches the plain pre-front-door
  dispatch path: an independent processor-sharing reference simulator,
  fed the same seed-0xC10E RNG streams, reproduces the latency series
  to 9 decimals (and therefore the result fingerprint), and its mean
  to within 1e-9 ms on other seeds;
- at ``clone_factor=1`` the dispatcher obeys the closed-form M/G/1-PS
  laws: mean sojourn ``S / (1 - rho)`` and ``E[T | x] = x / (1 - rho)``
  per demand bin.
"""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.traffic import SHAPES
from repro.fleet.chaos import audit_fleet, audit_frontdoor
from repro.frontdoor import FleetSession, FrontDoor
from repro.frontdoor.dispatch import DISPATCH_RTT_MS, EPS
from repro.sim.rng import DeterministicRNG

# ----------------------------------------------------------------------
# conservation under arbitrary load
# ----------------------------------------------------------------------


@given(
    seed=st.integers(0, 0xFFFF),
    replicas=st.integers(1, 6),
    clone_factor=st.integers(1, 4),
    requests=st.integers(5, 60),
    utilization=st.floats(0.05, 1.5),
    timeout_ms=st.one_of(st.none(), st.floats(0.1, 20.0)),
)
@settings(max_examples=30, deadline=None)
def test_cloning_never_double_counts_work(seed, replicas, clone_factor,
                                          requests, utilization, timeout_ms):
    shape = SHAPES["faas"]
    with FleetSession(hosts=2, seed=seed) as session:
        session.create_family("prop", ip="10.8.0.1")
        if replicas > 1:
            session.clone("prop", count=replicas - 1)
        arrival_rps = utilization * replicas * shape.capacity_rps
        result = session.dispatch(
            "prop", shape.name, requests=requests, arrival_rps=arrival_rps,
            clone_factor=min(clone_factor, replicas), timeout_ms=timeout_ms)
        frontdoor = session.frontdoor

        # Every request and copy resolved exactly once.
        assert result.completed + result.failed + result.timed_out \
            == requests
        assert result.copies == (result.copies_won + result.copies_cancelled
                                 + result.copies_lost
                                 + result.copies_timed_out)

        # The work the servers delivered equals the work charged to
        # copies — cancellation moves work to the waste column, never
        # duplicates or drops it.
        delivered = frontdoor.live_work_ms() + frontdoor.retired_work_ms
        charged = (frontdoor.stats["work_served_ms"]
                   + frontdoor.inflight_consumed_ms())
        assert math.isclose(delivered, charged, rel_tol=1e-6, abs_tol=1e-6)
        assert frontdoor.stats["work_useful_ms"] \
            <= frontdoor.stats["work_served_ms"] + 1e-6

        # And the composed oracle agrees.
        assert audit_frontdoor(frontdoor) == []
        assert audit_fleet(session.fleet, frontdoor) == []


# ----------------------------------------------------------------------
# d=1 byte-identical to the plain dispatch path
# ----------------------------------------------------------------------

def _reference_latencies(seed, *, family, shape, label, requests,
                         arrival_rps, servers, t_start):
    """The pre-front-door dispatch path: independent M/G/n-PS simulator.

    Replays the front door's RNG streams (same fork labels, same draw
    order) and reproduces its processor-sharing arithmetic operation
    for operation, so the per-request latencies match to the bit.
    """
    base = (DeterministicRNG(seed).fork("frontdoor")
            .fork(f"dispatch:{family}:{shape.name}:{label}"))
    arrival_rng = base.fork("arrivals")
    demand_rng = base.fork("demand")
    route_rng = base.fork("route")

    mean_gap_ms = 1000.0 / arrival_rps
    per_server = [[] for _ in range(servers)]
    t_next = t_start + arrival_rng.expovariate(1.0 / mean_gap_ms)
    for rid in range(requests):
        t_arrive = t_next
        demand = demand_rng.expovariate(1.0 / shape.mean_service_ms)
        index = route_rng.randint(0, servers - 1)
        per_server[index].append((t_arrive, rid, demand))
        if rid + 1 < requests:
            t_next += arrival_rng.expovariate(1.0 / mean_gap_ms)

    latencies = [None] * requests
    for arrivals in per_server:
        jobs = []  # [rid, remaining_ms], in admission order
        last = t_start
        i = 0

        def advance(now):
            nonlocal last
            dt = now - last
            last = now
            if dt <= 0.0 or not jobs:
                return
            share = dt * 1.0 / len(jobs)
            for job in jobs:
                job[1] -= share

        while i < len(arrivals) or jobs:
            next_arrival = arrivals[i][0] if i < len(arrivals) else math.inf
            if jobs:
                soonest = min(job[1] for job in jobs)
                next_departure = last + max(soonest, 0.0) * len(jobs) / 1.0
            else:
                next_departure = math.inf
            if next_arrival <= next_departure:
                t_arrive, rid, demand = arrivals[i]
                i += 1
                advance(t_arrive)
                jobs.append([rid, demand])
            else:
                advance(next_departure)
                for job in [j for j in jobs if j[1] <= EPS]:
                    jobs.remove(job)
                    t_arrive = next(t for t, r, _ in arrivals
                                    if r == job[0])
                    latencies[job[0]] = (next_departure - t_arrive
                                         + DISPATCH_RTT_MS)
    return latencies


def test_d1_dispatch_matches_plain_path_bit_for_bit():
    seed, requests, clones = 0xC10E, 400, 5
    shape = SHAPES["faas"]
    arrival_rps = 0.3 * (clones + 1) * shape.capacity_rps
    with FleetSession(hosts=2, seed=seed) as session:
        session.create_family("golden", ip="10.8.1.1")
        session.clone("golden", count=clones)
        t_start = session.clock.now
        result = session.dispatch(
            "golden", shape.name, requests=requests,
            arrival_rps=arrival_rps, clone_factor=1, label="golden")

    assert result.completed == requests  # light load, no cap hits

    reference = _reference_latencies(
        seed, family="golden", shape=shape, label="golden",
        requests=requests, arrival_rps=arrival_rps, servers=clones + 1,
        t_start=t_start)
    payload = {
        "latencies": [None if lat is None else round(lat, 9)
                      for lat in reference],
        "counts": {
            "completed": requests, "failed": 0, "timed_out": 0,
            "copies": requests, "copies_won": requests,
            "copies_cancelled": 0, "copies_lost": 0, "copies_timed_out": 0,
        },
    }
    payload["counts"] = dict(sorted(payload["counts"].items()))
    fingerprint = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert fingerprint == result.fingerprint


def test_d1_reference_holds_across_seeds():
    shape = SHAPES["faas"]
    for seed in (1, 7, 0xBEEF):
        with FleetSession(hosts=1, seed=seed) as session:
            session.create_family("ref", ip="10.8.2.1")
            session.clone("ref", count=2)
            t_start = session.clock.now
            result = session.dispatch("ref", shape.name, requests=120,
                                      arrival_rps=400.0, clone_factor=1,
                                      label="seeds")
        reference = _reference_latencies(
            seed, family="ref", shape=shape, label="seeds", requests=120,
            arrival_rps=400.0, servers=3, t_start=t_start)
        assert result.completed == 120
        # The virtual-time formula and the reference's per-job
        # decrement round apart by ulps, so the means agree within
        # 1e-9 ms (the simulator averages the sorted series; sum in
        # the same order).
        mean = sum(sorted(reference)) / len(reference)
        assert abs(mean - result.latency_mean_ms) <= 1e-9


# ----------------------------------------------------------------------
# closed-form M/G/1-PS laws at d=1
# ----------------------------------------------------------------------

#: Seeds pooled per load point. Per-seed ratios to the closed forms
#: spread with a standard deviation of about 1% at rho=0.3 and 2-2.5%
#: at rho=0.5 (20 seeds x 20k requests); pooling four seeds halves
#: that, so +-4% is about three standard deviations.
_LAW_SEEDS = (1, 7, 0xBEEF, 0xC10E)
_LAW_TOLERANCE = 0.04


@pytest.mark.parametrize("rho", [0.3, 0.5])
def test_d1_dispatch_obeys_closed_form_ps_laws(monkeypatch, rho):
    """At d=1 uniform routing splits Poisson arrivals into one M/M/1-PS
    queue per replica, so the sojourn (latency minus the dispatch RTT)
    obeys two closed forms: mean S/(1-rho), and E[T | demand x] =
    x/(1-rho), which holds for any M/G/1-PS queue and is checked per
    demand bin."""
    shape = SHAPES["faas"]
    service = shape.mean_service_ms
    replicas, requests = 12, 20_000
    captured = []
    finalize = FrontDoor._finalize

    def capture(self, run, *args, **kwargs):
        captured.append(run.latencies)
        return finalize(self, run, *args, **kwargs)

    monkeypatch.setattr(FrontDoor, "_finalize", capture)
    pairs = []
    for seed in _LAW_SEEDS:
        captured.clear()
        with FleetSession(hosts=4, seed=seed) as session:
            session.create_family("law", ip="10.8.3.1")
            session.clone("law", count=replicas - 1)
            result = session.dispatch(
                "law", shape.name, requests=requests,
                arrival_rps=rho * replicas * shape.capacity_rps,
                clone_factor=1, label="law")
        assert result.completed == requests
        # The demands, regenerated from the run's own ``demand`` fork.
        demand_rng = (DeterministicRNG(seed).fork("frontdoor")
                      .fork(f"dispatch:law:{shape.name}:law")
                      .fork("demand"))
        (latencies,) = captured
        for latency in latencies:
            demand = demand_rng.expovariate(1.0 / service)
            sojourn = latency - DISPATCH_RTT_MS
            # A unit-rate PS server never serves a job faster than alone.
            assert sojourn >= demand * (1.0 - 1e-6)
            pairs.append((demand, sojourn))

    def ratio(selected):
        return (sum(t for _, t in selected) / sum(x for x, _ in selected)
                * (1.0 - rho))

    mean_sojourn = sum(t for _, t in pairs) / len(pairs)
    assert mean_sojourn * (1.0 - rho) / service == pytest.approx(
        1.0, abs=_LAW_TOLERANCE)
    for low, high in ((0.0, service / 2), (service / 2, 2 * service),
                      (2 * service, math.inf)):
        in_bin = [(x, t) for x, t in pairs if low <= x < high]
        assert ratio(in_bin) == pytest.approx(1.0, abs=_LAW_TOLERANCE), \
            (low, high)
