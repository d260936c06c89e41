"""Tests: the virtual-time PS server against the old decrement model.

The front door's :class:`ReplicaServer` was rewritten from naive
per-job decrement (O(n) ``advance``, O(n) ``min()`` departure scan) to
virtual-time accounting: O(1) ``advance`` and one formula for a copy's
remaining work, ``demand − (vclock − v_admit)``, with heap-ordered
departures. Float subtraction is not associative, so the formula and
the decrement chain round apart by ulps; these tests state how far:

* a hypothesis state machine drives the new server and a verbatim copy
  of the **old per-job-decrement implementation (the oracle)** through
  random admit/advance/depart/cancel/kill/degrade interleavings and
  requires remaining work within ``EPS``, departure times within
  ``1e-9 · max(1, t)``, and bit-equal finished sets and work ledgers at
  every step;
* end-to-end golden fingerprints (plain runs, timeout runs, and
  composed host-kill + autoscale + heartbeat runs) must come out of the
  dispatcher byte for byte, with clean conservation ledgers;
* resilient heartbeat + autoscale runs and a dispatch after
  ``drain_host`` pin the loop's ``(time, seq)`` tie order: sibling
  copies on idle replicas depart at bit-identical instants, and the
  winner decides which breaker records the success.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.traffic import as_shape
from repro.faults.plan import FaultPlan, FaultSpec
from repro.fleet.chaos import audit_fleet
from repro.frontdoor import AutoscalePolicy, FleetSession, ReplicaServer
from repro.frontdoor.dispatch import EPS, _Copy, _Request
from repro.frontdoor.resilience import ResiliencePolicy


# ----------------------------------------------------------------------
# the oracle: the old per-job-decrement server, kept verbatim
# ----------------------------------------------------------------------

class _OracleJob:
    __slots__ = ("remaining_ms", "consumed_ms")

    def __init__(self, demand_ms):
        self.remaining_ms = demand_ms
        self.consumed_ms = 0.0


class _OracleServer:
    """The pre-rewrite ReplicaServer service model, decrement-per-job."""

    def __init__(self, now_ms=0.0):
        self.rate = 1.0
        self.jobs = []
        self.last_ms = now_ms
        self.work_done_ms = 0.0

    def advance(self, now_ms):
        dt = now_ms - self.last_ms
        self.last_ms = now_ms
        if dt <= 0.0 or not self.jobs:
            return
        share = dt * self.rate / len(self.jobs)
        for job in self.jobs:
            job.remaining_ms -= share
            job.consumed_ms += share
        self.work_done_ms += dt * self.rate

    def next_departure_ms(self):
        soonest = min(job.remaining_ms for job in self.jobs)
        return self.last_ms + max(soonest, 0.0) * len(self.jobs) / self.rate

    def finished(self):
        return [job for job in self.jobs if job.remaining_ms <= EPS]


# ----------------------------------------------------------------------
# random-interleaving equivalence (the hypothesis property)
# ----------------------------------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("admit"),
                  st.floats(min_value=0.01, max_value=50.0,
                            allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("advance"),
                  st.floats(min_value=0.0, max_value=25.0,
                            allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("depart"), st.just(0.0)),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("kill"), st.just(0.0)),
        st.tuples(st.just("degrade"), st.just(0.0)),
    ),
    min_size=1, max_size=120)


def _departure_close(t_new, t_old):
    return abs(t_new - t_old) <= 1e-9 * max(1.0, t_old)


def _check_parity(server, oracle, pairs):
    """Ledgers bit-equal; remaining work within EPS, departures within
    1e-9 relative (the formula and the decrement chain round apart)."""
    assert server.work_done_ms == oracle.work_done_ms
    assert server.last_ms == oracle.last_ms
    assert len(server.jobs) == len(pairs)
    for copy, job in pairs:
        assert abs(server.remaining(copy) - job.remaining_ms) <= EPS
    if pairs:
        assert _departure_close(server.next_departure_ms(),
                                oracle.next_departure_ms())


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_virtual_time_server_matches_decrement_oracle(ops):
    server = ReplicaServer("h0", 1, now_ms=0.0)
    oracle = _OracleServer(now_ms=0.0)
    #: index-aligned (new copy, oracle job) pairs — jobs lists mirror.
    pairs = []
    now = 0.0
    rid = 0
    for op, arg in ops:
        if op == "admit":
            if len(pairs) >= 64:
                continue
            request = _Request(rid=rid, t_arrive_ms=now, demand_ms=arg)
            rid += 1
            copy = _Copy(request, server)
            server.advance(now)
            oracle.advance(now)
            server.admit(copy)
            job = _OracleJob(arg)
            oracle.jobs.append(job)
            pairs.append((copy, job))
        elif op == "advance":
            now += arg
            server.advance(now)
            oracle.advance(now)
        elif op == "depart":
            if not pairs:
                continue
            t_old = oracle.next_departure_ms()
            assert _departure_close(server.next_departure_ms(), t_old)
            if t_old > now:
                now = t_old
            server.advance(now)
            oracle.advance(now)
            done_new = server.finished_jobs()
            done_old = oracle.finished()
            # Same set, and the new path reports them in admission
            # (jobs) order exactly like the old list scan did.
            assert [job for copy, job in pairs
                    if copy in done_new] == done_old
            assert done_new == [copy for copy, job in pairs
                                if copy in done_new]
            for copy in done_new:
                index = next(i for i, (c, _) in enumerate(pairs)
                             if c is copy)
                _, job = pairs.pop(index)
                server.remove(copy)
                oracle.jobs.remove(job)
        elif op == "cancel":
            if not pairs:
                continue
            copy, job = pairs.pop(arg % len(pairs))
            server.advance(now)
            oracle.advance(now)
            server.remove(copy)
            oracle.jobs.remove(job)
        elif op == "kill":
            # Host death: every resident copy is lost at once.
            server.advance(now)
            oracle.advance(now)
            for copy, job in pairs:
                server.remove(copy)
                oracle.jobs.remove(job)
            pairs.clear()
        elif op == "degrade":
            # Rate flips mid-service (DEGRADED marking / repair)
            # without advancing first: both sides bill the elapsed
            # slice at the new rate.
            new_rate = 0.5 if server.rate == 1.0 else 1.0
            server.rate = new_rate
            oracle.rate = new_rate
        _check_parity(server, oracle, pairs)


# ----------------------------------------------------------------------
# end-to-end golden pins captured from the old implementation
# ----------------------------------------------------------------------

#: (seed, clone_factor, requests, arrival_rps, timeout_ms) ->
#: DispatchResult fingerprint of the pre-rewrite dispatcher.
_PLAIN_GOLDEN = {
    (0xC10E, 1, 2000, 700.0, None):
        "3b33a878243a3134b0acdd43ec87b468049361da26618240b2df3da72ba0f3f9",
    (0xC10E, 2, 2000, 700.0, None):
        "c0948b0ee1880ed427810394313d3e021c1780aaa6b7a7a8b1b6798a0c1397e3",
    (0xC10E, 3, 1500, 2500.0, 30.0):
        "387196cd818d2732d6351b645328c83da866b5134ad6500b767e996cd14c6f29",
    (0xBEEF, 4, 1200, 3000.0, None):
        "ef1b39456acb3992cd86e4f706c895bc511becf1ee2e0d9bb3de0d84650e6c1a",
    (3, 6, 900, 3500.0, 15.0):
        "5de49d478b9ff13390bc09339f5b47db50f7e272dccfbdc2c9e0561e1cb837db",
}

#: (seed, clone_factor, requests, kill_after) -> fingerprint of a
#: composed run: heartbeat-detected host kill + autoscale + timeouts.
_COMPOSED_GOLDEN = {
    (0xC10E, 2, 1500, 4):
        "57c4214b0031e6523dce6cc177de3fe84f0a40fbbdde71c683b32d82a649d1db",
    (0xC10E, 3, 1200, 6):
        "396efdc577fdd79f68ee3cb1de78a6e351db7d57b2f18afe1950e60b01dd07cb",
    (0xBEEF, 2, 1000, 3):
        "533c040ea51aa94f73ea47e64b596529cb39f459dea5cea2a39cc9e52f98e49b",
    (7, 4, 800, 5):
        "86e0cc8650764eaf3718ab0984d6304f567cd2132dba8ed9213a350cefbb8740",
}

#: (seed, clone_factor, requests) -> fingerprint of a resilient run
#: with heartbeats and a firing autoscaler. Sibling copies tie at
#: equal departure instants and the winner decides which breaker
#: records the success, so these pin the ``(time, seq)`` tie order.
_RESILIENT_HEARTBEAT_GOLDEN = {
    (0xC10E, 8, 3000):
        "9cece34e203fffff24f0ae3213bfe4727d717e29a20631c9534109b8523322d3",
    (0xBEEF, 6, 3000):
        "8febac7a1cf54b74e8101d6c88049261b23c730ab590247885d20c83ec7d2a16",
}

#: (seed, clone_factor, requests) -> fingerprint of a heartbeat run
#: dispatched right after ``drain_host`` (the migration streams on the
#: heartbeats while the traffic runs).
_DRAIN_GOLDEN = {
    (0xC10E, 2, 2000):
        "355f323d02dd63de63255447de229295b5951f2228048852d24126c2bf38e1cf",
    (7, 3, 1500):
        "27e269d37b4377aa0a1bc9bb16c1123a8353d86be04fb28ab48912e452836022",
}

#: The protected policy of the ``frontdoor_overload`` experiment.
_PROTECTED = ResiliencePolicy(
    sojourn_bound_ms=25.0, brownout_start=2.0, brownout_full=8.0,
    retry_budget_fraction=0.1, retry_burst=8.0, max_attempts=3,
    breaker_window=16, breaker_failure_threshold=0.7,
    breaker_min_samples=8, breaker_probe_quota=2, deadline_ms=50.0)


def _plain_fingerprint(seed, d, requests, rps, timeout):
    with FleetSession(hosts=2, seed=seed) as sess:
        sess.create_family("pin", ip="10.66.0.1")
        sess.clone("pin", count=5)
        result = sess.dispatch("pin", "faas", requests=requests,
                               arrival_rps=rps, clone_factor=d,
                               timeout_ms=timeout, label="pin")
    return result.fingerprint


def _composed_fingerprint(seed, d, requests, kill_after):
    plan = FaultPlan(specs=[FaultSpec(site="host.crash",
                                      match={"op": "heartbeat"},
                                      after=kill_after, count=1)],
                     name=f"equiv-{seed}")
    with FleetSession(hosts=3, seed=seed, plan=plan) as sess:
        sess.create_family("eq", ip="10.77.0.1")
        sess.clone("eq", count=4)
        policy = AutoscalePolicy(threshold_rps=5.0, check_interval_ms=150.0,
                                 max_replicas=12, scale_step=2)
        result = sess.dispatch("eq", "faas", requests=requests,
                               arrival_rps=900.0, clone_factor=d,
                               autoscale=policy, heartbeat_every_ms=40.0,
                               timeout_ms=80.0, label="equiv")
        violations = audit_fleet(sess.fleet, sess.frontdoor)
        sess.close(check=False)  # a host was killed on purpose
    return result.fingerprint, violations


def _resilient_heartbeat_run(seed, d, requests):
    with FleetSession(hosts=4, seed=seed) as sess:
        sess.create_family("rh", ip="10.78.0.1")
        sess.clone("rh", count=11)
        capacity = as_shape("faas").capacity_rps
        policy = AutoscalePolicy(threshold_rps=0.25 * capacity,
                                 check_interval_ms=200.0, max_replicas=16,
                                 scale_step=2)
        result = sess.dispatch("rh", "faas", requests=requests,
                               arrival_rps=0.3 * 12 * capacity,
                               clone_factor=d, timeout_ms=40.0,
                               resilience=_PROTECTED,
                               heartbeat_every_ms=50.0, autoscale=policy,
                               label="pin")
        stats = dict(sess.frontdoor.stats)
        violations = audit_fleet(sess.fleet, sess.frontdoor)
        sess.close(check=False)
    return result, stats, violations


def _drain_run(seed, d, requests):
    with FleetSession(hosts=4, seed=seed) as sess:
        sess.create_family("dr", ip="10.79.0.1")
        sess.clone("dr", count=11)
        sess.drain_host("host0")
        capacity = as_shape("faas").capacity_rps
        result = sess.dispatch("dr", "faas", requests=requests,
                               arrival_rps=0.15 * 12 * capacity,
                               clone_factor=d, timeout_ms=60.0,
                               heartbeat_every_ms=50.0, label="pin")
        migrations_done = sess.fleet.stats["migrations_done"]
        violations = audit_fleet(sess.fleet, sess.frontdoor)
        sess.close(check=False)
    return result, migrations_done, violations


@pytest.mark.parametrize("params", sorted(_RESILIENT_HEARTBEAT_GOLDEN))
def test_resilient_heartbeat_runs_match_pins(params):
    result, stats, violations = _resilient_heartbeat_run(*params)
    assert violations == []
    assert stats["breaker_trips"] > 0 and stats["autoscale_events"] > 0
    assert result.retries > 0
    assert result.fingerprint == _RESILIENT_HEARTBEAT_GOLDEN[params]


@pytest.mark.parametrize("params", sorted(_DRAIN_GOLDEN))
def test_dispatch_after_drain_matches_pins(params):
    result, migrations_done, violations = _drain_run(*params)
    assert violations == []
    assert migrations_done == 1
    assert result.fingerprint == _DRAIN_GOLDEN[params]


@pytest.mark.parametrize("params", sorted(_PLAIN_GOLDEN))
def test_plain_runs_match_old_implementation(params):
    seed, d, requests, rps, timeout = params
    assert _plain_fingerprint(seed, d, requests, rps, timeout) \
        == _PLAIN_GOLDEN[params]


@pytest.mark.parametrize("params", sorted(_COMPOSED_GOLDEN))
def test_composed_kill_runs_match_old_implementation(params):
    seed, d, requests, kill_after = params
    fingerprint, violations = _composed_fingerprint(seed, d, requests,
                                                    kill_after)
    assert violations == []
    assert fingerprint == _COMPOSED_GOLDEN[params]
