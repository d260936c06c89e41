"""Tests: the front-door request-cloning dispatcher."""

from collections import Counter

import pytest

from repro.errors import ReproError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.fleet.chaos import audit_fleet, audit_frontdoor
from repro.fleet.fleet import Fleet, HostState
from repro.frontdoor import (
    DISPATCH_RTT_MS,
    AutoscalePolicy,
    DispatchTimeout,
    FleetSession,
    FrontDoorError,
    NoCapacity,
    ReplicaServer,
)
from repro.frontdoor.dispatch import DEGRADED_RATE, _Copy, _Request
from repro.frontdoor.resilience import ResiliencePolicy
from repro.sim.engine import Engine
from repro.sim.rng import DeterministicRNG


@pytest.fixture
def session():
    with FleetSession(hosts=2) as sess:
        sess.create_family("fam", ip="10.5.0.1")
        sess.clone("fam", count=5)
        yield sess
        sess.close(check=True)


# ----------------------------------------------------------------------
# the processor-sharing server model
# ----------------------------------------------------------------------

def _admit_with_demand(server: ReplicaServer, demand_ms: float) -> _Copy:
    request = _Request(rid=0, t_arrive_ms=0.0, demand_ms=demand_ms)
    copy = _Copy(request, server)
    server.admit(copy)
    return copy


def test_ps_server_splits_rate_equally():
    server = ReplicaServer("h0", 1, now_ms=0.0)
    a = _admit_with_demand(server, 4.0)
    b = _admit_with_demand(server, 8.0)
    # Two jobs share the unit rate: the 4 ms job needs 8 wall ms.
    assert server.next_departure_ms() == pytest.approx(8.0)
    server.advance(8.0)
    assert server.remaining(a) == pytest.approx(0.0)
    assert server.remaining(b) == pytest.approx(4.0)
    assert server.work_done_ms == pytest.approx(8.0)
    server.remove(a)
    # Alone, the survivor finishes at full rate.
    assert server.next_departure_ms() == pytest.approx(12.0)


def test_ps_server_degraded_rate_halves_service():
    server = ReplicaServer("h0", 1, now_ms=0.0)
    server.rate = DEGRADED_RATE
    _admit_with_demand(server, 5.0)
    assert server.next_departure_ms() == pytest.approx(10.0)
    server.advance(10.0)
    assert server.work_done_ms == pytest.approx(5.0)


def test_ps_advance_is_idempotent_at_same_time():
    server = ReplicaServer("h0", 1, now_ms=0.0)
    _admit_with_demand(server, 5.0)
    server.advance(2.0)
    server.advance(2.0)  # no time passed: no extra work
    assert server.work_done_ms == pytest.approx(2.0)


def test_ps_virtual_clock_tracks_per_job_service():
    server = ReplicaServer("h0", 1, now_ms=0.0)
    a = _admit_with_demand(server, 6.0)
    server.advance(2.0)  # alone: 2 work-ms of per-job service
    b = _admit_with_demand(server, 6.0)
    server.advance(6.0)  # shared: 2 more work-ms each
    assert server.vclock == pytest.approx(4.0)
    assert server.consumed_of(a) == pytest.approx(4.0)
    assert server.consumed_of(b) == pytest.approx(2.0)
    assert server.remaining(a) == pytest.approx(2.0)
    assert server.remaining(b) == pytest.approx(4.0)
    # Finish virtual times were fixed at admission.
    assert a.vkey == pytest.approx(6.0)
    assert b.vkey == pytest.approx(8.0)


def test_ps_heap_lazy_deletion_compacts():
    server = ReplicaServer("h0", 1, now_ms=0.0)
    copies = [_admit_with_demand(server, 100.0 + i) for i in range(80)]
    for copy in copies[:70]:
        server.remove(copy)
    # The compaction discipline holds: above the size floor, dead
    # entries never outnumber live ones, so the heap stayed O(live)
    # instead of retaining all 70 tombstones.
    assert len(server.jobs) == 10
    assert len(server._heap) < 80
    assert (server._heap_dead * 2 <= len(server._heap)
            or len(server._heap) < 64)
    # Departure lookup is exact across the tombstones: the soonest
    # surviving job (demand 170, 10-way sharing) departs at 1700.
    assert server.next_departure_ms() == pytest.approx((100.0 + 70) * 10)


# ----------------------------------------------------------------------
# run_workload: counts, conservation, latency
# ----------------------------------------------------------------------

def test_run_workload_resolves_every_request(session):
    result = session.dispatch("fam", "faas", requests=400,
                              arrival_rps=200.0, clone_factor=2)
    assert result.requests == 400
    assert result.completed + result.failed + result.timed_out == 400
    assert result.copies == (result.copies_won + result.copies_cancelled
                             + result.copies_lost + result.copies_timed_out)
    assert result.copies == 2 * result.completed + result.copies_timed_out
    assert audit_frontdoor(session.frontdoor) == []
    assert audit_fleet(session.fleet, session.frontdoor) == []


def test_latency_includes_dispatch_rtt(session):
    result = session.dispatch("fam", "faas", requests=50, arrival_rps=100.0)
    assert result.completed == 50
    assert result.latency_p50_ms > DISPATCH_RTT_MS
    assert result.latency_max_ms >= result.latency_p99_ms \
        >= result.latency_p50_ms


def test_cloning_spends_extra_work_as_waste(session):
    plain = session.dispatch("fam", "faas", requests=300, arrival_rps=150.0,
                             clone_factor=1, label="plain")
    cloned = session.dispatch("fam", "faas", requests=300, arrival_rps=150.0,
                              clone_factor=3, label="cloned")
    assert plain.waste_fraction == pytest.approx(0.0)
    # Losing copies burn real service: waste is strictly positive and
    # the served work exceeds the useful work.
    assert cloned.waste_fraction > 0.2
    assert cloned.work_served_ms > cloned.work_useful_ms


def test_dispatch_one_returns_latency(session):
    latency = session.frontdoor.dispatch_one("fam", "faas")
    assert latency > DISPATCH_RTT_MS


def test_dispatch_one_timeout_raises(session):
    with pytest.raises(DispatchTimeout):
        session.frontdoor.dispatch_one("fam", "faas", timeout_ms=1e-6)
    assert audit_frontdoor(session.frontdoor) == []


def test_timeouts_counted_and_conserved(session):
    result = session.dispatch("fam", "faas", requests=200, arrival_rps=400.0,
                              clone_factor=2, timeout_ms=0.5)
    assert result.timed_out > 0
    assert result.completed + result.failed + result.timed_out == 200
    assert audit_frontdoor(session.frontdoor) == []


# ----------------------------------------------------------------------
# argument validation and capacity
# ----------------------------------------------------------------------

def test_unknown_family_rejected(session):
    with pytest.raises(FrontDoorError):
        session.dispatch("nope", "faas", requests=1, arrival_rps=1.0)


def test_bad_arguments_rejected(session):
    with pytest.raises(FrontDoorError):
        session.dispatch("fam", "faas", requests=0, arrival_rps=1.0)
    with pytest.raises(FrontDoorError):
        session.dispatch("fam", "faas", requests=1, arrival_rps=0.0)
    with pytest.raises(FrontDoorError):
        session.dispatch("fam", "faas", requests=1, arrival_rps=1.0,
                         clone_factor=0)
    with pytest.raises(ReproError):
        session.dispatch("fam", "not-a-workload", requests=1,
                         arrival_rps=1.0)


def test_clone_factor_beyond_pool_is_no_capacity(session):
    with pytest.raises(NoCapacity):
        session.dispatch("fam", "faas", requests=10, arrival_rps=10.0,
                         clone_factor=99)


def test_full_servers_reject_admissions():
    with FleetSession(hosts=1) as sess:
        sess.create_family("tiny", ip="10.5.1.1")
        sess.frontdoor.max_jobs_per_server = 1
        # Arrivals far faster than service: the single one-slot replica
        # must turn requests away, and the rejections are accounted.
        result = sess.dispatch("tiny", "faas", requests=100,
                               arrival_rps=5000.0)
        assert result.failed > 0
        assert sess.frontdoor.stats["rejected_no_capacity"] == result.failed
        assert audit_frontdoor(sess.frontdoor) == []


# ----------------------------------------------------------------------
# pool lifecycle: refresh, degradation, retirement
# ----------------------------------------------------------------------

def test_refresh_tracks_family_size(session):
    pool = session.frontdoor.refresh("fam")
    assert len(pool) == 6  # parent + 5 clones
    session.clone("fam", count=2)
    assert len(session.frontdoor.refresh("fam")) == 8


def test_refresh_caches_pool_on_topology_epoch(session):
    frontdoor = session.frontdoor
    first = frontdoor.refresh("fam")
    # No placement or host-state change: the cached view comes back
    # without re-enumerating the family (same list object).
    assert frontdoor.refresh("fam") is first
    session.clone("fam", count=1)
    second = frontdoor.refresh("fam")
    assert second is not first
    assert len(second) == len(first) + 1


def _live_replica_keys(fleet, family: str) -> set[tuple[str, int]]:
    """Ground-truth enumeration of the family's live replicas."""
    fam = fleet.families[family]
    entries = ([(h, d) for h, d in sorted(fam.replicas.items())]
               + [(h, d) for h in sorted(fam.clones)
                  for d in fam.clones[h]])
    return {(host_name, domid) for host_name, domid in entries
            if fleet.host(host_name).alive
            and domid in fleet.host(host_name).platform.hypervisor.domains}


def test_topology_epoch_never_stale_after_crash_storm():
    """The epoch-keyed cache may never serve a stale pool view."""
    plan = FaultPlan(specs=[
        FaultSpec(site="host.crash", match={"op": "heartbeat"},
                  after=2, count=1),
        FaultSpec(site="host.crash", match={"op": "heartbeat"},
                  after=5, count=1),
    ], name="epoch-storm")
    with FleetSession(hosts=4, seed=0xC10E, plan=plan) as sess:
        sess.create_family("fam", ip="10.5.4.1")
        sess.clone("fam", count=7)
        frontdoor = sess.frontdoor
        for _ in range(12):
            sess.fleet.tick()
            view = frontdoor.refresh("fam")
            assert ({server.key for server in view}
                    == _live_replica_keys(sess.fleet, "fam"))
        stats = sess.fleet.stats
        assert stats["hosts_crashed"] + stats["hosts_fenced"] >= 2
        sess.close(check=False)  # hosts killed on purpose


def test_degraded_host_serves_at_half_rate(session):
    session.fleet.hosts[0].state = HostState.DEGRADED
    pool = session.frontdoor.refresh("fam")
    degraded = [srv for srv in pool if srv.host == "host0"]
    healthy = [srv for srv in pool if srv.host != "host0"]
    assert degraded and all(s.rate == DEGRADED_RATE for s in degraded)
    assert all(s.rate == 1.0 for s in healthy)
    session.fleet.hosts[0].state = HostState.UP


def test_host_degraded_mid_service_bills_each_rate_for_its_slice(
        monkeypatch):
    """A 10 ms job whose host turns DEGRADED 4 ms into service: 4 ms of
    work at rate 1.0, the other 6 ms at half rate, so it departs 16 ms
    after arrival (not 20, which billing the whole stay at the new
    rate would give)."""
    monkeypatch.setattr(DeterministicRNG, "expovariate",
                        lambda self, rate: 10.0)
    with FleetSession(hosts=1) as sess:
        sess.create_family("deg", ip="10.5.5.1")
        host = sess.fleet.hosts[0]

        def degrade_once(fleet):
            # A heartbeat that marks the host DEGRADED without charging
            # the clock, so the rate flips exactly 4 ms into service.
            if host.state is HostState.UP:
                host.state = HostState.DEGRADED
                fleet.topology_epoch += 1

        monkeypatch.setattr(Fleet, "tick", degrade_once)
        # Arrival at +10 ms; first heartbeat at +14 ms.
        result = sess.dispatch("deg", "faas", requests=1,
                               arrival_rps=100.0, heartbeat_every_ms=14.0)
        host.state = HostState.UP
    assert result.completed == 1
    assert result.latency_max_ms == pytest.approx(
        4.0 + 6.0 / DEGRADED_RATE + DISPATCH_RTT_MS, abs=1e-9)


def test_destroyed_family_retires_servers(session):
    session.dispatch("fam", "faas", requests=50, arrival_rps=100.0)
    frontdoor = session.frontdoor
    delivered_before = frontdoor.live_work_ms() + frontdoor.retired_work_ms
    session.destroy_family("fam")
    with pytest.raises(FrontDoorError):
        frontdoor.refresh("fam")
    # The family is gone from the fleet; the pool entry survives until
    # a later refresh on a recreated family, but nothing leaks: the
    # work ledger still balances.
    assert audit_frontdoor(frontdoor) == []
    session.create_family("fam", ip="10.5.0.1")
    pool = frontdoor.refresh("fam")
    assert len(pool) == 1
    assert frontdoor.stats["servers_retired"] == 6
    # Retirement banks the delivered work instead of dropping it.
    assert (frontdoor.live_work_ms() + frontdoor.retired_work_ms
            == pytest.approx(delivered_before))


def test_host_death_fails_inflight_requests():
    with FleetSession(hosts=2) as sess:
        sess.create_family("fam", ip="10.5.2.1")
        sess.clone("fam", count=3)
        frontdoor = sess.frontdoor
        frontdoor.refresh("fam")
        # Kill one host while copies are on its replicas: heartbeats in
        # the run (none here) would normally notice; retire directly.
        victim = sess.fleet.hosts[0]
        sess.fleet._declare_dead(victim)
        pool = frontdoor.refresh("fam")
        assert all(server.host != victim.name for server in pool)
        assert frontdoor.stats["servers_retired"] > 0
        assert audit_frontdoor(frontdoor) == []
        sess.close(check=False)  # host killed on purpose


# ----------------------------------------------------------------------
# autoscaling
# ----------------------------------------------------------------------

def test_autoscale_grows_the_pool(session):
    policy = AutoscalePolicy(threshold_rps=1.0, check_interval_ms=100.0,
                             max_replicas=10, scale_step=2)
    before = len(session.frontdoor.refresh("fam"))
    session.dispatch("fam", "faas", requests=500, arrival_rps=400.0,
                     autoscale=policy)
    after = len(session.frontdoor.refresh("fam"))
    assert after > before
    assert after <= policy.max_replicas
    assert session.frontdoor.stats["autoscale_events"] >= 1
    assert audit_frontdoor(session.frontdoor) == []


def test_autoscale_policy_validates():
    with pytest.raises(FrontDoorError):
        AutoscalePolicy(max_replicas=0)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

def _smoke_fingerprint(seed: int, label: str = "det") -> str:
    with FleetSession(hosts=2, seed=seed) as sess:
        sess.create_family("fam", ip="10.5.3.1")
        sess.clone("fam", count=3)
        result = sess.dispatch("fam", "faas", requests=200,
                               arrival_rps=150.0, clone_factor=2,
                               label=label)
    return result.fingerprint


def test_same_seed_same_fingerprint():
    assert _smoke_fingerprint(0xC10E) == _smoke_fingerprint(0xC10E)


def test_seed_and_label_change_the_stream():
    base = _smoke_fingerprint(0xC10E)
    assert _smoke_fingerprint(0xBEEF) != base
    assert _smoke_fingerprint(0xC10E, label="other") != base


# ----------------------------------------------------------------------
# the timeout/departure tie
# ----------------------------------------------------------------------

TIE_MS = 7.0


@pytest.fixture
def constant_draws(monkeypatch):
    """Pin every exponential draw to TIE_MS: arrivals land TIE_MS
    apart and every request demands exactly TIE_MS of service, so
    ``timeout_ms=TIE_MS`` collides with the departure instant."""
    monkeypatch.setattr(DeterministicRNG, "expovariate",
                        lambda self, rate: TIE_MS)


def _tie_session():
    sess = FleetSession(hosts=2)
    sess.create_family("tie", ip="10.5.4.1")
    return sess


def test_timeout_departure_tie_departure_wins_fast_path(constant_draws):
    with _tie_session() as sess:
        result = sess.dispatch("tie", "faas", requests=1,
                               arrival_rps=100.0, clone_factor=1,
                               timeout_ms=TIE_MS)
        # The copy's service is complete at the expiry instant: the
        # departure wins the tie and the request resolves completed.
        assert result.completed == 1 and result.timed_out == 0
        assert audit_frontdoor(sess.frontdoor) == []


def test_timeout_departure_tie_departure_wins_with_heartbeats(
        constant_draws):
    with _tie_session() as sess:
        # A periodic heartbeat puts engine events in the loop too.
        result = sess.dispatch("tie", "faas", requests=1,
                               arrival_rps=100.0, clone_factor=1,
                               timeout_ms=TIE_MS,
                               heartbeat_every_ms=1000.0)
        assert result.completed == 1 and result.timed_out == 0
        engine = sess.frontdoor.engine
        # The tie leaves nothing behind: no pending timeout event, no
        # cancelled husk leaked in the queue.
        assert engine.next_time() is None
        assert engine.cancelled_pending == 0


def test_mass_tie_resolves_every_request_without_leaks(constant_draws):
    with _tie_session() as sess:
        sess.clone("tie", count=3)
        result = sess.dispatch("tie", "faas", requests=100,
                               arrival_rps=100.0, clone_factor=2,
                               timeout_ms=TIE_MS)
        assert result.completed + result.timed_out == 100
        assert result.completed == 100  # every tie resolves as a departure
        engine = sess.frontdoor.engine
        assert engine.next_time() is None
        assert engine.cancelled_pending == 0
        assert audit_fleet(sess.fleet, sess.frontdoor) == []


def test_cancelled_timeout_events_are_compacted_not_leaked(session):
    # Long timeouts that never fire: every completion cancels its
    # timeout event, and the engine's lazy compaction keeps the
    # cancelled fraction bounded instead of accumulating husks.
    result = session.dispatch("fam", "faas", requests=500,
                              arrival_rps=400.0, clone_factor=2,
                              timeout_ms=10_000.0,
                              heartbeat_every_ms=5.0)
    assert result.completed == 500
    engine = session.frontdoor.engine
    # The compaction bound: above the 64-event floor the queue never
    # holds a cancelled majority.
    assert (engine.pending < 64
            or engine.cancelled_pending * 2 <= engine.pending)


@pytest.mark.parametrize("resilient", [False, True])
def test_heartbeat_dispatch_schedules_only_timeouts_and_retries(
        monkeypatch, resilient):
    """Arrivals and departures never become engine events, even with
    heartbeats and an autoscaler armed: every ``Engine.schedule_at``
    call is a request timeout or a retry. (Periodic re-arms are pushed
    by ``Engine.every`` itself, without ``schedule_at``.)"""
    scheduled = Counter()
    schedule_at = Engine.schedule_at

    def counting(self, t_ms, callback):
        name = getattr(callback, "__qualname__", repr(callback))
        scheduled[name.split(".<locals>")[0]] += 1
        return schedule_at(self, t_ms, callback)

    monkeypatch.setattr(Engine, "schedule_at", counting)
    policy = ResiliencePolicy(
        sojourn_bound_ms=25.0, retry_budget_fraction=0.1, retry_burst=8.0,
        max_attempts=3, deadline_ms=50.0) if resilient else None
    with FleetSession(hosts=2) as sess:
        sess.create_family("fam", ip="10.5.6.1")
        sess.clone("fam", count=5)
        autoscale = AutoscalePolicy(threshold_rps=1.0,
                                    check_interval_ms=100.0,
                                    max_replicas=10, scale_step=2)
        result = sess.dispatch("fam", "faas", requests=800,
                               arrival_rps=1500.0, clone_factor=2,
                               timeout_ms=20.0, heartbeat_every_ms=25.0,
                               autoscale=autoscale, resilience=policy)
        rejected = sess.frontdoor.stats["rejected_no_capacity"]
        assert audit_fleet(sess.fleet, sess.frontdoor) == []
    assert sess.frontdoor.stats["autoscale_events"] >= 1
    timeouts = scheduled["FrontDoor._place"]
    assert set(scheduled) <= {"FrontDoor._place", "FrontDoor._retry"}
    assert scheduled["FrontDoor._retry"] == result.retries
    if resilient:
        assert result.retries > 0
        # One timeout per placed attempt: first tries that got past
        # admission, plus the retries that placed copies.
        assert timeouts <= result.offered - result.shed + result.retries
    else:
        assert rejected == 0 and timeouts == result.requests
