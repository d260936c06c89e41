"""Fleet chaos: determinism fingerprint + leak-free host-kill storms.

The fixed-seed test pins the CI contract (two runs at the same
(seed, plan, policy) are byte-identical); the hypothesis property
widens the zero-leak claim across arbitrary seeds and storm shapes.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.fleet import kill_plan, run_fleet_chaos

SMOKE_SEED = 0xC10E


def test_kill_plan_is_deterministic_and_bounded():
    a = kill_plan(SMOKE_SEED, hosts=4, kills=3)
    b = kill_plan(SMOKE_SEED, hosts=4, kills=3)
    assert a.to_json() == b.to_json()
    # One one-shot spec per kill, plus the degrade spec.
    assert len(a.specs) == 4
    assert all(spec.count == 1 for spec in a.specs)


def test_kill_plan_refuses_more_kills_than_hosts():
    with pytest.raises(ReproError):
        kill_plan(SMOKE_SEED, hosts=3, kills=4)
    # kills == hosts is the legal total-loss storm: it must build a
    # plan (one spec per kill plus the degrade spec), not raise.
    assert len(kill_plan(SMOKE_SEED, hosts=3, kills=3).specs) == 4


def test_smoke_storm_fingerprint_is_byte_identical():
    first = run_fleet_chaos(seed=SMOKE_SEED, hosts=4, kills=2)
    second = run_fleet_chaos(seed=SMOKE_SEED, hosts=4, kills=2)
    assert first["violations"] == []
    assert first["hosts_killed"] == 2
    assert first["replacements"] >= 1
    assert first["clones_requested"] == first["clones_placed"] \
        + first["clones_failed"]
    assert first == second


def test_total_loss_storm_still_fingerprints():
    # Killing every host used to raise before the report existed; a
    # total-loss storm must run to completion, stay leak-free and
    # fingerprint its (all-failures) outcome.
    report = run_fleet_chaos(hosts=2, kills=2)
    assert report["violations"] == []
    assert report["hosts_killed"] == 2
    assert len(report["fingerprint"]) == 64


def test_policies_diverge_but_stay_clean():
    rr = run_fleet_chaos(seed=SMOKE_SEED, policy="round-robin")
    ll = run_fleet_chaos(seed=SMOKE_SEED, policy="least-loaded")
    assert rr["violations"] == [] and ll["violations"] == []
    assert rr["fingerprint"] != ll["fingerprint"]


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       hosts=st.integers(min_value=2, max_value=5),
       kills=st.integers(min_value=0, max_value=2),
       batch=st.integers(min_value=1, max_value=4))
def test_storms_never_leak_fleet_wide(seed, hosts, kills, batch):
    kills = min(kills, hosts - 1)
    # rounds stays at the default 8: the kill plan's `after` floors
    # (up to 6 clone-op polls) need that many requests to guarantee
    # every armed kill actually triggers.
    report = run_fleet_chaos(seed=seed, hosts=hosts, kills=kills,
                             parents=1, batch=batch)
    assert report["violations"] == []
    assert report["hosts_killed"] == kills
    assert report["clones_requested"] == report["clones_placed"] \
        + report["clones_failed"]
