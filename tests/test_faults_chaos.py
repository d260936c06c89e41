"""Chaos acceptance: randomized fault storms leak nothing, twice.

The headline acceptance gate for the fault subsystem: a 100-fault
randomized run leaves zero leaked resources and two same-seed runs are
byte-identical. A hypothesis property widens the net across seeds and
fault budgets while interleaving faults with the COW ``xs_clone``
workload.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import EMPTY_PLAN, FaultPlan, FaultSpec
from repro.faults.chaos import run_chaos

ACCEPTANCE_SEED = 0xC10E


def test_chaos_hundred_faults_zero_leaks():
    report = run_chaos(seed=ACCEPTANCE_SEED, faults=100)
    assert report["violations"] == []
    assert report["fault_stats"]["stats"]["injected"] > 50
    assert report["clones_succeeded"] > 0
    assert report["clone_errors"] > 0  # the storm really did break things


def test_chaos_same_seed_is_byte_identical():
    one = run_chaos(seed=ACCEPTANCE_SEED, faults=100)
    two = run_chaos(seed=ACCEPTANCE_SEED, faults=100)
    assert one == two


def test_chaos_different_seeds_differ():
    one = run_chaos(seed=0xC10E, faults=40, rounds=12)
    two = run_chaos(seed=0xBEEF, faults=40, rounds=12)
    assert one["fingerprint"] != two["fingerprint"]


def test_chaos_empty_plan_all_clones_succeed():
    report = run_chaos(seed=ACCEPTANCE_SEED, plan=EMPTY_PLAN, rounds=4)
    assert report["violations"] == []
    assert report["clone_errors"] == 0
    assert report["clones_succeeded"] == report["clones_attempted"]
    assert report["fault_stats"] == {}


def test_chaos_targeted_xs_clone_plan():
    # Hammer the COW Xenstore clone path specifically: every abort must
    # still unwind the child's /local/domain subtree.
    plan = FaultPlan(specs=[
        FaultSpec(site="xenstore.xs_clone", count=None, probability=0.5)],
        name="xs-clone-storm")
    report = run_chaos(seed=7, plan=plan, rounds=10)
    assert report["violations"] == []
    assert report["fault_stats"]["stats"]["injected"] > 0


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       faults=st.integers(min_value=1, max_value=25))
def test_chaos_property_no_leaks_and_deterministic(seed, faults):
    """Any seed, any small budget: no leaks, and replayable exactly."""
    one = run_chaos(seed=seed, faults=faults, parents=1, rounds=6)
    assert one["violations"] == []
    two = run_chaos(seed=seed, faults=faults, parents=1, rounds=6)
    assert one["fingerprint"] == two["fingerprint"]
