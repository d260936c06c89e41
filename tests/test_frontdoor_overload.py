"""Tests: the overload-collapse-vs-protection headline experiment.

The quick size is pinned as the ``frontdoor-overload`` entry of
:data:`repro.scenarios.SCENARIOS`; the full size is the
``frontdoor_overload`` perf-harness scenario (its pin is in
``benchmarks/perf/harness.py``).
"""

import json
import multiprocessing

import pytest

from repro.experiments import frontdoor_overload


@pytest.fixture(scope="module")
def quick():
    return frontdoor_overload.run_quick(seed=0xC10E)


def _quick_payload() -> dict:
    return frontdoor_overload.run_quick(seed=0xC10E).to_dict()


def test_forked_worker_reproduces_the_result(quick):
    """The whole result is a function of the seed alone: a forked
    worker process computes exactly the in-process payload."""
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(_quick_payload) == quick.to_dict()


def test_quick_run_has_zero_violations(quick):
    assert quick.violations == []


def test_unprotected_arm_collapses(quick):
    baseline = quick.arms["baseline"]
    unprotected = quick.arms["unprotected"]
    # Goodput collapses while offered load stays flat across waves:
    # the metastable signature, not a transient.
    assert unprotected["goodput"] < 0.8 * baseline["goodput"]
    offered = [wave["offered"] for wave in unprotected["waves"]]
    assert len(set(offered)) == 1
    # The sustaining feedback loop: retries dwarf the protected arm's
    # budgeted trickle.
    protected = quick.arms["protected"]
    assert unprotected["retries"] >= 5 * (protected["retries"] + 1)


def test_protected_arm_sheds_and_holds_the_tail(quick):
    baseline = quick.arms["baseline"]
    protected = quick.arms["protected"]
    assert protected["shed"] > 0
    assert protected["p99_ms"] <= 2.0 * baseline["p99_ms"]
    assert protected["goodput"] > quick.arms["unprotected"]["goodput"]
    # The budget held: retries within fraction * offered + burst.
    assert protected["retries"] <= 0.1 * protected["offered"] + 8


def test_storm_arm_matches_the_smoke(quick):
    storm = quick.storm
    assert storm["violations"] == []
    assert storm["shed"] > 0 and storm["retries"] > 0
    assert storm["faults_fired"] > 0


def test_format_result_renders_the_table(quick):
    text = frontdoor_overload.format_result(quick)
    for token in ("baseline", "unprotected", "protected", "goodput",
                  "breaker trips"):
        assert token in text


def test_result_round_trips_to_json(quick):
    payload = json.loads(json.dumps(quick.to_dict(), sort_keys=True))
    assert payload["fingerprint"] == quick.fingerprint
    assert set(payload["arms"]) == {"baseline", "unprotected",
                                    "protected"}
