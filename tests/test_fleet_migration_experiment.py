"""Tests: the drain-vs-kill fleet migration headline experiment.

Both sizes are pinned in the ``fleet-migration`` entry of
:data:`repro.scenarios.SCENARIOS`: the quick run as the entry, the full
run as its ``full`` field, which the ``fleet_migration`` perf-harness
scenario times.
"""

import multiprocessing

import pytest

from repro.experiments import fleet_migration


@pytest.fixture(scope="module")
def quick():
    return fleet_migration.run_quick(seed=0xC10E)


def test_quick_run_has_zero_violations(quick):
    # run() records a violation unless drain P99 < kill P99,
    # kill P99 > baseline P99 and drain P99 <= 1.25x baseline, so this
    # also pins the headline's orderings.
    assert quick["violations"] == []


def _quick_payload() -> dict:
    return fleet_migration.run_quick(seed=0xC10E)


def test_forked_worker_reproduces_the_result(quick):
    """The whole result is a function of the seed alone: a forked
    worker process computes exactly the in-process payload."""
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(_quick_payload) == quick


def test_format_result_renders_the_table(quick):
    text = fleet_migration.format_result(quick)
    for token in ("baseline", "drain", "kill", "p99 ms", "storm"):
        assert token in text
    assert "VIOLATIONS" not in text
