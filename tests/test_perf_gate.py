"""Unit tests: the perf gate's floor evaluation and schema contract."""

from __future__ import annotations

import json

import pytest

from benchmarks.perf.gate import check, format_table, load_reference
from benchmarks.perf.harness import (
    FLOORS,
    OUTPUT_PATH,
    SCENARIOS,
    SCHEMA_VERSION,
    _pinned_experiment,
    kvm_fingerprint,
)
from repro import scenarios
from repro.scenarios import PIN_SEED, Scenario, fingerprint


def _payload(**overrides) -> dict:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "scale": "full",
        "cpus": 8,
        "scenarios": {
            "fig5_density": {"speedup": 2.4, "work_reduction": 3.65},
        },
        "determinism": {"fig5": "ok"},
    }
    payload.update(overrides)
    return payload


def test_all_floors_held_yields_no_violations():
    violations, rows = check(_payload(), FLOORS)
    assert violations == []
    assert any(r[0] == "fig5_density" and r[1] == "work_reduction"
               for r in rows)
    assert "FAIL" not in format_table(rows)


def test_speedup_below_floor_fails():
    payload = _payload()
    payload["scenarios"]["fig5_density"]["speedup"] = 1.0
    violations, _ = check(payload, FLOORS)
    assert any("fig5_density: speedup" in v for v in violations)


def test_work_reduction_below_floor_fails():
    payload = _payload()
    payload["scenarios"]["fig5_density"]["work_reduction"] = 1.0
    violations, _ = check(payload, FLOORS)
    assert any("work_reduction" in v for v in violations)


def test_frontdoor_megascale_floor_enforced():
    """The issue's 3x megascale target is a hard floor, not advisory."""
    payload = _payload()
    payload["scenarios"]["frontdoor_p99"] = {"speedup": 2.4,
                                             "work_reduction": 8.0}
    violations, _ = check(payload, FLOORS)
    assert any("frontdoor_p99: speedup 2.4" in v for v in violations)
    payload["scenarios"]["frontdoor_p99"] = {"speedup": 3.2,
                                             "work_reduction": 8.0}
    violations, _ = check(payload, FLOORS)
    assert violations == []


def test_profile_artifact_writes_top_frames(tmp_path, monkeypatch):
    import benchmarks.perf.gate as gate_mod

    def fake_factory(quick):
        assert quick is True
        return lambda: sum(range(1000))

    monkeypatch.setattr(gate_mod, "SCENARIOS", {"toy": fake_factory})
    out = tmp_path / "profile.txt"
    text = gate_mod.write_profile(out, quick=True)
    assert out.read_text() == text
    assert "=== toy ===" in text
    assert "function calls" in text


def test_determinism_drift_fails():
    payload = _payload(determinism={"fig5": "drift"})
    violations, _ = check(payload, FLOORS)
    assert any("determinism drift" in v for v in violations)


def test_kvm_fingerprint_is_the_same_twice_in_one_process():
    # The gate's kvm_clone_burst determinism row: its hash covers the
    # family bond's per-tap distribution, so tap names must not depend
    # on what ran before in the process.
    assert kvm_fingerprint() == kvm_fingerprint()


def test_reference_schema_version_is_enforced(tmp_path):
    stale = tmp_path / "BENCH_wallclock.json"
    stale.write_text(json.dumps({"scale": "full", "scenarios": {}}))
    with pytest.raises(SystemExit, match="schema_version"):
        load_reference(stale)
    good = tmp_path / "ok.json"
    good.write_text(json.dumps(_payload()))
    assert load_reference(good)["schema_version"] == SCHEMA_VERSION


def test_committed_payload_satisfies_its_own_floors():
    """The repo must never commit a BENCH_wallclock.json that its own
    gate would reject."""
    payload = load_reference(OUTPUT_PATH)
    violations, _ = check(payload, payload["floors"])
    assert violations == []


def test_committed_payload_matches_the_harness():
    """The gate enforces the committed floors, so they must be the
    harness's own, and every committed name must still be a scenario
    the harness runs."""
    payload = load_reference(OUTPUT_PATH)
    assert payload["floors"] == FLOORS
    assert set(payload["floors"]) <= set(SCENARIOS)
    assert set(payload["scenarios"]) <= set(SCENARIOS)


# ----------------------------------------------------------------------
# the pinned experiments' in-region checks, against a stubbed registry
# ----------------------------------------------------------------------
def _entry(scale, violations=(), pin=None):
    """A registry entry whose runner returns a fingerprinted payload."""
    def runner(seed):
        payload = {"scale": scale, "seed": seed,
                   "violations": list(violations)}
        payload["fingerprint"] = fingerprint(payload)
        return payload

    return Scenario(runner, pin if pin is not None
                    else runner(PIN_SEED)["fingerprint"])


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
@pytest.mark.parametrize("fault, message", [
    ({"pin": "0" * 64}, "fingerprint drift"),
    ({"violations": ["leaked a frame"]}, r"violations: \['leaked a frame'\]"),
], ids=["missed-pin", "violation"])
def test_pinned_experiment_raises_in_its_timed_region(monkeypatch, quick,
                                                      fault, message):
    broken, clean = _entry("broken", **fault), _entry("clean")
    entry = (Scenario(broken.runner, broken.pin, full=clean) if quick
             else Scenario(clean.runner, clean.pin, full=broken))
    monkeypatch.setattr(scenarios, "SCENARIOS", {"toy": entry})
    with pytest.raises(AssertionError, match=f"toy {message}"):
        _pinned_experiment("toy")(quick)()
    # The other scale checks its own, clean run against its own pin.
    _pinned_experiment("toy")(not quick)()
