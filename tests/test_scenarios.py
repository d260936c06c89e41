"""Tests: the pinned scenario registry and ``python -m repro.scenarios``."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import scenarios
from repro.scenarios import PIN_SEED, SCENARIOS, Scenario, fingerprint, main


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_is_clean_and_pinned(name):
    payload = SCENARIOS[name].runner(PIN_SEED)
    assert payload["violations"] == []
    assert payload["fingerprint"] == fingerprint(payload)
    assert payload["fingerprint"] == SCENARIOS[name].pin


def test_fingerprint_ignores_its_own_key():
    payload = {"b": [1, 2], "a": 0.5}
    digest = fingerprint(payload)
    assert fingerprint({**payload, "fingerprint": digest}) == digest
    assert fingerprint({"a": 0.5, "b": [1, 2]}) == digest
    assert fingerprint({"a": 0.5, "b": [2, 1]}) != digest


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_fingerprint_refuses_values_without_a_json_form(value):
    with pytest.raises(ValueError):
        fingerprint({"points": [{"p99_ms": value}]})


def test_import_repro_loads_neither_the_registry_nor_argparse():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = ("import sys, repro; "
            "print(sorted({'repro.scenarios', 'argparse'} & set(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


# ----------------------------------------------------------------------
# exit codes, against a stubbed registry
# ----------------------------------------------------------------------
def _stub(monkeypatch, runner, pin=None):
    """Register ``runner`` as the only scenario, ``toy``."""
    pin = pin if pin is not None else fingerprint(runner(PIN_SEED))
    monkeypatch.setattr(scenarios, "SCENARIOS",
                        {"toy": Scenario(runner, pin)})


def test_clean_pinned_scenario_exits_zero(monkeypatch, capsys):
    _stub(monkeypatch, lambda seed: {"seed": seed, "violations": []})
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "toy\n  seed: 49422\n  violations: 0\n" in out
    assert out.rstrip().endswith("ok")


def test_summary_prints_scalar_members_of_dict_fields(monkeypatch, capsys):
    _stub(monkeypatch, lambda seed: {
        "seed": seed, "stats": {"shed": 3, "retries": 5, "waves": [1, 2]},
        "faults": {"frontdoor.admit": {"drop": 1}}, "violations": []})
    assert main([]) == 0
    out = capsys.readouterr().out
    assert ("toy\n  seed: 49422\n  stats.shed: 3\n  stats.retries: 5\n"
            "  violations: 0\n") in out
    assert "waves" not in out and "faults" not in out


def test_violation_exits_one(monkeypatch, capsys):
    _stub(monkeypatch, lambda seed: {"violations": ["leaked a frame"]})
    assert main(["toy"]) == 1
    captured = capsys.readouterr()
    assert "    - leaked a frame" in captured.out
    assert "FAIL toy: violation: leaked a frame" in captured.err


def test_drift_between_runs_exits_one(monkeypatch, capsys):
    calls = []

    def runner(seed):
        calls.append(seed)
        return {"run": len(calls), "violations": []}

    _stub(monkeypatch, runner)
    assert main(["toy"]) == 1
    assert "drift" in capsys.readouterr().err


def test_pin_mismatch_exits_one_only_at_the_pin_seed(monkeypatch, capsys):
    _stub(monkeypatch, lambda seed: {"seed": seed, "violations": []},
          pin="0" * 64)
    assert main(["toy"]) == 1
    assert "fingerprint != pin" in capsys.readouterr().err
    assert main(["toy", "--seed", "7"]) == 0


def test_unknown_name_is_a_usage_error(monkeypatch, capsys):
    _stub(monkeypatch, lambda seed: {"violations": []})
    with pytest.raises(SystemExit) as exit_info:
        main(["bogus"])
    assert exit_info.value.code == 2
    assert "unknown scenario bogus" in capsys.readouterr().err


def test_json_prints_every_payload(monkeypatch, capsys):
    _stub(monkeypatch, lambda seed: {"seed": seed, "violations": []})
    assert main(["--json", "--seed", "0x10"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "toy": {"seed": 16, "violations": []}}
