"""Tests: the shell's front-door verb, the total-loss storm through the
shell and ``python -m repro.scenarios``, and the kill-plan bounds."""

import io

import pytest

from repro import scenarios
from repro.cli import CliError, XlShell
from repro.scenarios import PIN_SEED, Scenario, fingerprint, main


@pytest.fixture
def shell():
    return XlShell(out=io.StringIO())


def output_of(shell: XlShell) -> str:
    return shell.out.getvalue()


# ----------------------------------------------------------------------
# the xl-style shell verb
# ----------------------------------------------------------------------

def test_shell_frontdoor_smoke(shell):
    shell.execute("frontdoor 300 2")
    text = output_of(shell)
    assert "frontdoor d=2 requests=300" in text
    assert "fingerprint:" in text
    assert "waste fraction:" in text


def test_shell_frontdoor_defaults_and_bad_args(shell):
    with pytest.raises(CliError):
        shell.execute("frontdoor one")
    with pytest.raises(CliError):
        shell.execute("frontdoor 1 2 3")
    shell.execute("help")
    assert "frontdoor" in output_of(shell)


# ----------------------------------------------------------------------
# the total-loss storm: every host killed
# ----------------------------------------------------------------------

def _total_loss(seed: int) -> dict:
    from repro.fleet.chaos import run_fleet_chaos

    return run_fleet_chaos(seed=seed, hosts=2, kills=2)


def test_shell_storm_total_loss_still_fingerprints(shell, monkeypatch):
    # Killing every host used to raise before the report existed; a
    # total-loss storm must still run to completion and the shell's
    # storm verb must print the sha256 fingerprint of its (all-failures)
    # outcome.
    monkeypatch.setitem(scenarios.SCENARIOS, "total-loss",
                        Scenario(_total_loss, pin=""))
    shell.execute("storm total-loss")
    text = output_of(shell)
    assert "hosts_killed: 2" in text
    assert "violations: 0" in text
    digest = text.split("fingerprint: ")[1].split()[0]
    assert len(digest) == 64


def test_module_cli_total_loss_exits_zero(monkeypatch, capsys):
    # The pin is taken from a run, so only violations and drift between
    # the CLI's two runs can fail it.
    monkeypatch.setitem(scenarios.SCENARIOS, "total-loss",
                        Scenario(_total_loss,
                                 fingerprint(_total_loss(PIN_SEED))))
    assert main(["total-loss"]) == 0
    out = capsys.readouterr().out
    assert "hosts_killed: 2" in out
    assert "fingerprint" in out


def test_kill_plan_still_rejects_more_kills_than_hosts():
    from repro.errors import ReproError
    from repro.fleet import kill_plan

    with pytest.raises(ReproError):
        kill_plan(7, hosts=2, kills=3)
    # The boundary case is legal now.
    plan = kill_plan(7, hosts=2, kills=2)
    assert plan is not None
