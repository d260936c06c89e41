"""Tests: ``python -m repro.frontdoor`` and the shell front-door verbs."""

import io
import json

import pytest

from repro.cli import CliError, XlShell
from repro.frontdoor.cli import main


@pytest.fixture
def shell():
    return XlShell(out=io.StringIO())


def output_of(shell: XlShell) -> str:
    return shell.out.getvalue()


# ----------------------------------------------------------------------
# the module CLI (the frontdoor-smoke CI contract)
# ----------------------------------------------------------------------

def test_smoke_contract_passes(capsys):
    # The exact invocation the frontdoor-smoke CI job pins, at reduced
    # request count: two runs must agree byte-for-byte and leak nothing.
    assert main(["--seed", "0xC10E", "--requests", "600",
                 "--clone-factors", "1,2", "--runs", "2"]) == 0
    out = capsys.readouterr().out
    assert "conservation audit: clean (zero leaks)" in out
    assert out.count("fingerprint:") == 2  # one per clone factor


def test_json_report_shape(capsys):
    assert main(["--requests", "400", "--clone-factors", "2",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == []
    (result,) = report["results"]
    assert result["clone_factor"] == 2
    assert result["requests"] == 400
    assert result["completed"] + result["failed"] \
        + result["timed_out"] == 400
    assert result["fingerprint"]


def test_parallel_sweep_prints_the_serial_json(capsys):
    # --parallel fans the clone factors out to forked workers; each
    # factor is its own seeded simulation, so the report must not move.
    argv = ["--requests", "600", "--clone-factors", "1,2", "--json"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--parallel", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert len(json.loads(serial)["results"]) == 2


def test_workload_choices_cover_the_request_shapes(capsys):
    assert main(["--requests", "200", "--clone-factors", "1",
                 "--workload", "nginx"]) == 0
    assert "workload=nginx" in capsys.readouterr().out


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
# regression: `fleet storm` must fingerprint even on total loss
# ----------------------------------------------------------------------

def test_shell_storm_total_loss_still_fingerprints(shell):
    # Killing every host used to raise before the report existed; a
    # total-loss storm must still run to completion and print the
    # sha256 fingerprint of its (all-failures) outcome.
    shell.execute("fleet storm 2 2")
    text = output_of(shell)
    assert "hosts killed: 2" in text
    assert "fingerprint: " in text
    fingerprint = text.split("fingerprint: ")[1].split()[0]
    assert len(fingerprint) == 64


def test_module_cli_total_loss_exits_zero(capsys):
    from repro.fleet.cli import main as fleet_main

    assert fleet_main(["--hosts", "2", "--kills", "2", "--runs", "2"]) == 0
    out = capsys.readouterr().out
    assert "hosts killed: 2" in out
    assert "fingerprint" in out


def test_kill_plan_still_rejects_more_kills_than_hosts():
    from repro.errors import ReproError
    from repro.fleet import kill_plan

    with pytest.raises(ReproError):
        kill_plan(7, hosts=2, kills=3)
    # The boundary case is legal now.
    plan = kill_plan(7, hosts=2, kills=2)
    assert plan is not None
