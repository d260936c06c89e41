"""Tests: the xl-style CLI shell."""

import io

import pytest

from repro.cli import CliError, XlShell
from repro.scenarios import SCENARIOS


@pytest.fixture
def shell(platform, tmp_path):
    return XlShell(platform, out=io.StringIO())


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "guest.cfg"
    path.write_text("""
        name = 'cli-guest'
        memory = 4
        kernel = 'minios-udp'
        vif = ['ip=10.0.1.1']
        max_clones = 8
    """)
    return str(path)


def output_of(shell: XlShell) -> str:
    return shell.out.getvalue()


def test_create_and_list(shell, cfg_file):
    shell.execute(f"create {cfg_file}")
    shell.execute("list")
    text = output_of(shell)
    assert "created 'cli-guest'" in text
    assert "cli-guest" in text


def test_clone_by_name(shell, cfg_file):
    shell.execute(f"create {cfg_file}")
    shell.execute("clone cli-guest 2")
    assert shell.platform.guest_count() == 3
    assert "cloned 2x" in output_of(shell)


def test_destroy_by_domid(shell, cfg_file):
    shell.execute(f"create {cfg_file}")
    domid = shell.platform.xl.list_domains()[0][0]
    shell.execute(f"destroy {domid}")
    assert shell.platform.guest_count() == 0


def test_info_shows_family(shell, cfg_file):
    shell.execute(f"create {cfg_file}")
    shell.execute("clone cli-guest")
    shell.execute("info cli-guest")
    text = output_of(shell)
    assert "cloning        enabled (max 8, created 1)" in text
    assert "children       [2]" in text


def test_save_restore(shell, cfg_file):
    shell.execute(f"create {cfg_file}")
    shell.execute("save cli-guest snap1")
    assert shell.platform.guest_count() == 0
    shell.execute("restore snap1")
    assert shell.platform.guest_count() == 1
    assert "restored 'cli-guest'" in output_of(shell)


def test_restore_unknown_tag(shell):
    with pytest.raises(CliError):
        shell.execute("restore nope")


def test_unknown_command(shell):
    with pytest.raises(CliError):
        shell.execute("frobnicate")


def test_resolve_errors(shell):
    with pytest.raises(CliError):
        shell.execute("destroy ghost")
    with pytest.raises(CliError):
        shell.execute("destroy 424242")


def test_mem_and_clock(shell):
    shell.execute("mem")
    shell.execute("clock")
    text = output_of(shell)
    assert "hypervisor free" in text
    assert "virtual time" in text


def test_quit_stops_execution(shell):
    assert shell.execute("quit") is False
    assert shell.execute("exit") is False
    assert shell.execute("list") is True


def test_scripted_session(platform, cfg_file):
    out = io.StringIO()
    shell = XlShell(platform, out=out)
    script = io.StringIO(
        f"create {cfg_file}\n"
        "clone cli-guest 3\n"
        "list\n"
        "mem\n"
        "quit\n"
        "list\n"  # never reached
    )
    status = shell.run(script)
    assert status == 0
    assert platform.guest_count() == 4
    assert out.getvalue().count("cli-guest") >= 4


def test_script_errors_set_status_but_continue(platform, cfg_file):
    out = io.StringIO()
    shell = XlShell(platform, out=out)
    script = io.StringIO(
        "destroy ghost\n"
        f"create {cfg_file}\n"
    )
    status = shell.run(script)
    assert status == 1
    assert platform.guest_count() == 1
    assert "error:" in out.getvalue()


def test_comments_and_blank_lines_ignored(shell):
    assert shell.execute("# a comment") is True
    assert shell.execute("   ") is True


def test_console_command(shell, cfg_file):
    shell.execute(f"create {cfg_file}")
    domain = shell.platform.hypervisor.get_domain(1)
    domain.guest.api.console("boot message")
    shell.execute("console cli-guest")
    assert "boot message" in output_of(shell)


def test_console_missing_domain(shell):
    with pytest.raises(CliError):
        shell.execute("console ghost")


def test_pause_unpause_commands(shell, cfg_file):
    shell.execute(f"create {cfg_file}")
    shell.execute("pause cli-guest")
    domain = shell.platform.hypervisor.get_domain(1)
    assert domain.state.value == "paused"
    shell.execute("unpause 1")
    assert domain.state.value == "running"


def test_vcpu_pin_command(shell, cfg_file):
    shell.execute(f"create {cfg_file}")
    shell.execute("vcpu-pin cli-guest 0 1,2")
    domain = shell.platform.hypervisor.get_domain(1)
    assert domain.vcpus[0].affinity == frozenset({1, 2})


def test_vcpu_pin_bad_args(shell, cfg_file):
    shell.execute(f"create {cfg_file}")
    with pytest.raises(CliError):
        shell.execute("vcpu-pin cli-guest zero 1")
    with pytest.raises(CliError):
        shell.execute("vcpu-pin cli-guest")


# ----------------------------------------------------------------------
# the trace command
# ----------------------------------------------------------------------
@pytest.fixture
def traced_shell():
    """A shell on its own default (traced) platform."""
    return XlShell(out=io.StringIO())


def test_default_shell_platform_is_traced(traced_shell):
    assert traced_shell.platform.tracer.enabled


def test_trace_summary(traced_shell, cfg_file):
    traced_shell.execute(f"create {cfg_file}")
    traced_shell.execute("trace")
    text = output_of(traced_shell)
    assert "stage" in text
    assert "boot.xl_create" in text


def test_trace_spans_lists_and_filters(traced_shell, cfg_file):
    traced_shell.execute(f"create {cfg_file}")
    traced_shell.execute("clone cli-guest")
    traced_shell.execute("trace spans clone.op")
    text = output_of(traced_shell)
    assert "clone.op" in text
    assert "boot.xl_create" not in text.rsplit("cloned 1x", 1)[1]


def test_trace_export_writes_json(traced_shell, cfg_file, tmp_path):
    import json

    traced_shell.execute(f"create {cfg_file}")
    traced_shell.execute("clone cli-guest")
    path = tmp_path / "run.json"
    traced_shell.execute(f"trace export {path}")
    report = json.loads(path.read_text())
    kinds = {span["kind"] for span in report["spans"]}
    assert len(kinds) >= 5
    assert "wrote" in output_of(traced_shell)


def test_trace_reset(traced_shell, cfg_file):
    traced_shell.execute(f"create {cfg_file}")
    traced_shell.execute("trace reset")
    traced_shell.execute("trace spans")
    assert "(no spans recorded)" in output_of(traced_shell)


def test_trace_on_untraced_platform(shell):
    shell.execute("trace")
    assert "tracing disabled" in output_of(shell)


def test_trace_bad_subcommand(traced_shell):
    with pytest.raises(CliError):
        traced_shell.execute("trace bogus")
    with pytest.raises(CliError):
        traced_shell.execute("trace export")


def test_trace_in_help(traced_shell):
    traced_shell.execute("help")
    assert "trace export" in output_of(traced_shell)


# ----------------------------------------------------------------------
# the fleet command
# ----------------------------------------------------------------------
def test_fleet_policies(shell):
    shell.execute("fleet policies")
    text = output_of(shell)
    assert "round-robin" in text
    assert "least-loaded" in text


def test_fleet_storm_runs_clean(shell, cfg_file):
    shell.execute(f"create {cfg_file}")
    before = shell.platform.guest_count()
    shell.execute("storm fleet-chaos")
    text = output_of(shell)
    assert "hosts: 4" in text
    assert "hosts_killed: 2" in text
    assert "violations: 0" in text
    assert f"fingerprint: {SCENARIOS['fleet-chaos'].pin}" in text
    # The storm is self-contained: the shell's platform is untouched.
    assert shell.platform.guest_count() == before


def test_fleet_bad_args(shell):
    with pytest.raises(CliError):
        shell.execute("fleet bogus")
    with pytest.raises(CliError):
        shell.execute("fleet")
    with pytest.raises(CliError):
        shell.execute("fleet policies extra")
    with pytest.raises(CliError):
        shell.execute("storm")
    with pytest.raises(CliError):
        shell.execute("storm bogus")


def test_fleet_in_help(shell):
    shell.execute("help")
    assert "fleet policies" in output_of(shell)
    assert "storm <name>" in output_of(shell)
