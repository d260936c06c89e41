"""Tests: the NepheleSession facade and the traced clone path."""

import pytest

from repro import NepheleSession, ReproError, SessionError
from repro.apps.udp_server import UdpServerApp


@pytest.fixture
def session():
    with NepheleSession() as active:
        yield active


def boot_parent(session: NepheleSession, max_clones: int = 16):
    return session.boot("udp0", kernel="minios-udp", ip="10.0.1.1",
                        max_clones=max_clones, app=UdpServerApp())


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def test_session_boots_and_resolves_by_name_or_domid(session):
    parent = boot_parent(session)
    assert session.domain("udp0") is parent
    assert session.domain(parent.domid) is parent
    assert session.domain(parent) is parent
    assert parent in session.domains()


def test_unknown_name_raises_session_error(session):
    with pytest.raises(SessionError):
        session.domain("nope")


def test_boot_accepts_prebuilt_config(session):
    from repro import DomainConfig

    domain = session.boot(DomainConfig(name="cfg", memory_mb=8))
    assert domain.name == "cfg"
    assert domain.config.memory_mb == 8


def test_clone_and_destroy_verbs(session):
    parent = boot_parent(session)
    children = session.clone("udp0", count=2)
    assert len(children) == 2
    assert session.hypervisor.get_domain(children[0]).parent_id \
        == parent.domid
    session.destroy(children[0])
    assert children[0] not in session.hypervisor.domains


def test_clone_from_guest_uses_cloneop(session):
    boot_parent(session)
    (child,) = session.clone("udp0", from_guest=True)
    assert session.domain(child).parent_id == session.domain("udp0").domid


def test_save_restore_round_trip(session):
    boot_parent(session)
    image = session.save("udp0")
    assert "udp0" not in [d.name for d in session.domains()]
    restored = session.restore(image)
    assert restored.name == "udp0"


def test_exit_checks_invariants_once():
    with NepheleSession() as active:
        boot_parent(active)
        platform = active.platform
    active.close()  # second close is a no-op
    assert platform.guest_count() == 1


def test_snapshot_reports_guests(session):
    boot_parent(session)
    session.clone("udp0")
    snap = session.snapshot()
    assert snap.clones == 1
    assert snap.clone_operations == 1
    assert snap.virtual_time_ms == session.now


def test_same_seed_sessions_in_one_process_build_the_same_xenstore():
    """Extent ids reach Xenstore as ``store/ring-ref``; they are drawn
    per host, so a second session of the same seed in the same process
    builds the same tree, not one with the first session's ids added."""
    def tree() -> list[tuple[str, str]]:
        with NepheleSession(seed=7) as active:
            parent = boot_parent(active)
            active.clone(parent, count=2)
            return active.xenstore.walk("/")

    first = tree()
    assert ("/local/domain/1/store/ring-ref", "5") in first
    assert tree() == first


def test_platform_knobs_pass_through():
    with NepheleSession(cpus=8, use_xs_clone=False) as active:
        assert active.hypervisor.cpus == 8
        assert active.config.use_xs_clone is False
        assert active.clock is active.platform.clock


# ----------------------------------------------------------------------
# tracing through the facade
# ----------------------------------------------------------------------
def test_session_traces_by_default(session):
    assert session.tracer.enabled
    boot_parent(session)
    assert "boot.xl_create" in session.tracer.kinds()


def test_trace_report_on_untraced_session():
    with NepheleSession(trace=False) as active:
        assert not active.tracer.enabled
        assert "disabled" in active.trace_report()
        with pytest.raises(SessionError):
            active.trace_export()


def test_traced_clone_stage_durations_sum_to_elapsed(session):
    """First-stage + second-stage (+ bookkeeping) spans partition the
    clone's virtual elapsed time exactly."""
    boot_parent(session)
    tracer = session.tracer
    tracer.reset()
    t0 = session.now
    session.clone("udp0", count=3, from_guest=True)
    elapsed = session.now - t0

    (op,) = tracer.spans("clone.op")
    assert op.duration_ms == pytest.approx(elapsed, abs=1e-9)

    first_stages = tracer.spans("clone.first_stage")
    second_stages = tracer.spans("clone.second_stage")
    assert len(first_stages) == 3
    assert len(second_stages) == 3
    stages = (tracer.spans("clone.prepare") + first_stages
              + tracer.spans("clone.handoff") + tracer.spans("clone.wakeup")
              + tracer.spans("clone.resume"))
    assert sum(s.duration_ms for s in stages) == pytest.approx(elapsed,
                                                               abs=1e-9)
    # Second stages run inside the batch's coalesced wake-up, so they
    # are already counted.
    (wakeup,) = tracer.spans("clone.wakeup")
    for second in second_stages:
        assert second.parent_id == wakeup.span_id


def test_traced_clone_covers_all_layers(session, tmp_path):
    """A traced boot+clone run exports spans from the hypervisor,
    xencloned, Xenstore, toolstack and device layers."""
    boot_parent(session)
    session.clone("udp0", count=2)
    path = tmp_path / "report.json"
    report = session.trace_export(str(path), run="integration")
    assert path.exists()
    kinds = {span["kind"] for span in report["spans"]}
    assert len(kinds) >= 5
    for expected in ("clone.first_stage",        # hypervisor
                     "clone.second_stage",       # xencloned
                     "xenstore.xs_clone",        # xenstore
                     "boot.xl_create",           # toolstack
                     "vif.clone_shortcut"):      # device backends
        assert expected in kinds
    assert report["meta"]["run"] == "integration"
    assert report["counters"]["clone.children"] == 2


def test_trace_counters_follow_clones(session):
    boot_parent(session)
    session.clone("udp0", count=2)
    counters = session.trace_export()["counters"]
    assert counters["clone.ops"] == 1
    assert counters["clone.second_stages"] == 2
    assert counters["boot.creates"] == 1
    assert counters["xenstore.requests"] > 0


# ----------------------------------------------------------------------
# the unified exception hierarchy
# ----------------------------------------------------------------------
def test_every_layer_error_is_a_repro_error():
    from repro.cli import CliError
    from repro.core.cloneop import CloneOpError
    from repro.core.notify_ring import RingFullError
    from repro.devices.hostfs import HostFSError
    from repro.devices.p9 import P9Error
    from repro.idc.mqueue import MqueueError
    from repro.idc.pipe import PipeClosedError
    from repro.kvm.clone import KvmCloneError
    from repro.sim.clock import ClockError
    from repro.toolstack.config import ConfigError
    from repro.toolstack.xl import ToolstackError
    from repro.xen.errors import XenError
    from repro.xenstore.store import XenstoreError

    for error_type in (CliError, CloneOpError, ClockError, ConfigError,
                       HostFSError, KvmCloneError, MqueueError, P9Error,
                       PipeClosedError, RingFullError, SessionError,
                       ToolstackError, XenError, XenstoreError):
        assert issubclass(error_type, ReproError), error_type


def test_session_error_catchable_as_repro_error(session):
    with pytest.raises(ReproError):
        session.domain("missing")
