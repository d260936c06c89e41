"""Per-clone heap and lifetime: a clone holds only what it cannot share,
an extent only its four fields, a kept span only its packed record,
and a destroyed domain -- or a closed session's whole platform -- is
freed by reference count, not by the cyclic collector.

The per-clone, per-extent and per-span measurements and their budgets
live in ``tests.heap_budget``, which runs without pytest.
"""

from __future__ import annotations

import gc
import sys
import weakref

import pytest

from repro import FleetSession, NepheleSession, P9Config
from repro.apps.udp_server import UdpServerApp
from repro.kvm.platform import KvmPlatform
from repro.sim.units import GIB, MIB
from tests.heap_budget import (
    BUDGETS,
    EXTENT_BUDGETS,
    P9FS_BUDGETS,
    SPAN_BUDGETS,
    fresh,
    per_span_heap,
)


@pytest.fixture
def gc_off():
    """Collect once, then keep the cyclic collector off for the test."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _attachments(domain) -> list[tuple[str, weakref.ref]]:
    """Weak references to a domain and everything hanging off it."""
    refs = [("domain", weakref.ref(domain))]
    if domain.guest is not None:
        refs.append(("guest", weakref.ref(domain.guest)))
        refs.append(("api", weakref.ref(domain.guest.api)))
    for frontend in domain.frontends:
        kind = frontend.device_class
        refs.append((kind, weakref.ref(frontend)))
        backend = getattr(frontend, "backend", None)
        if backend is not None:
            refs.append((f"{kind} backend", weakref.ref(backend)))
    return refs


def _assert_dead(refs: list[tuple[str, weakref.ref]]) -> None:
    alive = [name for name, ref in refs if ref() is not None]
    assert alive == [], f"still alive after destroy: {alive}"


def _assert_no_cyclic_garbage() -> None:
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    found = sorted({type(obj).__name__ for obj in gc.garbage})
    assert gc.garbage == [], f"cyclic garbage left behind: {found}"


def test_destroyed_clones_die_at_destroy(gc_off):
    with NepheleSession() as session:
        parent = session.boot("p", ip="10.0.1.1", max_clones=16,
                              app=UdpServerApp())
        children = session.clone(parent, count=8)
        for domid in children:
            refs = _attachments(session.domain(domid))
            assert {"domain", "guest", "api", "vif", "vif backend",
                    "console"} <= {name for name, _ in refs}
            session.destroy(domid)
            _assert_dead(refs)
        _assert_no_cyclic_garbage()


def test_destroyed_kvm_clones_die_at_destroy(gc_off):
    kvm = KvmPlatform(memory_bytes=1 * GIB)
    parent = kvm.create_vm("p", 16 * MIB, ip="10.0.5.1",
                           p9_export="/srv/p", max_clones=8,
                           app=UdpServerApp())
    for pid in kvm.clone(parent.pid, count=4):
        vm = kvm.host.get_vm(pid)
        refs = [(name, weakref.ref(obj)) for name, obj in (
            ("vm", vm), ("tap", vm.net), ("9p", vm.p9), ("api", vm.api))]
        del vm
        kvm.destroy(pid)
        _assert_dead(refs)
    _assert_no_cyclic_garbage()


def test_destroyed_cold_boot_with_vif_and_9pfs_dies_at_destroy(gc_off):
    with NepheleSession() as session:
        domain = session.boot("cold", memory_mb=8, ip="10.0.3.1",
                              p9fs=[P9Config()], app=UdpServerApp())
        refs = _attachments(domain)
        assert {"vif", "vif backend", "9pfs", "console"} <= {
            name for name, _ in refs}
        domid = domain.domid
        del domain
        session.destroy(domid)
        _assert_dead(refs)
        _assert_no_cyclic_garbage()


def test_closed_session_platform_dies_at_close(gc_off):
    session = NepheleSession()
    parent = session.boot("p", ip="10.0.1.1", max_clones=16,
                          app=UdpServerApp())
    session.clone(parent, count=4)
    del parent
    platform = weakref.ref(session.platform)
    session.close()
    del session
    assert platform() is None, "closed session's platform still alive"
    _assert_no_cyclic_garbage()


@pytest.mark.parametrize("dispatch", [False, True])
def test_closed_fleet_session_dies_at_close(gc_off, dispatch):
    session = FleetSession(hosts=2)
    session.create_family("f", ip="10.9.0.1")
    session.clone("f", count=2)
    if dispatch:
        result = session.dispatch("f", "faas", requests=200,
                                  arrival_rps=100.0, clone_factor=2)
        assert result.completed == 200
        del result
    refs = [(host.name, weakref.ref(host.platform))
            for host in session.fleet.hosts]
    refs += [("fleet", weakref.ref(session.fleet)),
             ("frontdoor", weakref.ref(session.frontdoor))]
    session.close()
    del session
    _assert_dead(refs)
    _assert_no_cyclic_garbage()


def _assert_per_clone_heap_within(budgets: dict, p9fs: bool) -> None:
    # Measured in a fresh interpreter: in this long-lived one a
    # process-wide table may resize inside the window (see ``fresh``).
    objects, held = fresh("per_clone_heap", p9fs)
    max_objects, max_bytes = budgets[sys.version_info[:2]]
    assert objects <= max_objects, f"{objects:.2f} objects per clone"
    assert held <= max_bytes, f"{held:.0f} bytes per clone"


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info[:2] not in BUDGETS,
                    reason="budgets are pinned for CPython 3.10-3.13")
def test_per_clone_heap_budget():
    _assert_per_clone_heap_within(BUDGETS, p9fs=False)


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info[:2] not in P9FS_BUDGETS,
                    reason="budgets are pinned for CPython 3.10-3.13")
def test_per_clone_heap_budget_with_9pfs():
    """The clone_churn/FaaS shape: its 9pfs directories are overlaid
    like the vif and console ones."""
    _assert_per_clone_heap_within(P9FS_BUDGETS, p9fs=True)


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info[:2] not in EXTENT_BUDGETS,
                    reason="budgets are pinned for CPython 3.10-3.13")
def test_per_extent_heap_budget():
    """A private extent is its four slots: no id, no label, no flags."""
    held = fresh("per_extent_heap")
    assert held <= EXTENT_BUDGETS[sys.version_info[:2]], (
        f"{held:.1f} bytes per extent")


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info[:2] not in SPAN_BUDGETS,
                    reason="budgets are pinned for CPython 3.10-3.13")
def test_per_span_heap_budget():
    held = per_span_heap()
    assert held <= SPAN_BUDGETS[sys.version_info[:2]], (
        f"{held:.1f} bytes per span")
