"""Per-clone heap and lifetime: a clone holds only what it cannot share,
and a destroyed domain is freed by reference count, not by the cyclic
collector.

Counts are deterministic per interpreter, so the budgets below give the
same verdict on any machine.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
import weakref

import pytest

from repro import DomainConfig, NepheleSession, P9Config, Platform, VifConfig
from repro.apps.udp_server import UdpServerApp
from repro.sim.units import GIB

SEED = 0xC10E

#: (gc-tracked objects, tracemalloc bytes) per clone of the clone_burst
#: parent, per CPython minor version: the measured value plus 2 objects
#: and plus 3% bytes (measured: 97 / 15,103 on 3.10.13, 83 / 13,267 on
#: 3.11.7, 83 / 12,938 on 3.12.1).
BUDGETS = {
    (3, 10): (99, 15_556),
    (3, 11): (85, 13_665),
    (3, 12): (85, 13_327),
}


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
    for kind, frontends in domain.frontends.items():
        for frontend in frontends:
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


def per_clone_heap(warmup: int = 20, clones: int = 200) -> tuple[float, float]:
    """(gc-tracked objects, tracemalloc bytes) held per clone of the
    ``clone_burst`` parent: a 4 MiB minios-udp guest with one vif on an
    8 GiB host, cloned ``warmup`` times before measuring."""
    platform = Platform.create(total_memory_bytes=8 * GIB,
                               dom0_memory_bytes=4 * GIB, seed=SEED)
    config = DomainConfig(
        name="burst", memory_mb=4, kernel="minios-udp",
        vifs=[VifConfig(ip=f"10.{1 + SEED % 250}.0.1")],
        max_clones=10_000_000)
    parent = platform.xl.create(config, app=UdpServerApp()).domid
    clone = platform.cloneop.clone
    for _ in range(warmup):
        clone(parent, count=1)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        gc.collect()
        objects = len(gc.get_objects())
        held = tracemalloc.get_traced_memory()[0]
        for _ in range(clones):
            clone(parent, count=1)
        gc.collect()
        objects = len(gc.get_objects()) - objects
        held = tracemalloc.get_traced_memory()[0] - held
    finally:
        if not tracing:
            tracemalloc.stop()
    return objects / clones, held / clones


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info[:2] not in BUDGETS,
                    reason="budgets are pinned for CPython 3.10-3.12")
def test_per_clone_heap_budget():
    objects, held = per_clone_heap()
    max_objects, max_bytes = BUDGETS[sys.version_info[:2]]
    assert objects <= max_objects, f"{objects:.2f} objects per clone"
    assert held <= max_bytes, f"{held:.0f} bytes per clone"


if __name__ == "__main__":  # pragma: no cover - budget re-measurement
    print("%s objects/clone %.2f bytes/clone %.1f"
          % (sys.version.split()[0], *per_clone_heap()))
