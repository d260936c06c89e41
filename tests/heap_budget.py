"""Per-clone heap of the ``clone_burst`` parent, per-span heap of a full
span ring, and their pinned budgets.

Kept apart from the pytest module so the budgets can be re-measured on
any interpreter, with or without pytest installed::

    PYTHONPATH=src python -m tests.heap_budget

Counts are deterministic per interpreter, so a budget gives the same
verdict on any machine.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

from repro import DomainConfig, NepheleSession, P9Config, Platform, VifConfig
from repro.apps.udp_server import UdpServerApp
from repro.guest.api import Region
from repro.sim.units import GIB, PAGE_SIZE

SEED = 0xC10E

#: (gc-tracked objects, tracemalloc bytes) per clone of the clone_burst
#: parent, per CPython minor version: the measured value plus 2 objects
#: and plus 3% bytes (measured: 81 / 12,489 on 3.10.13, 68 / 10,819 on
#: 3.11.7, 68 / 10,602 on 3.12.1).
BUDGETS = {
    (3, 10): (83, 12_863),
    (3, 11): (70, 11_143),
    (3, 12): (70, 10_920),
}


#: Tracemalloc bytes per span held by a full span ring, per CPython
#: minor version: the measured value plus 3% (measured: 111.9 on
#: 3.10.13, 112.3 on 3.11.7, 111.9 on 3.12.1; a ring of ``Span``
#: objects held 341 / 313 / 313).
SPAN_BUDGETS = {
    (3, 10): 116,
    (3, 11): 116,
    (3, 12): 116,
}


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


def per_span_heap() -> float:
    """Tracemalloc bytes per span held by a full span ring.

    A traced session in the ``clone_churn`` shape (an 8 MiB parent with
    a vif and a 9pfs mount; rounds of 8 clones, a 64-page COW write in
    each, one cold boot, then every one destroyed) runs until its
    default 16,384-span ring has evicted; the bytes that clearing the
    ring frees, over its capacity, are what a span costs to keep.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        with NepheleSession(seed=SEED) as session:
            ring = session.tracer.ring
            parent = session.boot("fn", memory_mb=8, ip="10.0.2.1",
                                  p9fs=[P9Config()], max_clones=1_000_000)
            rounds = 0
            while not ring.evicted:
                children = session.clone(parent, count=8)
                for index, domid in enumerate(children):
                    vm = session.domain(domid).guest
                    heap = Region(vm.heap_base_pfn, vm.heap_npages,
                                  vm.heap_npages * PAGE_SIZE)
                    vm.api.touch(heap, npages=64, offset_pages=8 * index)
                cold = session.boot(f"cold{rounds}", memory_mb=8,
                                    ip="10.0.3.1", p9fs=[P9Config()])
                for domid in [*children, cold.domid]:
                    session.destroy(domid)
                rounds += 1
        del parent, children, vm, heap, cold, session
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        ring.clear()
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        if not tracing:
            tracemalloc.stop()
    return held / ring.capacity


if __name__ == "__main__":  # pragma: no cover - budget re-measurement
    version = sys.version_info[:2]
    objects, held = per_clone_heap()
    print("%s objects/clone %.2f bytes/clone %.1f budget %s"
          % (sys.version.split()[0], objects, held, BUDGETS.get(version)))
    print("%s bytes/span %.1f budget %s"
          % (sys.version.split()[0], per_span_heap(),
             SPAN_BUDGETS.get(version)))
