"""Per-clone heap of the ``clone_burst`` parent, and its pinned budgets.

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

from repro import DomainConfig, Platform, VifConfig
from repro.apps.udp_server import UdpServerApp
from repro.sim.units import GIB

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


if __name__ == "__main__":  # pragma: no cover - budget re-measurement
    objects, held = per_clone_heap()
    budget = BUDGETS.get(sys.version_info[:2])
    print("%s objects/clone %.2f bytes/clone %.1f budget %s"
          % (sys.version.split()[0], objects, held, budget))
