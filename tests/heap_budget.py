"""Per-clone heap of two parent shapes, per-extent heap of the frame
table, per-span heap of a full span ring, and their pinned budgets.

Kept apart from the pytest module so the budgets can be re-measured on
any interpreter, with or without pytest installed::

    PYTHONPATH=src python -m tests.heap_budget

prints, per shape, the figures next to their budgets and the source
files that hold the most bytes per clone, then the per-extent and
per-span figures next to theirs. Counts are deterministic per
interpreter in a fresh process, so a budget gives the same verdict on
any machine; :func:`fresh` runs a measurement in one.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import tracemalloc

from repro import DomainConfig, NepheleSession, P9Config, Platform, VifConfig
from repro.apps.udp_server import UdpServerApp
from repro.guest.api import Region
from repro.sim.units import GIB, PAGE_SIZE
from repro.xen.frames import FrameTable

SEED = 0xC10E

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: (gc-tracked objects, tracemalloc bytes) per clone of the clone_burst
#: parent (one vif), per CPython minor version: the measured value
#: (a fractional object count rounded up) plus 2 objects and plus 3%
#: bytes (measured: 53.99 / 6,092.4 on 3.10.13, 53 / 5,789.7 on 3.11.7,
#: 53 / 5,781.6 on 3.12.1, 52.98 / 5,789.6 on 3.13.0).
BUDGETS = {
    (3, 10): (56, 6_275),
    (3, 11): (55, 5_963),
    (3, 12): (55, 5_955),
    (3, 13): (55, 5_963),
}

#: The same per clone of a parent with a vif and a 9pfs mount, the
#: clone_churn/FaaS shape (measured: 62.99 / 7,277.9 on 3.10.13,
#: 61 / 6,808.6 on 3.11.7, 61 / 6,792.5 on 3.12.1, 60.98 / 6,808.6 on
#: 3.13.0).
P9FS_BUDGETS = {
    (3, 10): (65, 7_496),
    (3, 11): (63, 7_012),
    (3, 12): (63, 6_996),
    (3, 13): (63, 7_012),
}


#: Tracemalloc bytes per private one-page extent, per CPython minor
#: version: the measured value plus 3% (measured: 64.1 on 3.10.13, 64.0
#: on 3.11.7, 3.12.1 and 3.13.0; an extent with an id and nine fields
#: held 131.4 / 131.3 / 131.3 on 3.10-3.12).
EXTENT_BUDGETS = {
    (3, 10): 66,
    (3, 11): 66,
    (3, 12): 66,
    (3, 13): 66,
}

#: Tracemalloc bytes per span held by a full span ring, per CPython
#: minor version: the measured value plus 3% (measured: 111.9 on
#: 3.10.13, 112.3 on 3.11.7, 111.9 on 3.12.1, 111.3 on 3.13.0; a ring
#: of ``Span`` objects held 341 / 313 / 313 on 3.10-3.12).
SPAN_BUDGETS = {
    (3, 10): 116,
    (3, 11): 116,
    (3, 12): 116,
    (3, 13): 115,
}


def clone_parent(p9fs: bool):
    """The cloned parent: a 4 MiB minios-udp guest with one vif (and a
    9pfs mount if ``p9fs``) on an 8 GiB host. Returns the clone call
    and the parent's domid."""
    platform = Platform.create(total_memory_bytes=8 * GIB,
                               dom0_memory_bytes=4 * GIB, seed=SEED)
    config = DomainConfig(
        name="burst", memory_mb=4, kernel="minios-udp",
        vifs=[VifConfig(ip=f"10.{1 + SEED % 250}.0.1")],
        p9fs=[P9Config()] if p9fs else [], max_clones=10_000_000)
    parent = platform.xl.create(config, app=UdpServerApp()).domid
    return platform.cloneop.clone, parent


def per_clone_heap(p9fs: bool = False, warmup: int = 20,
                   clones: int = 200) -> tuple[float, float]:
    """(gc-tracked objects, tracemalloc bytes) held per clone of the
    ``clone_burst`` parent (with a 9pfs mount too if ``p9fs``), cloned
    ``warmup`` times before measuring."""
    clone, parent = clone_parent(p9fs)
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


def per_clone_files(p9fs: bool = False, top: int = 6, warmup: int = 20,
                    clones: int = 200) -> list[tuple[str, float]]:
    """The ``top`` source files by tracemalloc bytes held per clone, as
    (path below ``src/``, bytes) pairs: where :func:`per_clone_heap`'s
    bytes go."""
    clone, parent = clone_parent(p9fs)
    for _ in range(warmup):
        clone(parent, count=1)
    own = [tracemalloc.Filter(False, tracemalloc.__file__)]
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.take_snapshot().filter_traces(own)
        for _ in range(clones):
            clone(parent, count=1)
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(own)
    finally:
        tracemalloc.stop()
    stats = sorted(after.compare_to(before, "filename"),
                   key=lambda stat: -stat.size_diff)[:top]
    return [(os.path.relpath(stat.traceback[0].filename, SRC),
             stat.size_diff / clones) for stat in stats]


def per_clone_containers(p9fs: bool = False, warmup: int = 20,
                         clones: int = 200) -> dict[str, list]:
    """What :func:`per_clone_heap`'s objects are, per clone.

    ``"types"``: (type name, gc-tracked objects) pairs. ``"owners"``:
    (owner, type name, containers, ``sys.getsizeof`` bytes) for every
    gc-tracked list, dict and tuple (subclasses included), where the
    owner is the ``Class.slot`` that holds it, ``<owner>[]`` for a
    container held by another container, or ``?`` when nothing new
    holds it. Unlike :func:`per_clone_files`, which files a
    free-list-reused object under the line that first allocated it,
    this names what holds each container now. A tuple of atomic values
    (ints, strings) is not gc-tracked, so it is in neither list.
    """
    clone, parent = clone_parent(p9fs)
    for _ in range(warmup):
        clone(parent, count=1)
    gc.collect()
    before = gc.get_objects()
    known = {id(obj) for obj in before}
    known.add(id(before))
    for _ in range(clones):
        clone(parent, count=1)
    gc.collect()
    new = [obj for obj in gc.get_objects()
           if id(obj) not in known and obj is not known]
    types: dict[str, int] = {}
    for obj in new:
        name = type(obj).__name__
        types[name] = types.get(name, 0) + 1
    containers = {id(obj): obj for obj in new
                  if isinstance(obj, (list, dict, tuple))}
    owner: dict[int, str] = {}
    for obj in new:
        cls = type(obj)
        if isinstance(obj, (list, dict, tuple)):
            continue
        for klass in cls.__mro__:
            for slot in klass.__dict__.get("__slots__", ()):
                value = getattr(obj, slot, None)
                if id(value) in containers:
                    owner.setdefault(id(value), f"{cls.__name__}.{slot}")
        if hasattr(obj, "__dict__") and id(obj.__dict__) in containers:
            owner.setdefault(id(obj.__dict__), f"{cls.__name__}.__dict__")
    for _ in range(3):  # containers held by named containers
        for key, obj in containers.items():
            if key not in owner:
                continue
            items = obj.values() if isinstance(obj, dict) else obj
            for item in items:
                if id(item) in containers:
                    owner.setdefault(id(item), f"{owner[key]}[]")
    rows: dict[tuple[str, str], list] = {}
    for key, obj in containers.items():
        row = rows.setdefault((owner.get(key, "?"), type(obj).__name__),
                              [0, 0])
        row[0] += 1
        row[1] += sys.getsizeof(obj)
    return {
        "types": sorted(((name, count / clones)
                         for name, count in types.items()),
                        key=lambda row: (-row[1], row[0])),
        "owners": sorted(((name, kind, count / clones, size / clones)
                          for (name, kind), (count, size) in rows.items()),
                         key=lambda row: (-row[3], row[0], row[1])),
    }


def per_extent_heap(extents: int = 10_000) -> float:
    """Tracemalloc bytes per private one-page extent that
    ``FrameTable.alloc`` hands out, kept in a list allocated
    beforehand."""
    table = FrameTable(extents)
    held = [None] * extents
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(extents):
            held[index] = table.alloc(1, 1)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        if not tracing:
            tracemalloc.stop()
    return (after - before) / extents


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


def fresh(function: str, *args):
    """``function(*args)`` of this module, run in a new interpreter.

    The per-clone figures repeat exactly only in a fresh process: in a
    long-lived one, a process-wide table can resize inside the measured
    window. On 3.11.7 a second measurement in one process caught a
    resize of the interned-string dict (a new platform's clones intern
    their domids again): 2,075 B more per clone, once.
    """
    code = ("import json, sys\n"
            "from tests import heap_budget\n"
            f"json.dump(heap_budget.{function}(*{args!r}), sys.stdout)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, ROOT]))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


if __name__ == "__main__":  # pragma: no cover - budget re-measurement
    version = sys.version_info[:2]
    python = sys.version.split()[0]
    for shape, p9fs, budgets in (("clone_burst", False, BUDGETS),
                                 ("vif+9pfs", True, P9FS_BUDGETS)):
        objects, held = fresh("per_clone_heap", p9fs)
        print("%s %s objects/clone %.2f bytes/clone %.1f budget %s"
              % (python, shape, objects, held, budgets.get(version)))
        for path, size in fresh("per_clone_files", p9fs):
            print("    %8.1f  %s" % (size, path))
        held_by = fresh("per_clone_containers", p9fs)
        print("  gc-tracked objects per clone, by type:")
        for name, count in held_by["types"]:
            print("    %8.2f  %s" % (count, name))
        print("  lists, dicts and tuples per clone, by owner"
              " (count, sys.getsizeof bytes):")
        for name, kind, count, size in held_by["owners"]:
            print("    %8.2f %8.1f  %-5s  %s" % (count, size, kind, name))
    print("%s bytes/extent %.1f budget %s"
          % (python, fresh("per_extent_heap"), EXTENT_BUDGETS.get(version)))
    print("%s bytes/span %.1f budget %s"
          % (python, per_span_heap(), SPAN_BUDGETS.get(version)))
