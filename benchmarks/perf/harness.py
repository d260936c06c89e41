"""Wall-clock benchmark harness for the clone-fleet hot paths.

Times the full-scale Fig 4/5 drivers (the two experiments whose cost is
dominated by the datapath and clone-notify paths) plus a clone-fleet
session, and writes ``BENCH_wallclock.json`` at the repo root. Virtual
results are untouched by definition — the golden determinism guard
(:mod:`benchmarks.perf.golden`) pins every figure series — so this
harness only measures how long the host takes to get there.

Methodology: one process, fixed scenario order, GC disabled around each
timed section (a full collect runs between scenarios instead), and the
minimum over ``--repeat`` runs is reported. Wall seconds are
host-dependent and noisy; the harness therefore also records
``function_calls`` — the cProfile call total of one profiled run, which
is bit-stable for a fixed seed — as the noise-free measure of host-side
work. The ``baseline_*`` values embedded per scenario were produced by
running this same harness on the pre-optimization tree.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.harness            # full scale
    PYTHONPATH=src python -m benchmarks.perf.harness --quick    # CI smoke
    PYTHONPATH=src python -m benchmarks.perf.harness --check-determinism
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform as host_platform
import pstats
import time
from pathlib import Path

OUTPUT_PATH = Path(__file__).resolve().parents[2] / "BENCH_wallclock.json"

#: Payload layout version. Bump when the shape of BENCH_wallclock.json
#: changes; the perf gate (:mod:`benchmarks.perf.gate`) refuses to
#: compare against a payload of a different major shape.
SCHEMA_VERSION = 2

#: Same-harness measurements of the tree at the parent commit (see
#: module docstring): scenario -> {scale -> (seconds, function calls)}.
BASELINES: dict[str, dict[str, tuple[float, int]]] = {
    "fig5_density": {"full": (8.949, 48_720_177),
                     "quick": (0.390, 1_839_358)},
    "fig4_instantiation_1000": {"full": (3.380, 16_058_933),
                                "quick": (0.207, 889_137)},
    "clone_fleet": {"full": (0.838, 4_252_727),
                    "quick": (0.104, 531_597)},
    "xenstore_deep_clone": {"full": (0.460, 1_588_219),
                            "quick": (0.035, 116_289)},
    # The pre-virtual-time front door (per-job-decrement PS servers,
    # engine-event departures), measured on the same 1,071,875-request
    # megascale sweep / CI-sized quick sweep as the scenario below.
    "frontdoor_p99": {"full": (146.404, 877_760_639),
                      "quick": (0.269, 1_415_983)},
}

#: Per-scenario regression floors, enforced by the perf gate.
#:
#: ``work_reduction`` floors are tight: the profiled call count is
#: bit-stable for a fixed seed, so any drop is a real regression.
#: ``speedup`` floors are set below the robustly-achieved wall-clock
#: ratio (best-of-N over several processes) because wall seconds on a
#: shared CI box swing by 20-30%. The fig5 floor meets the issue's
#: 1.8x target; clone_fleet robustly achieves ~1.6x against its 2.0x
#: target — the remaining profile is flat (no frame above 4%), so the
#: floor pins what is actually held rather than the aspiration.
#:
#: ``kvm_clone_burst`` is gated on same-seed determinism next to the
#: Xen golden guard; ``fleet_migration`` and ``frontdoor_overload``
#: carry no floors yet and are gated only on the registry pins they
#: assert in their own timed region.
#: Floors are per scale: the wins scale with event count, so quick
#: runs (CI smoke) sit much closer to the seed than full runs.
FLOORS: dict[str, dict[str, dict[str, float]]] = {
    "fig5_density": {
        "full": {"speedup": 1.8, "work_reduction": 3.5},
        "quick": {"speedup": 1.1, "work_reduction": 1.6}},
    "fig4_instantiation_1000": {
        "full": {"speedup": 1.1, "work_reduction": 1.9},
        "quick": {"speedup": 0.9, "work_reduction": 1.05}},
    "clone_fleet": {
        "full": {"speedup": 1.25, "work_reduction": 2.1},
        "quick": {"speedup": 1.2, "work_reduction": 2.0}},
    "xenstore_deep_clone": {
        "full": {"speedup": 8.0, "work_reduction": 12.0},
        "quick": {"speedup": 4.0, "work_reduction": 3.5}},
    # The issue's megascale target is >= 3x wall clock; the full run
    # robustly measures 3.4-3.6x so the floor pins the target itself.
    # Full-scale profiled calls measure 144.0M vs the 877.8M baseline
    # (6.09x, bit-stable) with the one-formula dispatcher; the 5.5x
    # floor was set under the earlier 154.6M (5.68x).
    # The quick sweep is too small for a meaningful wall-clock floor
    # (sub-second, noise-dominated): its speedup floor only catches a
    # return to the seed, while the call-count floor is tight.
    "frontdoor_p99": {
        "full": {"speedup": 3.0, "work_reduction": 5.5},
        "quick": {"speedup": 0.9, "work_reduction": 1.25}},
}


def _fig5(quick: bool):
    from repro.experiments import fig5_density
    from repro.sim.units import GIB

    if quick:
        return lambda: fig5_density.run(sample_every=50, limit=400,
                                        total_memory_bytes=16 * GIB)
    return lambda: fig5_density.run()


def _fig4(quick: bool):
    from repro.experiments import fig4_instantiation

    instances = 100 if quick else 1000
    return lambda: fig4_instantiation.run(instances=instances)


def _clone_fleet(quick: bool):
    """The examples/clone_fleet.py workload: session, fleet, IDC jobs.

    One pass is small (a 32-CPU fleet builds in ~25 ms), so the
    scenario repeats whole sessions to get a stable measurement.
    """
    sessions = 5 if quick else 40

    def scenario():
        from repro import GuestApp, NepheleSession
        from repro.core.smp import build_fleet
        from repro.idc.mqueue import MessageQueue

        for _ in range(sessions):
            with NepheleSession(cpus=32) as session:
                parent = session.boot("bench-fleet", memory_mb=8,
                                      kernel="minios-udp", ip="10.0.9.1",
                                      max_clones=64, app=GuestApp())
                queue = MessageQueue(session.hypervisor, parent)
                fleet = build_fleet(session.platform, parent.domid)
                members = fleet.domains()
                for round_ in range(8):
                    for job in range(32):
                        queue.send(parent, f"job-{round_}-{job}".encode(),
                                   priority=job % 3)
                    index = 0
                    while len(queue):
                        queue.receive(members[index % len(members)])
                        index += 1

    return scenario


def _xenstore_deep_clone(quick: bool):
    """xs_clone over a deep (6-level, 534-node) device subtree.

    The fleet scenarios clone shallow per-device directories; this one
    exercises the structural graft on the kind of subtree where O(1)
    vs O(M) actually matters. Pure Xenstore: no session, no datapath.
    """
    clones = 16 if quick else 128
    rounds = 2 if quick else 4

    def scenario():
        from repro.sim import CostModel, VirtualClock
        from repro.xenstore.client import XsHandle
        from repro.xenstore.clone import XsCloneOp
        from repro.xenstore.store import XenstoreDaemon

        for _ in range(rounds):
            daemon = XenstoreDaemon(VirtualClock(), CostModel(),
                                    log_enabled=False)
            handle = XsHandle(daemon)
            base = "/local/domain/0/backend/9pfs/5"
            daemon.write_node(f"{base}/frontend-id", "5")
            for dev in range(4):
                droot = f"{base}/{dev}"
                daemon.write_node(
                    f"{droot}/frontend",
                    f"/local/domain/5/device/9pfs/{dev}")
                for shard in range(10):
                    for entry in range(4):
                        eroot = f"{droot}/tags/{shard}/{entry}"
                        daemon.write_node(f"{eroot}/path",
                                          f"/srv/{shard}/{entry}")
                        daemon.write_node(f"{eroot}/mode", "rw")
            for child in range(clones):
                domid = 100 + child
                handle.clone(5, domid, XsCloneOp.DEV_9PFS, base,
                             f"/local/domain/0/backend/9pfs/{domid}")

    return scenario


def _pinned_experiment(name: str):
    """Scenario factory for the experiment entry ``name`` of
    :data:`repro.scenarios.SCENARIOS`.

    Times the entry's quick run or its ``full`` run: the P99-vs-d
    sweep plus its composed chaos run (``frontdoor-p99``, full scale is
    the 1,071,875-request megascale sweep), or an ablation's three
    arms plus its storm (``fleet-migration``, ``frontdoor-overload``).
    A fingerprint that misses that scale's pin, or any violation,
    raises inside the timed region: a faster path that perturbs a
    single latency by an ulp, or leaks a page, is a correctness
    regression, not a win.
    """
    def factory(quick: bool):
        from repro.scenarios import PIN_SEED, SCENARIOS

        entry = SCENARIOS[name] if quick else SCENARIOS[name].full

        def scenario():
            payload = entry.runner(PIN_SEED)
            if payload["fingerprint"] != entry.pin:
                raise AssertionError(
                    f"{name} fingerprint drift: "
                    f"{payload['fingerprint']} != {entry.pin}")
            if payload["violations"]:
                raise AssertionError(
                    f"{name} violations: {payload['violations']}")

        return scenario

    return factory


def _kvm_clone_burst(quick: bool):
    """KVM_CLONE_VM burst: boot a VM, clone it in batches, tear down.

    The KVM twin of ``clone_fleet``: exercises the fork-based clone
    path (including the shared clone.* tracing spans) so the parity
    slice has a pinned timing + determinism scenario alongside Xen.
    """
    sessions = 2 if quick else 10
    batches = 4 if quick else 8

    def scenario():
        from repro.kvm import KvmPlatform

        for _ in range(sessions):
            platform = KvmPlatform(trace=True)
            parent = platform.create_vm("bench-kvm", memory_bytes=8 << 20,
                                        ip="10.0.8.1", max_clones=256)
            for _ in range(batches):
                platform.clone(parent.pid, count=8)
            for pid in sorted(platform.host.vms):
                platform.destroy(pid)

    return scenario


def kvm_fingerprint() -> str:
    """The :func:`repro.scenarios.fingerprint` of the deterministic
    observables of one KVM burst.

    Covers the virtual clock, the per-kind span aggregates (count and
    total virtual ms) and the surviving-VM census — everything the
    clone path touches. Two same-seed runs must agree byte-for-byte.
    """
    from repro.kvm import KvmPlatform
    from repro.scenarios import fingerprint

    platform = KvmPlatform(trace=True)
    parent = platform.create_vm("det-kvm", memory_bytes=8 << 20,
                                ip="10.0.8.1", max_clones=64)
    clones = [platform.clone(parent.pid, count=4) for _ in range(3)]
    observables = {
        "clock_ms": round(platform.clock.now, 9),
        "clones": clones,
        "vms": sorted(platform.host.vms),
        "spans": {kind: [entry["count"], round(entry["total_ms"], 9)]
                  for kind, entry in platform.tracer.summary().items()},
    }
    return fingerprint(observables)


SCENARIOS = {
    "fig5_density": _fig5,
    "fig4_instantiation_1000": _fig4,
    "clone_fleet": _clone_fleet,
    "xenstore_deep_clone": _xenstore_deep_clone,
    "kvm_clone_burst": _kvm_clone_burst,
    "frontdoor_p99": _pinned_experiment("frontdoor-p99"),
    "fleet_migration": _pinned_experiment("fleet-migration"),
    "frontdoor_overload": _pinned_experiment("frontdoor-overload"),
}


def time_scenario(runner, repeat: int = 1) -> float:
    """Best-of-``repeat`` wall-clock seconds for one scenario.

    GC stays disabled inside the timed region; whatever garbage the run
    produced is collected after, outside the measurement.
    """
    best = float("inf")
    for _ in range(repeat):
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            runner()
            elapsed = time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()
        best = min(best, elapsed)
    return best


def count_calls(runner) -> int:
    """Total function calls of one profiled run (deterministic for a
    fixed seed, unlike wall seconds)."""
    gc.collect()
    profile = cProfile.Profile()
    profile.enable()
    try:
        runner()
    finally:
        profile.disable()
    return pstats.Stats(profile).total_calls


def run_harness(quick: bool = False, repeat: int = 1,
                check_determinism: bool = False,
                count: bool = True) -> dict:
    """Run every scenario; return the BENCH_wallclock.json payload."""
    scale = "quick" if quick else "full"
    results: dict[str, dict] = {}
    for name, factory in SCENARIOS.items():
        seconds = time_scenario(factory(quick), repeat=repeat)
        calls = count_calls(factory(quick)) if count else None
        base_seconds, base_calls = BASELINES.get(name, {}).get(
            scale, (0.0, 0))
        entry = {
            "seconds": round(seconds, 3),
            "function_calls": calls,
            "baseline_seconds": base_seconds or None,
            "baseline_function_calls": base_calls or None,
            "speedup": (round(base_seconds / seconds, 2)
                        if base_seconds else None),
            "work_reduction": (round(base_calls / calls, 2)
                               if base_calls and calls else None),
        }
        results[name] = entry
    payload = {
        "schema_version": SCHEMA_VERSION,
        "scale": scale,
        "repeat": repeat,
        "python": host_platform.python_version(),
        "cpus": os.cpu_count(),
        "floors": FLOORS,
        "scenarios": results,
    }
    if check_determinism:
        from benchmarks.perf import golden

        prints = golden.compute_fingerprints()
        reference = golden.load_golden()
        payload["determinism"] = {
            name: ("ok" if reference.get(name) == value else "drift")
            for name, value in sorted(prints.items())
        }
        # KVM parity: same-seed determinism next to the Xen golden
        # guard — two fresh platforms, one clone burst each, must
        # produce byte-identical observable fingerprints.
        payload["determinism"]["kvm_clone_burst"] = (
            "ok" if kvm_fingerprint() == kvm_fingerprint() else "drift")
    return payload


def format_wallclock(payload: dict) -> str:
    """Human-readable summary of a harness payload."""
    lines = [f"wall-clock benchmark ({payload['scale']} scale, "
             f"best of {payload['repeat']})"]
    width = max(len(name) for name in payload["scenarios"])
    for name, entry in payload["scenarios"].items():
        line = f"  {name:<{width}}  {entry['seconds']:>8.3f}s"
        if entry.get("baseline_seconds"):
            line += (f"  (baseline {entry['baseline_seconds']:.3f}s, "
                     f"{entry['speedup']:.2f}x)")
        if entry.get("function_calls"):
            line += f"  {entry['function_calls'] / 1e6:.2f}M calls"
            if entry.get("work_reduction"):
                line += f" ({entry['work_reduction']:.2f}x fewer)"
        lines.append(line)
    determinism = payload.get("determinism")
    if determinism:
        drifted = sorted(k for k, v in determinism.items() if v != "ok")
        lines.append("  determinism: " + (
            f"DRIFT in {', '.join(drifted)}" if drifted
            else f"all {len(determinism)} figure series ok"))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the clone-fleet hot paths and write "
                    "BENCH_wallclock.json at the repo root.")
    parser.add_argument("--quick", action="store_true",
                        help="reduced-scale run (CI smoke)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="report the best of N runs per scenario")
    parser.add_argument("--check-determinism", action="store_true",
                        help="also verify the golden figure fingerprints")
    parser.add_argument("--output", default=str(OUTPUT_PATH),
                        help="where to write the JSON payload")
    args = parser.parse_args(argv)

    payload = run_harness(quick=args.quick, repeat=args.repeat,
                          check_determinism=args.check_determinism)
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(format_wallclock(payload))
    print(f"wrote {args.output}")
    drifted = [k for k, v in payload.get("determinism", {}).items()
               if v != "ok"]
    return 1 if drifted else 0


if __name__ == "__main__":
    raise SystemExit(main())
