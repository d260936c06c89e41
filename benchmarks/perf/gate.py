"""The perf gate: re-run the benchmark and enforce the checked-in floors.

CI runs this at reduced scale (``--quick``). It loads the committed
``BENCH_wallclock.json`` (which embeds the per-scenario floors the tree
was shipped with), re-runs the harness fresh, prints a per-scenario
delta table against both the floors and the committed numbers, and
exits non-zero when:

- any scenario's ``work_reduction`` (bit-stable profiled call count)
  drops below its floor,
- any scenario's ``speedup`` (noisy wall clock; floors carry a wide
  margin) drops below its floor,
- any golden figure series (or the KVM clone burst) drifts at the
  pinned seed.

The experiment scenarios (``frontdoor_p99``, ``fleet_migration``,
``frontdoor_overload``) assert their run's pin from
:data:`repro.scenarios.SCENARIOS` and clean audits inside their own
timed run, so drift there aborts the gate before any row prints.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.gate --quick --repeat 3
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchmarks.perf.harness import (
    OUTPUT_PATH,
    SCHEMA_VERSION,
    SCENARIOS,
    run_harness,
)

#: Hot frames reported per scenario by ``--profile``.
PROFILE_TOP = 25


def write_profile(path: Path, quick: bool) -> str:
    """cProfile one run of every timed scenario; write the top
    :data:`PROFILE_TOP` frames (by internal time) per scenario to
    ``path`` as a plain-text CI artifact, and return the text.

    Wall seconds on a shared box swing too much to read a regression's
    *shape* from the gate table alone; the profile artifact is the
    thing to diff when a speedup floor trips.
    """
    import cProfile
    import io
    import pstats

    sections: list[str] = []
    for name, factory in SCENARIOS.items():
        runner = factory(quick)
        profile = cProfile.Profile()
        profile.enable()
        try:
            runner()
        finally:
            profile.disable()
        stream = io.StringIO()
        pstats.Stats(profile, stream=stream).sort_stats(
            "tottime").print_stats(PROFILE_TOP)
        sections.append(f"=== {name} ===\n{stream.getvalue().strip()}\n")
    text = "\n".join(sections)
    path.write_text(text)
    return text


def load_reference(path: Path) -> dict:
    """The committed payload; refuses schema mismatches."""
    payload = json.loads(path.read_text())
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SystemExit(
            f"{path} has schema_version {version!r}, this gate speaks "
            f"{SCHEMA_VERSION} — regenerate it with "
            f"`python -m benchmarks.perf.harness`")
    return payload


def check(payload: dict, floors: dict) -> tuple[list[str], list[list[str]]]:
    """Evaluate ``payload`` against ``floors``.

    Returns (violations, table rows); rows are
    ``[scenario, metric, measured, floor, status]``.
    """
    scale = payload["scale"]
    violations: list[str] = []
    rows: list[list[str]] = []

    for name, entry in payload["scenarios"].items():
        scenario_floors = floors.get(name, {}).get(scale, {})
        for metric in ("work_reduction", "speedup"):
            floor = scenario_floors.get(metric)
            if floor is None:
                continue
            measured = entry.get(metric)
            ok = measured is not None and measured >= floor
            rows.append([name, metric, str(measured), str(floor),
                         "ok" if ok else "FAIL"])
            if not ok:
                violations.append(
                    f"{name}: {metric} {measured} below floor {floor}")

    for name, verdict in sorted(payload.get("determinism", {}).items()):
        ok = verdict == "ok"
        rows.append([name, "determinism", verdict, "ok",
                     "ok" if ok else "FAIL"])
        if not ok:
            violations.append(f"{name}: determinism {verdict}")
    return violations, rows


def format_table(rows: list[list[str]],
                 reference: dict | None = None) -> str:
    """The per-scenario delta table (vs floors, and vs the committed
    numbers when a same-scale reference payload is available)."""
    header = ["scenario", "metric", "measured", "floor", "status"]
    if reference is not None:
        header.insert(3, "committed")
        scenarios = reference.get("scenarios", {})
        for entry in rows:
            committed = scenarios.get(entry[0], {}).get(entry[1])
            entry.insert(3, "-" if committed is None else str(committed))
    widths = [max(len(r[i]) for r in [header] + rows)
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for entry in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(entry, widths)))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Re-run the perf harness and gate on the committed "
                    "per-scenario floors.")
    parser.add_argument("--quick", action="store_true",
                        help="reduced-scale run (CI smoke)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="best-of-N wall-clock runs (default 3)")
    parser.add_argument("--reference", default=str(OUTPUT_PATH),
                        help="committed BENCH_wallclock.json to gate "
                             "against")
    parser.add_argument("--output", default=None,
                        help="also write the fresh payload here "
                             "(CI artifact)")
    parser.add_argument("--profile", default=None, metavar="PATH",
                        help="also cProfile one run per scenario and "
                             f"write the top-{PROFILE_TOP} hot frames "
                             "to PATH (CI artifact)")
    args = parser.parse_args(argv)

    reference = load_reference(Path(args.reference))
    floors = reference.get("floors", {})
    if not floors:
        raise SystemExit(f"{args.reference} carries no floors to enforce")

    payload = run_harness(quick=args.quick, repeat=args.repeat,
                          check_determinism=True)
    if args.output:
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    violations, rows = check(payload, floors)
    same_scale = reference if reference.get("scale") == payload["scale"] \
        else None
    print(f"perf gate ({payload['scale']} scale, best of {args.repeat}, "
          f"{payload['cpus']} cpus)")
    print(format_table(rows, reference=same_scale))
    if args.profile:
        write_profile(Path(args.profile), args.quick)
        print(f"profile artifact written to {args.profile}")
    if violations:
        print(f"\nFAIL: {len(violations)} floor violations:",
              file=sys.stderr)
        for violation in violations:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    print("\nall floors held")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
