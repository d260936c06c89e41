"""``python -m repro.fleet``: the fleet chaos smoke runner.

Mirrors ``python -m repro.faults``: run the fleet host-kill storm one
or more times at a fixed (seed, plan, policy), print the report, and
exit non-zero on any leak-oracle violation, on fingerprint drift
between runs, or — when hosts are being killed — on a storm that never
exercised a successful re-placement. CI pins exactly this contract.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.faults.plan import FaultPlan
from repro.fleet.chaos import FleetChaosReport, run_fleet_chaos
from repro.fleet.placement import POLICIES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Run a deterministic multi-host fleet chaos storm.")
    parser.add_argument("--seed", type=lambda v: int(v, 0), default=0xC10E,
                        help="fleet seed (default 0xC10E)")
    parser.add_argument("--hosts", type=int, default=4,
                        help="member hosts (default 4)")
    parser.add_argument("--kills", type=int, default=2,
                        help="hosts to kill during the storm (default 2)")
    parser.add_argument("--policy", choices=sorted(POLICIES),
                        default="round-robin", help="placement policy")
    parser.add_argument("--parents", type=int, default=2,
                        help="clone families (default 2)")
    parser.add_argument("--batch", type=int, default=3,
                        help="children per clone request (default 3)")
    parser.add_argument("--rounds", type=int, default=8,
                        help="workload rounds (default 8)")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat the run and require byte-identical "
                             "fingerprints (default 1)")
    parser.add_argument("--plan", type=str, default=None,
                        help="JSON fault-plan file (default: generated "
                             "kill plan)")
    parser.add_argument("--json", action="store_true",
                        help="print the full report as JSON")
    parser.add_argument("--list-policies", action="store_true",
                        help="list placement policies and exit")
    return parser


def _print_report(report: FleetChaosReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return
    print(f"fleet chaos seed={report.seed:#x} hosts={report.hosts} "
          f"policy={report.policy} plan={report.plan_name}")
    print(f"  clones: requested={report.clones_requested} "
          f"placed={report.clones_placed} failed={report.clones_failed}")
    print(f"  hosts killed: {report.hosts_killed}  "
          f"replacements: {report.replacements}")
    print(f"  virtual clock: {report.clock_ms:.3f} ms")
    print(f"  fingerprint: {report.fingerprint}")
    if report.violations:
        print(f"  VIOLATIONS ({len(report.violations)}):")
        for violation in report.violations:
            print(f"    - {violation}")
    else:
        print("  leak audit: clean (fleet-wide)")


def main(argv: list[str] | None = None) -> int:
    """Run the storm; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.list_policies:
        for name in sorted(POLICIES):
            print(name)
        return 0

    plan = None
    if args.plan:
        with open(args.plan, encoding="utf-8") as fh:
            plan = FaultPlan.from_json(fh.read())

    fingerprints: list[str] = []
    report: FleetChaosReport | None = None
    for _ in range(max(1, args.runs)):
        report = run_fleet_chaos(
            seed=args.seed, hosts=args.hosts, kills=args.kills,
            parents=args.parents, batch=args.batch, rounds=args.rounds,
            policy=args.policy, plan=plan)
        fingerprints.append(report.fingerprint)
    assert report is not None
    _print_report(report, args.json)

    exit_code = 0
    if report.violations:
        print(f"FAIL: {len(report.violations)} leak-oracle violations",
              file=sys.stderr)
        exit_code = 1
    if len(set(fingerprints)) > 1:
        print(f"FAIL: fingerprint drift across {len(fingerprints)} runs: "
              f"{fingerprints}", file=sys.stderr)
        exit_code = 1
    if args.kills > 0 and report.hosts_killed < args.kills:
        print(f"FAIL: storm killed {report.hosts_killed} hosts, "
              f"expected {args.kills}", file=sys.stderr)
        exit_code = 1
    if (args.kills > 0 and args.kills < args.hosts
            and report.replacements < 1):
        # A total-loss storm (kills == hosts) leaves no survivor to
        # re-place onto, so the expectation only applies below it.
        print("FAIL: no successful re-placement despite host kills",
              file=sys.stderr)
        exit_code = 1
    return exit_code


if __name__ == "__main__":  # pragma: no cover - module CLI
    sys.exit(main())
