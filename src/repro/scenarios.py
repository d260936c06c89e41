"""The pinned scenario registry and its one runner.

Every seeded storm and every quick headline experiment is a
``runner(seed) -> payload`` whose payload is a plain JSON-ready dict
with a ``violations`` list and a sha256 :func:`fingerprint`.
:data:`SCENARIOS` pairs each runner with the fingerprint it must hash
to at :data:`PIN_SEED`. One command checks them all::

    python -m repro.scenarios                        # all of them
    python -m repro.scenarios overload-storm --json
    python -m repro.scenarios xen-chaos --seed 7     # no pin off 0xC10E

Each named scenario runs twice. The exit status is 1 on any audit
violation, on fingerprint drift between the two runs, or on a
fingerprint that misses its pin at :data:`PIN_SEED`.

Runners are imported on first call. The storm runners live in modules
that ``import repro`` loads, so they import :func:`fingerprint` inside
their bodies: ``import repro`` never loads this module, and runpy
executes it only once.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable

#: The seed every pin in :data:`SCENARIOS` was taken at.
PIN_SEED = 0xC10E


def fingerprint(payload: dict[str, Any]) -> str:
    """sha256 over the canonical JSON of ``payload``, minus its own
    ``fingerprint`` key."""
    body = {key: value for key, value in payload.items()
            if key != "fingerprint"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class Scenario:
    """A registry entry: what to run and the fingerprint it must hit."""

    runner: Callable[[int], dict[str, Any]]
    #: :func:`fingerprint` of ``runner(PIN_SEED)``.
    pin: str


def _lazy(target: str) -> Callable[[int], dict[str, Any]]:
    """The ``module:function`` runner, imported on first call.

    Storm runners return their payload; the experiments' quick runs
    return a result whose ``to_dict()`` is the payload.
    """
    module_name, _, name = target.partition(":")

    def runner(seed: int) -> dict[str, Any]:
        result = getattr(importlib.import_module(module_name), name)(seed)
        return result if isinstance(result, dict) else result.to_dict()

    return runner


SCENARIOS: dict[str, Scenario] = {
    "xen-chaos": Scenario(
        _lazy("repro.faults.chaos:run_chaos"),
        "2446100026171076055cb99f471ed00ebb70663d45032ab9f240aee1c3814bde"),
    "kvm-chaos": Scenario(
        _lazy("repro.faults.chaos:run_kvm_chaos"),
        "2ecbcea2bda3fd8321edf26c97603b28297ed3e799807b303202a6710a90254f"),
    "fleet-chaos": Scenario(
        _lazy("repro.fleet.chaos:run_fleet_chaos"),
        "e33267584e8aceccb315846ade8072ce3e570aefd1bfaed94f644cb1d5caaefe"),
    "migration-chaos": Scenario(
        _lazy("repro.fleet.migration:run_migration_chaos"),
        "29e2f33b7b084d99c39e1d828b5cc08b3a2395f6068c627fba3a656bce30b6d5"),
    "overload-storm": Scenario(
        _lazy("repro.frontdoor.resilience:run_overload_storm"),
        "d47eeafcc02b9faf2d0377dac3987dd22772e917138cc713b1e9e63dc1c305d9"),
    "frontdoor-p99": Scenario(
        _lazy("repro.experiments.frontdoor_p99:run_quick"),
        "35c31ef94ab2eed3d717955da4aaf3752f4c1e948a5d8c1ee05b20d60ba19553"),
    "fleet-migration": Scenario(
        _lazy("repro.experiments.fleet_migration:run_quick"),
        "1f4ac8bc95ba83e7a59a68f3652513f1b84cb49c540229d809deb3fde426b27f"),
    "frontdoor-overload": Scenario(
        _lazy("repro.experiments.frontdoor_overload:run_quick"),
        "73b37997986b0809c8d18c429f41dd433441057915722ed96f315ff589137dc8"),
}


def format_summary(name: str, payload: dict[str, Any]) -> str:
    """The payload's scalar fields, its violations and its fingerprint."""
    lines = [name]
    for key, value in payload.items():
        if key != "fingerprint" and isinstance(value, (int, float, str)):
            lines.append(f"  {key}: {value}")
    violations = payload.get("violations", [])
    lines.append(f"  violations: {len(violations)}")
    lines.extend(f"    - {violation}" for violation in violations)
    lines.append(f"  fingerprint: {fingerprint(payload)}")
    return "\n".join(lines)


def check(name: str, seed: int) -> tuple[dict[str, Any], list[str]]:
    """Run scenario ``name`` twice; returns the first payload and every
    failure: violations, drift between the runs, a missed pin."""
    scenario = SCENARIOS[name]
    payload = scenario.runner(seed)
    digest = fingerprint(payload)
    rerun = fingerprint(scenario.runner(seed))
    failures = [f"violation: {violation}"
                for violation in payload.get("violations", [])]
    if rerun != digest:
        failures.append(f"drift: {digest} != {rerun} on a second run")
    if seed == PIN_SEED and digest != scenario.pin:
        failures.append(f"fingerprint != pin {scenario.pin}")
    return payload, failures


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run pinned scenarios twice each; exit 1 on a "
                    "violation, drift or a missed pin.")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="scenarios to run (default: all of "
                             f"{', '.join(SCENARIOS)})")
    parser.add_argument("--seed", type=lambda text: int(text, 0),
                        default=PIN_SEED,
                        help="seed (default 0xC10E, the only seed whose "
                             "pins are checked)")
    parser.add_argument("--json", action="store_true",
                        help="print the payloads as one JSON object")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenario {', '.join(unknown)} "
                     f"(known: {', '.join(SCENARIOS)})")

    payloads: dict[str, dict[str, Any]] = {}
    status = 0
    for name in args.names or SCENARIOS:
        payload, failures = check(name, args.seed)
        payloads[name] = payload
        if not args.json:
            print(format_summary(name, payload))
            print("  ok" if not failures else "  FAIL")
        for failure in failures:
            print(f"FAIL {name}: {failure}", file=sys.stderr)
        if failures:
            status = 1
    if args.json:
        print(json.dumps(payloads, indent=2, sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main())
