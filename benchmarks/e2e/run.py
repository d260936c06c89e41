"""Run the end-to-end benchmark and print every metric.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1] [--out FILE]
    PYTHONPATH=src python -m benchmarks.e2e ...      (the same)

Each workload runs in its own fresh single-threaded worker process, one
workload at a time (:mod:`benchmarks.e2e.worker`). ``setup_s`` is the
median over ``SETUP_PROBES`` extra fresh processes plus the worker
itself. The golden figure fingerprints (:mod:`benchmarks.perf.golden`)
are checked once per invocation, untimed.

Output: one ``workload metric value unit`` line per metric (the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics of one
extra traced pass), then a last line holding one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Exits 0
when every check passed, 1 when one failed, 2 when the benchmark could
not run at all (no result line is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.trace import LAYERS  # noqa: E402

WORKLOADS = ("clone_burst", "clone_churn", "fd_sweep", "fd_control")
PINNED_SEED = 0xC10E

#: Fresh processes timed for ``setup_s``, besides the worker itself.
SETUP_PROBES = 4

#: Every subprocess must end within this many seconds of the start.
DEADLINE_S = 170.0

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.virt_ms"] = "ms"
    units.update({
        "frontdoor.recomputes_per_copy": "ratio",
        "sim.events_per_request": "ratio",
        "xenstore.calls_per_clone": "ratio",
        "obs.spans_per_op": "ratio",
        "gc.gen2_collections": "count",
        "trace_overhead": "ratio",
    })
    return units


class BenchmarkError(Exception):
    """The benchmark could not run (missing program, crashed worker)."""


def _worker(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion; return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.e2e.worker", *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker {args} timed out") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"worker {args} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def golden_ok(deadline: float) -> bool:
    """Whether the nine golden figure series still match, untimed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.perf.golden"], cwd=ROOT,
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError("golden check timed out") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
    return proc.returncode == 0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """Set-up probes plus the worker for one workload."""
    probes = [_worker(["--workload", name, "--setup-only"], deadline)
              ["setup_s"] for _ in range(SETUP_PROBES)]
    args = ["--workload", name, "--seed", str(seed), "--seconds",
            str(seconds)]
    if trace:
        args.append("--trace")
    result = _worker(args, deadline)
    result["setup_s"] = statistics.median([*probes, result["setup_s"]])
    if trace:
        units = per_layer_units()
        metrics = {key: result["per_layer"][key] for key in units}
    else:
        units = END_TO_END
        metrics = {key: result[key] for key in units}
    result["metrics"] = {key: {"value": value, "unit": units[key]}
                         for key, value in metrics.items()}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end host-time benchmark (README.md).")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=lambda s: int(s, 0),
                        default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="report the per-layer metrics of a traced pass")
    parser.add_argument("--out", help="append one JSON line per workload")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    seconds = args.seconds
    if seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]

    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = [run_workload(name, args.seed, seconds, bool(args.trace),
                                deadline) for name in names]
        golden = golden_ok(deadline)
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2

    if not golden:
        print("CHECK FAILED golden figure fingerprints drifted",
              file=sys.stderr)
    for r in results:
        for error in r["errors"]:
            print(f"CHECK FAILED {error}", file=sys.stderr)
        r["correct"] = golden and not r["errors"] and r["failed"] == 0
        for key, metric in r["metrics"].items():
            print(f"{r['workload']} {key} {metric['value']!r} "
                  f"{metric['unit']}")
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({
                    "workload": r["workload"], "seed": args.seed,
                    "trace": args.trace, "passes": r["passes"],
                    "correct": r["correct"], "metrics": r["metrics"]}) + "\n")
    correct = all(r["correct"] for r in results)
    metrics = (results[0]["metrics"] if len(results) == 1 else
               {f"{r['workload']}.{key}": metric for r in results
                for key, metric in r["metrics"].items()})
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
