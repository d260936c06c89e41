"""One workload in one fresh single-threaded process.

    python -m benchmarks.e2e.worker --workload W --seed N --seconds S
        [--trace] | --setup-only

The first pass runs at the pinned seed as the warm-up: it is discarded
from the timings and its virtual outputs are compared with the pinned
digest. Timed passes then build fresh state with seeds N, N+1, ... for
``S`` seconds (at least ``MIN_PASSES``). GC keeps its defaults; one
untimed full collection precedes each pass. With ``--trace``, one
extra pass at seed N runs with the layer wrappers installed, and its
raw spans go to ``out/spans-<workload>.json``. Prints one JSON object
on stdout.
"""

from time import perf_counter

#: Worker start. Set-up time runs from here, before ``repro`` is imported.
START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

from benchmarks.e2e.trace import LayerTrace  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    PINNED_SEED,
    WORKLOADS,
    Caller,
    CheckFailed,
    digest,
)

#: Fewest timed passes a run makes, however short ``--seconds`` is.
MIN_PASSES = 3

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"


def run_pass(state, trace: LayerTrace | None = None) -> dict:
    """Drive one built pass through the closed-loop caller, then check it."""
    call = Caller(state.expected)
    # Start every pass from a collected heap: otherwise the previous
    # pass's cyclic garbage is collected inside this pass's timed
    # region (clone_burst passes ran ~20% slower and twice as noisy).
    gc.collect()
    if trace is not None:
        trace.install(state.clock, call.seconds)
    start = perf_counter()
    try:
        state.drive(call)
    finally:
        wall_s = perf_counter() - start
        if trace is not None:
            trace.uninstall()
    outputs = error = None
    try:
        outputs = state.check()
    except CheckFailed as failure:
        error = f"{state.name}: {failure}"
    finally:
        state.close()
    seconds = call.seconds
    return {
        "wall_s": wall_s,
        "calls": len(seconds),
        # A failed check fails every call of the pass.
        "failed": len(seconds) if error else call.failed,
        "error": error,
        "outputs": outputs,
        "counts": dict(state.counts, calls=len(seconds)),
        "ops_per_s": state.counts["ops"] / wall_s,
        "p50_ms": statistics.median(seconds) * 1e3,
        "p99_ms": (statistics.quantiles(seconds, n=100, method="inclusive")[98]
                   * 1e3 if len(seconds) > 1 else seconds[0] * 1e3),
    }


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Warm-up, timed passes and (optionally) the traced pass."""
    cls = WORKLOADS[name]
    state = cls(PINNED_SEED)
    setup_s = perf_counter() - START
    warmup = run_pass(state)
    del state
    passes = []
    trace = traced_pass = None
    if traced:
        trace = LayerTrace()
        traced_pass = run_pass(cls(seed), trace)
    begin = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - begin < seconds:
        passes.append(run_pass(cls(seed + len(passes))))

    pinned = json.loads(PINS.read_text())["digests"].get(name)
    errors = [p["error"] for p in [warmup, *passes] if p["error"]]
    found = digest(warmup["outputs"]) if warmup["outputs"] else None
    if found != pinned:
        errors.append(f"{name}: digest {found} at seed {PINNED_SEED:#x} "
                      f"differs from the pinned {pinned}: "
                      f"{json.dumps(warmup['outputs'], sort_keys=True)}")
    result = {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "attempted": sum(p["calls"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "errors": errors,
        "setup_s": setup_s,
        "ops_per_s": statistics.median(p["ops_per_s"] for p in passes),
        "op_p50_ms": statistics.median(p["p50_ms"] for p in passes),
        "op_p99_ms": statistics.median(p["p99_ms"] for p in passes),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if traced:
        if traced_pass["error"]:
            errors.append(traced_pass["error"])
        result["per_layer"] = trace.metrics(
            traced_pass["counts"], traced_pass["wall_s"],
            statistics.median(p["wall_s"] for p in passes))
        (HERE / "out").mkdir(exist_ok=True)
        (HERE / "out" / f"spans-{name}.json").write_text(json.dumps({
            "workload": name, "seed": seed,
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "methods": trace.methods, "spans": trace.spans}))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="report the set-up time of one fresh process")
    args = parser.parse_args(argv)
    if args.setup_only:
        state = WORKLOADS[args.workload](PINNED_SEED)
        setup_s = perf_counter() - START
        state.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
