"""Compare two run sets of the benchmark.

    python -m benchmarks.e2e.compare A.jsonl B.jsonl

Each file holds the lines ``run.py --out FILE`` appends, one per
workload run (untraced runs only are read). For every workload and
end-to-end metric, prints each set's median and its spread (the
interquartile range as a share of the median), and flags the pair when
the two medians differ by more than the metric's ``bound`` in
``BENCHMARK.json``. Exits 1 when a pair is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, over the untraced runs in ``path``."""
    values: dict[tuple[str, str], list[float]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"]:
            continue
        for name, metric in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(
                metric["value"])
    return values


def spread(values: list[float]) -> tuple[float, float]:
    """(median, IQR / median) of one metric's runs."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def compare(a: dict, b: dict, bounds: dict[str, float]
            ) -> tuple[list[str], int]:
    """The report lines and how many pairs differ beyond their bound."""
    lines = [f"{'workload':<12} {'metric':<12} {'median A':>12} {'spread':>7}"
             f" {'median B':>12} {'spread':>7} {'change':>8} {'bound':>6}"]
    flagged = 0
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        if metric not in bounds:
            continue
        med_a, spread_a = spread(a[key])
        med_b, spread_b = spread(b[key])
        change = (med_b - med_a) / med_a if med_a else 0.0
        over = abs(change) > bounds[metric]
        flagged += over
        lines.append(
            f"{workload:<12} {metric:<12} {med_a:>12.5g} {spread_a:>7.1%}"
            f" {med_b:>12.5g} {spread_b:>7.1%} {change:>+8.1%}"
            f" {bounds[metric]:>6.0%}" + ("  <- beyond bound" if over else ""))
    return lines, flagged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="run set A (run.py --out lines)")
    parser.add_argument("b", help="run set B")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines, flagged = compare(load(args.a), load(args.b), bounds)
    print("\n".join(lines))
    print(f"{flagged} workload x metric pair(s) beyond their bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
