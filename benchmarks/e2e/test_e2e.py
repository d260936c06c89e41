"""Self-tests of the end-to-end benchmark: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from benchmarks.e2e import run, trace, worker, workloads
from repro.sim.clock import VirtualClock
from repro.sim.engine import Engine
from repro.sim.units import MIB

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Tiny-scale versions of the four workloads.
TINY = {
    "clone_burst": {"pool_bytes": 48 * MIB},
    "clone_churn": {"rounds": 1},
    "fd_sweep": {"requests": 400},
    "fd_control": {"requests": 1500},
}


def tiny(name: str):
    cls = workloads.WORKLOADS[name]
    return type(f"Tiny{cls.__name__}", (cls,), TINY[name])


def _cli(*args: str) -> tuple[list[list[str]], dict]:
    """Run the benchmark command; (metric lines, final JSON object)."""
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return [line.split() for line in lines[:-1]], json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_smoke(name):
    result = worker.run_pass(tiny(name)(workloads.PINNED_SEED))
    assert result["error"] is None
    assert result["failed"] == 0
    assert result["counts"]["ops"] > 0 and result["calls"] > 0
    assert result["ops_per_s"] > 0 and result["p99_ms"] >= result["p50_ms"]


def test_names_agree_with_benchmark_json():
    assert list(run.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.per_layer_units() == {m["name"]: m["unit"]
                                     for m in SPEC["per_layer"]}


@pytest.mark.parametrize("traced", [0, 1])
def test_printed_metrics_equal_benchmark_json(traced):
    lines, result = _cli("--workload", "fd_control", "--seconds", "0",
                         "--trace", str(traced))
    expected = SPEC["per_layer" if traced else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in expected}
    assert {line[1]: line[3] for line in lines} == expected
    assert all(line[0] == "fd_control" and len(line) == 4 for line in lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if traced:
        metrics = result["metrics"]
        assert (metrics["frontdoor.self_s"]["value"]
                > metrics["sim.self_s"]["value"])


def test_untraced_runs_install_zero_wrappers():
    seen = []

    class Probe(tiny("fd_sweep")):
        def drive(self, call):
            seen.append(trace.installed_wrappers())
            super().drive(call)

    worker.run_pass(Probe(1))
    worker.run_pass(Probe(1), trace.LayerTrace())
    assert seen[0] == 0 and seen[1] > 0
    assert trace.installed_wrappers() == 0


def test_injected_exception_is_counted_as_failed():
    call = workloads.Caller()
    assert call(int, "x") is None
    assert call.failed == 1 and len(call.seconds) == 1

    class Injected(tiny("fd_sweep")):
        factors = (1, "not a clone factor", 2)

    result = worker.run_pass(Injected(1))
    assert result["failed"] == result["calls"] == 3
    assert "a dispatch call failed" in result["error"]


class _Scheduler:
    """A stand-in boundary class of the ``fleet`` layer."""

    def __init__(self, engine):
        self.engine = engine

    def arm(self):
        self.engine.schedule_after(1.0, _busy)


def _busy():
    end = perf_counter() + 0.02
    while perf_counter() < end:
        pass


def test_engine_callbacks_are_charged_to_the_scheduling_layer(monkeypatch):
    monkeypatch.setattr(trace, "boundary_classes", lambda: iter(
        [("sim", Engine), ("fleet", _Scheduler)]))
    engine = Engine(VirtualClock())
    layers = trace.LayerTrace()
    layers.install(engine.clock, [])
    try:
        _Scheduler(engine).arm()
        engine.run()
    finally:
        layers.uninstall()
    assert layers.events == 1
    # schedule_after, the schedule_at it calls, and run.
    assert layers.calls["fleet"] == 1 and layers.calls["sim"] == 3
    assert layers.self_s["fleet"] >= 0.02 > layers.self_s["sim"]
    assert layers.virt_ms["sim"] == 1.0
    assert not hasattr(Engine.run, trace.MARK)


def test_layer_calls_are_identical_across_two_traced_runs():
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    calls = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.e2e.worker", "--workload",
             "clone_churn", "--seconds", "0", "--trace"], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True, timeout=170, check=True)
        layers = json.loads(proc.stdout)["per_layer"]
        calls.append({k: v for k, v in layers.items() if k.endswith(".calls")})
    assert calls[0] == calls[1]
    assert calls[0]["xenstore.calls"] > 0 and calls[0]["obs.calls"] > 0
