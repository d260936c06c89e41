"""The four benchmark workloads.

One *pass* of a workload is one object. The constructor builds fresh
state from a seed (set-up, not timed). ``drive(call)`` makes the timed
public-API calls, each through the closed-loop caller ``call``, and
fills ``counts``. ``check()`` audits the state after the timed region
and returns the pass's virtual outputs (counts, virtual clock, latency
summaries), which :func:`digest` hashes for the pinned-seed check.

Virtual-time results are the model's outputs: they are checked here,
never optimized. Only host time is measured.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import traceback
from time import perf_counter

from repro import FleetSession, NepheleSession, Platform
from repro.apps.traffic import as_shape
from repro.apps.udp_server import UdpServerApp
from repro.faults.chaos import audit_platform
from repro.fleet.chaos import audit_fleet
from repro.frontdoor.dispatch import AutoscalePolicy
from repro.frontdoor.resilience import ResiliencePolicy
from repro.guest.api import Region
from repro.sim.units import GIB, PAGE_SIZE
from repro.toolstack.config import DomainConfig, P9Config, VifConfig
from repro.xen.errors import XenNoMemoryError

#: Seed of the pinned output digests (the platform default seed).
PINNED_SEED = 0xC10E

#: Tracebacks printed per caller before further failures are only counted.
_TRACEBACKS = 3

#: What ``drive`` counts: ops (the ``ops_per_s`` numerator), clones made,
#: simulated requests offered and request copies placed.
COUNTS = ("ops", "clones", "requests", "copies")


class CheckFailed(Exception):
    """An audit, invariant or output check failed; the pass fails."""


class Caller:
    """The closed-loop load: one caller, each call waits for the last.

    Records the host seconds of every call. An exception the workload
    expects (``expected``) ends the caller's loop and propagates; any
    other exception counts the call as failed and returns ``None``.
    """

    def __init__(self, expected: tuple = ()) -> None:
        self.expected = expected
        self.seconds: list[float] = []
        self.failed = 0

    def __call__(self, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except self.expected:
            raise
        except Exception:
            self.failed += 1
            if self.failed <= _TRACEBACKS:
                traceback.print_exc(file=sys.stderr)
            return None
        finally:
            self.seconds.append(perf_counter() - start)


def digest(outputs: dict) -> str:
    """sha256 over the canonical JSON of one pass's virtual outputs."""
    payload = json.dumps(outputs, sort_keys=True, allow_nan=False)
    return hashlib.sha256(payload.encode()).hexdigest()


def _require(violations: list[str]) -> None:
    if violations:
        raise CheckFailed("; ".join(violations[:5]))


class CloneBurst:
    """Fig 5's clone path: fork one parent until the guest pool is full.

    A 4 MiB minios-udp parent with one vif on an 8 GiB host (4 GiB
    Dom0) calls ``CloneOp.clone(count=1)`` until ``XenNoMemoryError``:
    2,958 clones per pass. An op is one clone.
    """

    name = "clone_burst"
    expected = (XenNoMemoryError,)
    dom0_bytes = 4 * GIB
    pool_bytes = 4 * GIB
    #: Bound on calls per pass, far above what the pool admits.
    call_limit = 20_000

    def __init__(self, seed: int) -> None:
        self.platform = Platform.create(
            total_memory_bytes=self.dom0_bytes + self.pool_bytes,
            dom0_memory_bytes=self.dom0_bytes, seed=seed)
        config = DomainConfig(
            name="burst", memory_mb=4, kernel="minios-udp",
            vifs=[VifConfig(ip=f"10.{1 + seed % 250}.0.1")],
            max_clones=10_000_000)
        self.parent = self.platform.xl.create(config, app=UdpServerApp())
        self.clock = self.platform.clock
        self.counts = dict.fromkeys(COUNTS, 0)
        self.exhausted = False

    def drive(self, call: Caller) -> None:
        clone = self.platform.cloneop.clone
        domid = self.parent.domid
        for _ in range(self.call_limit):
            try:
                children = call(clone, domid, count=1)
            except XenNoMemoryError:
                self.exhausted = True
                break
            if children:
                self.counts["clones"] += len(children)
        self.counts["ops"] = self.counts["clones"]

    def check(self) -> dict:
        platform = self.platform
        violations = audit_platform(platform)
        try:
            platform.check_invariants()
        except AssertionError as error:
            violations.append(str(error))
        if not self.exhausted:
            violations.append("guest pool never ran out")
        if platform.cloneop.stats["clones"] != self.counts["clones"]:
            violations.append("CLONEOP count differs from returned children")
        _require(violations)
        return {
            "clones": self.counts["clones"],
            "guests": platform.guest_count(),
            "hyp_free_bytes": platform.free_hypervisor_bytes(),
            "dom0_free_bytes": platform.free_dom0_bytes(),
            "clock_ms": round(self.clock.now, 6),
        }

    def close(self) -> None:
        pass


class CloneChurn:
    """FaaS-style scale-out and scale-in through ``NepheleSession``.

    The parent is 8 MiB with a vif and a 9pfs mount; tracing is on (the
    session default). One round: 8x ``clone(count=8)``, one write of 64
    heap pages in each of the 64 children (COW faults, page offsets
    drawn from the seed), 8x cold ``boot``, then 72x ``destroy``.
    12 rounds, 1,824 calls per pass. An op is one instance lifecycle.
    """

    name = "clone_churn"
    expected = ()
    rounds = 12
    batches = 8
    batch = 8
    cold_boots = 8
    dirty_pages = 64

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.session = NepheleSession(seed=seed)
        self.parent = self.session.boot(
            "fn", memory_mb=8, ip="10.0.2.1", p9fs=[P9Config()],
            max_clones=1_000_000)
        self.clock = self.session.clock
        self.counts = dict.fromkeys(COUNTS, 0)
        self.cow_copied = 0

    def drive(self, call: Caller) -> None:
        session = self.session
        for round_ in range(self.rounds):
            children: list[int] = []
            for _ in range(self.batches):
                children += call(session.clone, self.parent,
                                 count=self.batch) or []
            for domid in children:
                vm = session.domain(domid).guest
                heap = Region(vm.heap_base_pfn, vm.heap_npages,
                              vm.heap_npages * PAGE_SIZE)
                offset = self.rng.randrange(vm.heap_npages - self.dirty_pages)
                stats = call(vm.api.touch, heap, npages=self.dirty_pages,
                             offset_pages=offset)
                if stats is not None:
                    self.cow_copied += stats.copied
            booted = []
            for index in range(self.cold_boots):
                domain = call(session.boot, f"cold{round_}-{index}",
                              memory_mb=8, ip=f"10.0.3.{index + 1}",
                              p9fs=[P9Config()])
                if domain is not None:
                    booted.append(domain.domid)
            for domid in children + booted:
                call(session.destroy, domid)
            self.counts["clones"] += len(children)
            self.counts["ops"] += len(children) + len(booted)

    def check(self) -> dict:
        session = self.session
        violations = audit_platform(session.platform)
        expected = self.rounds * self.batches * self.batch
        if self.counts["clones"] != expected:
            violations.append(
                f"{self.counts['clones']} clones, expected {expected}")
        if [d.name for d in session.domains()] != ["fn"]:
            violations.append("scale-in left guests behind")
        _require(violations)
        try:
            session.close()
        except AssertionError as error:
            raise CheckFailed(str(error)) from None
        summary = session.tracer.summary()
        return {
            "ops": self.counts["ops"],
            "cow_copied": self.cow_copied,
            "clock_ms": round(self.clock.now, 6),
            "clone_ops": summary["clone.op"]["count"],
            "clone_op_ms": round(summary["clone.op"]["total_ms"], 6),
        }

    def close(self) -> None:
        self.session.close(check=False)


def _dispatch_outputs(result) -> dict:
    """A dispatch result's counts and latency summary at printed
    precision (0.01 ms), so ulp-level float changes do not trip it."""
    return {
        "requests": result.requests,
        "completed": result.completed,
        "failed": result.failed,
        "timed_out": result.timed_out,
        "shed": result.shed,
        "retries": result.retries,
        "copies": result.copies,
        "copies_lost": result.copies_lost,
        "p50_ms": round(result.latency_p50_ms, 2),
        "p99_ms": round(result.latency_p99_ms, 2),
    }


class _FleetPass:
    """A 4-host fleet with one 12-replica family (the faas shape)."""

    family = "fd"
    replicas = 12
    requests = 10_000
    expected = ()

    def __init__(self, seed: int) -> None:
        self.session = FleetSession(hosts=4, seed=seed)
        self.session.create_family(self.family, ip="10.9.0.1")
        self.session.clone(self.family, count=self.replicas - 1)
        self.clock = self.session.clock
        self.capacity_rps = as_shape("faas").capacity_rps
        self.results: dict = {}
        self.counts = dict.fromkeys(COUNTS, 0)

    def _dispatch(self, call: Caller, label: str, rho: float, **kwargs):
        result = call(self.session.dispatch, self.family, "faas",
                      requests=self.requests,
                      arrival_rps=rho * self.replicas * self.capacity_rps,
                      label=label, **kwargs)
        if result is not None:
            self.results[label] = result
            self.counts["requests"] += result.requests
            self.counts["copies"] += result.copies
        return result

    def _audit(self) -> list[str]:
        violations = audit_fleet(self.session.fleet, self.session.frontdoor)
        for label, r in self.results.items():
            if r.requests != r.completed + r.failed + r.timed_out + r.shed:
                violations.append(f"{label}: requests != completed + failed"
                                  " + timed_out + shed")
        return violations

    def close(self) -> None:
        self.session.close(check=False)


class FdSweep(_FleetPass):
    """The front door's PS dispatch fast path, swept over clone factor.

    ``d`` in {1, 2, 4, 8} at rho=0.15, 10k requests each, with no
    timeouts, heartbeats or policy, so only the merged fast-path loop
    runs. d=8 is past the capacity knee. An op is one offered request.
    """

    name = "fd_sweep"
    factors = (1, 2, 4, 8)

    def drive(self, call: Caller) -> None:
        for d in self.factors:
            self._dispatch(call, f"d{d}", 0.15, clone_factor=d)
        self.counts["ops"] = self.counts["requests"]

    def check(self) -> dict:
        violations = self._audit()
        if len(self.results) != len(self.factors):
            violations.append("a dispatch call failed")
        _require(violations)
        return {
            "dispatch": {label: _dispatch_outputs(result)
                         for label, result in self.results.items()},
            "clock_ms": round(self.clock.now, 2),
        }


#: The protected policy of the ``frontdoor_overload`` experiment.
PROTECTED = ResiliencePolicy(
    sojourn_bound_ms=25.0, brownout_start=2.0, brownout_full=8.0,
    retry_budget_fraction=0.1, retry_burst=8.0, max_attempts=3,
    breaker_window=16, breaker_failure_threshold=0.7,
    breaker_min_samples=8, breaker_probe_quota=2, deadline_ms=50.0)


class FdControl(_FleetPass):
    """The front door's engine path: resilience, heartbeats, autoscale,
    then a warm drain, in two phases.

    Phase A: 10k requests at rho=0.3, d=8, 40 ms timeouts, the
    protected resilience policy, 50 ms heartbeats and an autoscaler
    that fires. Phase B: ``drain_host("host0")`` (pre-copy), then 10k
    requests at rho=0.15, d=2, 60 ms timeouts and 50 ms heartbeats.
    The phases stay apart: resilient retries during a live drain hit a
    negative deadline slack in ``FrontDoor._readmit`` (README.md). An
    op is one offered request.
    """

    name = "fd_control"

    def drive(self, call: Caller) -> None:
        fleet_stats = self.session.fleet.stats
        placed = fleet_stats["children_placed"]
        autoscale = AutoscalePolicy(
            threshold_rps=0.25 * self.capacity_rps, check_interval_ms=200.0,
            max_replicas=16, scale_step=2)
        self._dispatch(call, "A", 0.3, clone_factor=8, timeout_ms=40.0,
                       resilience=PROTECTED, heartbeat_every_ms=50.0,
                       autoscale=autoscale)
        call(self.session.drain_host, "host0")
        self._dispatch(call, "B", 0.15, clone_factor=2, timeout_ms=60.0,
                       heartbeat_every_ms=50.0)
        self.counts["ops"] = self.counts["requests"]
        self.counts["clones"] = fleet_stats["children_placed"] - placed

    def check(self) -> dict:
        violations = self._audit()
        stats = self.session.stats
        frontdoor, fleet = stats["frontdoor"], stats["fleet"]
        if len(self.results) != 2:
            violations.append("a dispatch call failed")
        if frontdoor["shed"] + frontdoor["retries"] == 0:
            violations.append("resilience neither shed nor retried")
        if frontdoor["breaker_trips"] == 0:
            violations.append("no breaker tripped")
        if frontdoor["autoscale_events"] == 0:
            violations.append("the autoscaler never fired")
        if fleet["migrations_done"] != 1:
            violations.append(
                f"{fleet['migrations_done']} migrations done, expected 1")
        _require(violations)
        return {
            "dispatch": {label: _dispatch_outputs(result)
                         for label, result in self.results.items()},
            "breaker_trips": frontdoor["breaker_trips"],
            "autoscale_events": frontdoor["autoscale_events"],
            "migration_pages": fleet["migration_pages_streamed"],
            "clock_ms": round(self.clock.now, 2),
        }


WORKLOADS = {cls.name: cls for cls in (CloneBurst, CloneChurn, FdSweep,
                                       FdControl)}
