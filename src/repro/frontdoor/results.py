"""Typed results and errors of the front-door control plane.

Every public front-door verb returns a small frozen dataclass instead
of a dict or tuple, so callers get attribute access, ``repr`` for free,
and a stable JSON shape via ``to_dict()``. The error hierarchy mirrors
the rest of the library: everything derives from :class:`ReproError`
through :class:`FrontDoorError`, so ``except ReproError`` still catches
front-door failures.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from repro.errors import ReproError


class FrontDoorError(ReproError):
    """Front-door failure (bad request, dispatch machinery misuse)."""


class NoCapacity(FrontDoorError):
    """No (or not enough) ready replicas to dispatch a request to."""


class DispatchTimeout(FrontDoorError):
    """A synchronously dispatched request exceeded its deadline."""


class Overloaded(FrontDoorError):
    """Admission control shed the request (HTTP 429, not 503).

    Carries a deterministic ``retry_after_ms`` hint computed from the
    analytic PS model (:func:`repro.frontdoor.model.retry_after_ms`):
    one expected sojourn at the operating point that caused the shed.
    """

    def __init__(self, message: str, retry_after_ms: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


@dataclass(frozen=True)
class HostInfo:
    """One member host, as the control-plane inventory sees it."""

    name: str
    state: str
    free_frames: int
    guests: int
    #: Family names with a parent replica on this host.
    replicas: tuple[str, ...] = ()
    #: Clone instances living on this host, across all families.
    clones: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        data = asdict(self)
        data["replicas"] = list(self.replicas)
        return data


@dataclass(frozen=True)
class HostInventory:
    """The fleet's host inventory (``GET /hosts``)."""

    hosts: tuple[HostInfo, ...]
    policy: str
    beats: int
    clock_ms: float

    def host(self, name: str) -> HostInfo:
        """The inventory entry for ``name``."""
        for info in self.hosts:
            if info.name == name:
                return info
        raise FrontDoorError(f"unknown host {name!r}")

    def live(self) -> tuple[HostInfo, ...]:
        """Hosts the control plane can still place work on."""
        return tuple(h for h in self.hosts if h.state in ("up", "degraded"))

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "hosts": [h.to_dict() for h in self.hosts],
            "policy": self.policy,
            "beats": self.beats,
            "clock_ms": self.clock_ms,
        }


@dataclass(frozen=True)
class DispatchResult:
    """Outcome of one request-dispatch run against a clone family.

    Counts obey the front-door conservation laws checked by
    :func:`repro.fleet.chaos.audit_fleet`:
    ``requests == completed + failed + timed_out`` and
    ``copies == copies_won + copies_cancelled + copies_lost +
    copies_timed_out``. Latency statistics are exact (computed from the
    full per-request latency series, not from histogram buckets).
    ``fingerprint`` is a sha256 over the per-request latencies plus the
    counters, so two same-seed runs must match byte-for-byte.
    """

    family: str
    workload: str
    clone_factor: int
    requests: int
    completed: int
    failed: int
    timed_out: int
    copies: int
    copies_won: int
    copies_cancelled: int
    copies_lost: int
    copies_timed_out: int
    arrival_rps: float
    duration_ms: float
    throughput_rps: float
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_max_ms: float
    #: Total service work delivered by the replicas (winner + cancelled
    #: partial work), in work-milliseconds.
    work_served_ms: float
    #: Work that completed requests actually required (their demands).
    work_useful_ms: float
    #: 1 - useful/served: the request-cloning overhead.
    waste_fraction: float
    fingerprint: str
    #: First-try requests offered to admission control. Equals
    #: ``requests + shed`` (the admission conservation law); without a
    #: resilience policy nothing is shed, so ``offered == requests``.
    offered: int = 0
    #: First-try requests shed by admission control before any copy
    #: was placed. Shed requests are *not* counted in ``requests``.
    shed: int = 0
    #: Retry attempts granted by the retry budget during the run.
    retries: int = 0
    #: Completed-request counts per equal-offered segment of the run
    #: (``report_segments`` of them; empty when not requested). Offered
    #: load is flat across segments by construction, so a falling
    #: series is goodput collapse. Excluded from the fingerprint.
    segment_completed: tuple = ()

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        data = asdict(self)
        data["segment_completed"] = list(self.segment_completed)
        return data
