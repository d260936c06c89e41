"""``FleetSession``: the multi-host counterpart of ``NepheleSession``.

One context-managed object wiring a :class:`~repro.fleet.fleet.Fleet`,
its :class:`~repro.frontdoor.dispatch.FrontDoor` and the REST-ish
:class:`~repro.frontdoor.control.ControlPlane` facade::

    from repro import NepheleSession

    with NepheleSession.fleet(hosts=4) as session:
        session.create_family("web", ip="10.1.1.1")
        session.clone("web", count=8)
        result = session.dispatch("web", "faas",
                                  requests=10_000, arrival_rps=500.0,
                                  clone_factor=2)
        print(result.latency_p99_ms)

A clean exit quiesces the fleet and runs the fleet-wide leak oracle
*including* the front-door work-conservation laws; violations raise, so
scenarios get end-of-run validation for free — the same contract
``NepheleSession`` has for a single host.
"""

from __future__ import annotations

from typing import Any

from repro.faults.plan import FaultPlan
from repro.fleet.chaos import audit_fleet
from repro.fleet.fleet import CloneResult, FamilyPlacement, Fleet, FleetConfig
from repro.frontdoor.control import ControlPlane
from repro.frontdoor.dispatch import AutoscalePolicy, FrontDoor
from repro.frontdoor.resilience import ResiliencePolicy
from repro.frontdoor.results import (
    DispatchResult,
    FrontDoorError,
    HostInventory,
)


class FleetSession:
    """A fully wired fleet with a front door, as a context manager.

    Keyword arguments mirror :class:`~repro.fleet.fleet.FleetConfig`
    (``hosts``, ``seed``, ``policy``, ``host_memory_bytes``...); pass a
    :class:`FaultPlan` via ``plan`` to run under host-level chaos, and a
    :class:`~repro.frontdoor.resilience.ResiliencePolicy` via
    ``resilience`` to arm the front door's overload protections for
    every dispatch run.
    """

    def __init__(self, *, plan: FaultPlan | None = None,
                 resilience: ResiliencePolicy | None = None,
                 **config_kwargs: Any) -> None:
        self.fleet = Fleet(FleetConfig(**config_kwargs), plan=plan)
        self.frontdoor = FrontDoor(self.fleet, resilience=resilience)
        self.control = ControlPlane(self.fleet, self.frontdoor)
        self._closed = False

    # ------------------------------------------------------------------
    # context manager
    # ------------------------------------------------------------------
    def __enter__(self) -> "FleetSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close(check=exc_type is None)
        return False

    def close(self, check: bool = True) -> None:
        """Quiesce the fleet; optionally run the fleet-wide leak oracle;
        then take every host apart (:meth:`Platform.close`), so the
        fleet is freed by reference count once the session is dropped.
        """
        if self._closed:
            return
        self._closed = True
        self.fleet.shutdown()
        try:
            if check:
                violations = audit_fleet(self.fleet, self.frontdoor)
                if violations:
                    raise FrontDoorError(
                        "fleet audit failed on session close: "
                        + "; ".join(violations))
        finally:
            for host in self.fleet.hosts:
                host.platform.close()

    # ------------------------------------------------------------------
    # control-plane verbs
    # ------------------------------------------------------------------
    def create_family(self, name: str, **kwargs: Any) -> FamilyPlacement:
        """Create + place a cloneable family (see ``ControlPlane``)."""
        placement = self.control.create_family(name, **kwargs)
        return FamilyPlacement(family=name, host=placement["host"],
                               domid=placement["domid"])

    def clone(self, family: str, count: int = 1) -> CloneResult:
        """Clone ``count`` instances of a family, placed fleet-wide."""
        return self.fleet.clone_family(family, count=count)

    def destroy_family(self, family: str) -> None:
        """Destroy every live instance of a family, fleet-wide."""
        self.fleet.destroy_family(family)

    def dispatch(self, family: str, workload: str = "faas",
                 **kwargs: Any) -> DispatchResult:
        """Run a request-dispatch workload (see ``FrontDoor``)."""
        return self.control.dispatch(family, workload, **kwargs)

    def drain_host(self, name: str, mode: str = "precopy"
                   ) -> dict[str, Any]:
        """Warm-migrate every family off a host (see ``ControlPlane``).

        The planned migrations stream on heartbeats — run a dispatch
        with ``heartbeat_every_ms`` (or ``fleet.run_heartbeats``) to
        advance them.
        """
        return self.control.drain_host(name, mode=mode)

    def inventory(self) -> HostInventory:
        """The fleet's typed host inventory."""
        return self.control.inventory()

    def handle(self, method: str, path: str,
               body: dict[str, Any] | None = None):
        """Raw REST-ish access (``session.handle("GET", "/hosts")``)."""
        return self.control.handle(method, path, body)

    def autoscale_policy(self, **kwargs: Any) -> AutoscalePolicy:
        """Convenience constructor for a dispatch autoscale policy."""
        return AutoscalePolicy(**kwargs)

    # ------------------------------------------------------------------
    # passthrough accessors
    # ------------------------------------------------------------------
    @property
    def clock(self):
        """The fleet's virtual clock."""
        return self.fleet.clock

    @property
    def hosts(self):
        """The member hosts, in index order."""
        return self.fleet.hosts

    @property
    def stats(self) -> dict[str, Any]:
        """Fleet + front-door counters, one merged view."""
        return {"fleet": dict(self.fleet.stats),
                "frontdoor": dict(self.frontdoor.stats)}
