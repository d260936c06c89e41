"""The REST-ish control plane over a fleet (openvim httpserver shape).

One production-style entry point for everything the fleet can do:
family lifecycle (create / list / clone / destroy), host inventory, and
request dispatch. The router maps ``(method, path regex)`` pairs to
handler methods exactly like openvim's ``httpserver.py`` maps Bottle
routes onto ``vim_db`` operations — minus the HTTP server itself: the
simulation speaks :meth:`ControlPlane.handle` directly, and every
handler is also a plain typed-result method (``inventory()``,
``dispatch(...)``) for callers that do not want to marshal dicts.

Error mapping follows the usual REST conventions: unknown resources are
404, malformed requests 400, conflicts 409, :class:`NoCapacity` 503,
:class:`DispatchTimeout` 504 and :class:`Overloaded` 429 — the latter
with a deterministic ``retry_after_ms`` hint from the analytic PS model
— all carried as :class:`Response` objects rather than exceptions, so
scenario scripts can assert on status codes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.udp_server import UdpServerApp
from repro.errors import ReproError
from repro.fleet.fleet import Fleet, FleetError
from repro.frontdoor.dispatch import AutoscalePolicy, FrontDoor
from repro.frontdoor.resilience import ResiliencePolicy
from repro.frontdoor.results import (
    DispatchResult,
    DispatchTimeout,
    FrontDoorError,
    HostInfo,
    HostInventory,
    NoCapacity,
    Overloaded,
)
from repro.toolstack.config import DomainConfig, VifConfig

#: Guest app factories a family may be created with over the wire
#: (factories are code, so the API names them instead of carrying them).
APP_FACTORIES: dict[str, Callable[[], Any] | None] = {
    "udp": UdpServerApp,
    "none": None,
}


@dataclass(frozen=True)
class Response:
    """One control-plane response: an HTTP-ish status plus a body."""

    status: int
    body: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class ControlPlane:
    """The front-door facade: REST-ish routes over fleet + dispatcher."""

    def __init__(self, fleet: Fleet, frontdoor: FrontDoor | None = None
                 ) -> None:
        self.fleet = fleet
        self.frontdoor = (frontdoor if frontdoor is not None
                          else FrontDoor(fleet))

    # ------------------------------------------------------------------
    # the router
    # ------------------------------------------------------------------
    def handle(self, method: str, path: str,
               body: dict[str, Any] | None = None) -> Response:
        """Route one request; never raises — errors become statuses."""
        method = method.upper()
        matched_path = False
        for route_method, pattern, handler in self._ROUTES:
            match = pattern.match(path)
            if match is None:
                continue
            matched_path = True
            if route_method != method:
                continue
            try:
                return handler(self, body or {}, **match.groupdict())
            except Overloaded as exc:
                # Shed by admission control: 429, not 503 — the
                # capacity exists, the client is asked to back off for
                # a deterministic PS-model sojourn.
                return Response(429, {
                    "error": str(exc),
                    "retry_after_ms": round(exc.retry_after_ms, 6)})
            except NoCapacity as exc:
                return Response(503, {"error": str(exc)})
            except DispatchTimeout as exc:
                return Response(504, {"error": str(exc)})
            except FleetError as exc:
                # Placement exhaustion surfaces as 503 whichever layer
                # (dispatcher or fleet) ran out of room first.
                capacity = "no host" in str(exc)
                return Response(503 if capacity else 400,
                                {"error": str(exc)})
            except FrontDoorError as exc:
                return Response(400, {"error": str(exc)})
            except ReproError as exc:
                return Response(500, {"error": str(exc)})
        if matched_path:
            return Response(405, {"error": f"{method} not allowed on {path}"})
        return Response(404, {"error": f"no route for {path}"})

    # ------------------------------------------------------------------
    # typed verbs (the handlers delegate here)
    # ------------------------------------------------------------------
    def inventory(self) -> HostInventory:
        """The fleet's host inventory, as a typed snapshot."""
        infos = []
        for host in self.fleet.hosts:
            replicas = tuple(sorted(
                family.name for family in self.fleet.families.values()
                if host.name in family.replicas))
            clones = sum(len(family.clones.get(host.name, ()))
                         for family in self.fleet.families.values())
            infos.append(HostInfo(
                name=host.name, state=host.state.value,
                free_frames=host.free_frames,
                guests=host.platform.guest_count(),
                replicas=replicas, clones=clones))
        return HostInventory(hosts=tuple(infos),
                             policy=self.fleet.policy.name,
                             beats=self.fleet.beats,
                             clock_ms=round(self.fleet.clock.now, 6))

    def create_family(self, name: str, *, memory_mb: int = 4,
                      ip: str | None = None, app: str = "udp",
                      max_clones: int = 1024) -> dict[str, Any]:
        """Create + place a cloneable family; returns its placement."""
        if app not in APP_FACTORIES:
            raise FrontDoorError(
                f"unknown app {app!r} (known: {sorted(APP_FACTORIES)})")
        vifs = [VifConfig(ip=ip)] if ip is not None else []
        config = DomainConfig(name=name, memory_mb=memory_mb, vifs=vifs,
                              max_clones=max_clones)
        placement = self.fleet.create_family(
            config, app_factory=APP_FACTORIES[app])
        return placement.to_dict()

    def drain_host(self, name: str,
                   mode: str = "precopy") -> dict[str, Any]:
        """Evacuate a host: warm-migrate every family it holds away.

        Returns the host's new state plus the planned migration
        records; the migrations stream on subsequent heartbeats (drive
        them with ``dispatch(..., heartbeat_every_ms=...)`` or
        ``fleet.run_heartbeats``).
        """
        if mode not in ("precopy", "postcopy"):
            raise FrontDoorError(
                f"unknown migration mode {mode!r} "
                f"(known: precopy, postcopy)")
        records = self.fleet.drain_host(name, mode=mode)
        return {
            "host": name,
            "state": self.fleet.host(name).state.value,
            "migrations": [record.to_dict() for record in records],
        }

    def dispatch(self, family: str, workload: str = "faas", *,
                 requests: int = 1000, arrival_rps: float = 100.0,
                 clone_factor: int = 1, timeout_ms: float | None = None,
                 autoscale: AutoscalePolicy | None = None,
                 heartbeat_every_ms: float | None = None,
                 resilience: ResiliencePolicy | None = None,
                 report_segments: int = 0,
                 label: str = "") -> DispatchResult:
        """Run a request-dispatch workload against a family."""
        return self.frontdoor.run_workload(
            family, workload, requests=requests, arrival_rps=arrival_rps,
            clone_factor=clone_factor, timeout_ms=timeout_ms,
            autoscale=autoscale, heartbeat_every_ms=heartbeat_every_ms,
            resilience=resilience, report_segments=report_segments,
            label=label)

    # ------------------------------------------------------------------
    # route handlers
    # ------------------------------------------------------------------
    def _route_hosts(self, body: dict[str, Any]) -> Response:
        return Response(200, self.inventory().to_dict())

    def _route_host(self, body: dict[str, Any], name: str) -> Response:
        try:
            info = self.inventory().host(name)
        except FrontDoorError as exc:
            return Response(404, {"error": str(exc)})
        return Response(200, info.to_dict())

    def _route_drain(self, body: dict[str, Any], name: str) -> Response:
        if name not in {host.name for host in self.fleet.hosts}:
            return Response(404, {"error": f"unknown host {name!r}"})
        return Response(200, self.drain_host(
            name, mode=str(body.get("mode", "precopy"))))

    def _route_status(self, body: dict[str, Any]) -> Response:
        return Response(200, {
            "fleet": self.fleet.report(),
            "frontdoor": self.frontdoor.report(),
        })

    def _route_families(self, body: dict[str, Any]) -> Response:
        return Response(200, {
            "families": sorted(self.fleet.families),
        })

    def _route_family(self, body: dict[str, Any], name: str) -> Response:
        family = self.fleet.families.get(name)
        if family is None:
            return Response(404, {"error": f"unknown family {name!r}"})
        migration = family.migration
        return Response(200, {
            "name": family.name,
            "origin": family.origin,
            "replicas": dict(sorted(family.replicas.items())),
            "clones": {host: sorted(domids) for host, domids
                       in sorted(family.clones.items())},
            # Placement-change counter the front door keys its pool
            # cache on: a poller can skip re-reading the placement
            # whenever the epoch has not moved.
            "topology_epoch": self.fleet.topology_epoch,
            # Live migration state: ``migrating`` while a warm move is
            # streaming; the host pair and round progress come from the
            # family's latest migration record (null if never migrated).
            "migrating": bool(migration is not None and migration.active),
            "source_host": (migration.source if migration is not None
                            else None),
            "target_host": (migration.target if migration is not None
                            else None),
            "rounds_done": (migration.rounds_done
                            if migration is not None else 0),
            # Per-replica circuit-breaker state for this family's pool
            # (null when the front door runs without a resilience
            # policy): lets an operator see which replicas dispatch is
            # currently routing around.
            "resilience": self.frontdoor.family_resilience(name),
        })

    def _route_create(self, body: dict[str, Any]) -> Response:
        name = body.get("name")
        if not name or not isinstance(name, str):
            return Response(400, {"error": "family 'name' is required"})
        if name in self.fleet.families:
            return Response(409,
                            {"error": f"family {name!r} already exists"})
        placement = self.create_family(
            name, memory_mb=int(body.get("memory_mb", 4)),
            ip=body.get("ip"), app=body.get("app", "udp"),
            max_clones=int(body.get("max_clones", 1024)))
        return Response(201, placement)

    def _route_destroy(self, body: dict[str, Any], name: str) -> Response:
        if name not in self.fleet.families:
            return Response(404, {"error": f"unknown family {name!r}"})
        self.fleet.destroy_family(name)
        return Response(200, {"destroyed": name})

    def _route_clone(self, body: dict[str, Any], name: str) -> Response:
        if name not in self.fleet.families:
            return Response(404, {"error": f"unknown family {name!r}"})
        count = int(body.get("count", 1))
        result = self.fleet.clone_family(name, count=count)
        return Response(200, result.to_dict())

    def _route_dispatch(self, body: dict[str, Any]) -> Response:
        family = body.get("family")
        if not family or not isinstance(family, str):
            return Response(400, {"error": "'family' is required"})
        if family not in self.fleet.families:
            return Response(404, {"error": f"unknown family {family!r}"})
        timeout = body.get("timeout_ms")
        policy = body.get("resilience")
        if policy is not None and not isinstance(policy, ResiliencePolicy):
            policy = ResiliencePolicy(**policy)
        result = self.dispatch(
            family, body.get("workload", "faas"),
            requests=int(body.get("requests", 1000)),
            arrival_rps=float(body.get("arrival_rps", 100.0)),
            clone_factor=int(body.get("clone_factor", 1)),
            timeout_ms=None if timeout is None else float(timeout),
            resilience=policy,
            report_segments=int(body.get("report_segments", 0)),
            label=str(body.get("label", "")))
        if result.offered and result.shed == result.offered:
            # Admission shed the whole run: the aggregate analogue of
            # the single-request 429, with the same deterministic hint.
            return Response(429, {
                "error": f"all {result.offered} requests shed",
                "retry_after_ms": round(self.frontdoor.retry_after_hint_ms(
                    family, body.get("workload", "faas")), 6),
                "result": result.to_dict()})
        return Response(200, result.to_dict())

    #: The route table, openvim-style: first match wins. Handlers are
    #: the plain functions above, called with the control plane, so an
    #: instance holds no bound methods of itself.
    _ROUTES: tuple[tuple[str, re.Pattern[str], Callable[..., Response]],
                   ...] = (
        ("GET", re.compile(r"^/hosts$"), _route_hosts),
        ("GET", re.compile(r"^/hosts/(?P<name>[^/]+)$"), _route_host),
        ("POST", re.compile(r"^/hosts/(?P<name>[^/]+)/drain$"),
         _route_drain),
        ("GET", re.compile(r"^/status$"), _route_status),
        ("GET", re.compile(r"^/families$"), _route_families),
        ("POST", re.compile(r"^/families$"), _route_create),
        ("GET", re.compile(r"^/families/(?P<name>[^/]+)$"), _route_family),
        ("DELETE", re.compile(r"^/families/(?P<name>[^/]+)$"),
         _route_destroy),
        ("POST", re.compile(r"^/families/(?P<name>[^/]+)/clone$"),
         _route_clone),
        ("POST", re.compile(r"^/dispatch$"), _route_dispatch),
    )
