"""Request shapes for front-door traffic (FaaS, NGINX, Redis).

The front door dispatches *requests*, not packets: each request carries
a service demand in work-milliseconds drawn from an exponential with
the shape's mean, and a replica is a processor-sharing server that
delivers one work-millisecond per virtual millisecond. A replica
serving a shape alone therefore sustains ``1000 / mean_service_ms``
requests per second — the shapes below are calibrated so that number
matches the per-instance capacities the paper's workloads already use
(Figs 7-11).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.faas import UNIKERNEL_CAPACITY_RPS
from repro.apps.nginx import SERVICE_US_CLONE
from repro.errors import ReproError

#: Single-threaded Redis on Unikraft serves ~85 k GET/SET per second
#: over the PV network path (redis-benchmark magnitude; the Fig 8
#: workload only measures BGSAVE, so this is the one shape constant not
#: anchored to a paper figure).
REDIS_OP_CAPACITY_RPS = 85_000.0


@dataclass(frozen=True)
class RequestShape:
    """One kind of user request, as the load balancer models it."""

    name: str
    #: Mean service demand per request (exponentially distributed).
    mean_service_ms: float
    description: str

    @property
    def capacity_rps(self) -> float:
        """Requests/sec one dedicated replica sustains at full speed."""
        return 1000.0 / self.mean_service_ms


#: FaaS invocation: one replica serves 300 req/s (paper §7.3, lwip).
FAAS_INVOKE = RequestShape(
    name="faas",
    mean_service_ms=1000.0 / UNIKERNEL_CAPACITY_RPS,
    description="OpenFaaS function invocation (Figs 10-11 workload)")

#: NGINX GET: the Fig 7 per-request clone-worker service time.
NGINX_GET = RequestShape(
    name="nginx",
    mean_service_ms=SERVICE_US_CLONE / 1000.0,
    description="NGINX static GET served by a pinned worker clone")

#: Redis GET/SET against a clone replica.
REDIS_OP = RequestShape(
    name="redis",
    mean_service_ms=1000.0 / REDIS_OP_CAPACITY_RPS,
    description="Redis GET/SET against a clone replica")

#: Registry, keyed by shape name (the ``workload`` argument of dispatch).
SHAPES = {shape.name: shape for shape in (FAAS_INVOKE, NGINX_GET, REDIS_OP)}


def as_shape(shape: "RequestShape | str") -> RequestShape:
    """Resolve a shape by name, passing instances through."""
    if isinstance(shape, RequestShape):
        return shape
    try:
        return SHAPES[shape]
    except KeyError:
        raise ReproError(
            f"unknown request shape {shape!r} (known: {sorted(SHAPES)})"
        ) from None
