"""The fleet front door: control-plane facade + request dispatcher.

- :mod:`repro.frontdoor.control` — REST-ish routes over the fleet
  (openvim ``httpserver.py`` shape).
- :mod:`repro.frontdoor.dispatch` — the request-cloning load balancer
  (processor-sharing replicas, first-response-wins, cancellation on the
  virtual clock).
- :mod:`repro.frontdoor.model` — the analytic processor-sharing curves
  the headline experiment validates against.
- :mod:`repro.frontdoor.resilience` — overload protection (admission
  control, brownout, retry budgets, circuit breakers) and the seeded
  overload storm (``python -m repro.scenarios overload-storm``).
- :mod:`repro.frontdoor.session` — ``FleetSession``, the multi-host
  counterpart of ``NepheleSession``.
"""

from repro.frontdoor.control import APP_FACTORIES, ControlPlane, Response
from repro.frontdoor.dispatch import (
    DISPATCH_RTT_MS,
    AutoscalePolicy,
    FrontDoor,
    ReplicaServer,
)
from repro.frontdoor.resilience import (
    CircuitBreaker,
    ResiliencePolicy,
    RetryBudget,
    TokenBucket,
    run_overload_storm,
    storm_policy,
)
from repro.frontdoor.results import (
    DispatchResult,
    DispatchTimeout,
    FrontDoorError,
    HostInfo,
    HostInventory,
    NoCapacity,
    Overloaded,
)
from repro.frontdoor.session import FleetSession

__all__ = [
    "APP_FACTORIES",
    "AutoscalePolicy",
    "CircuitBreaker",
    "ControlPlane",
    "DISPATCH_RTT_MS",
    "DispatchResult",
    "DispatchTimeout",
    "FleetSession",
    "FrontDoor",
    "FrontDoorError",
    "HostInfo",
    "HostInventory",
    "NoCapacity",
    "Overloaded",
    "ReplicaServer",
    "ResiliencePolicy",
    "Response",
    "RetryBudget",
    "TokenBucket",
    "run_overload_storm",
    "storm_policy",
]
