"""Nephele reproduction: cloning unikernel-based VMs on a simulated Xen.

Reproduces Lupu et al., "Nephele: Extending Virtualization Environments
for Cloning Unikernel-based VMs" (EuroSys 2023) as a deterministic
discrete-event simulation. See DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-measured results.
"""

import importlib

from repro.api import NepheleSession, SessionError
from repro.errors import ReproError
from repro.guest.app import GuestApp
from repro.platform import Platform, PlatformConfig
from repro.sim import CostModel
from repro.toolstack.config import DomainConfig, P9Config, VifConfig

__version__ = "1.0.0"

__all__ = [
    "NepheleSession",
    "FleetSession",
    "Platform",
    "PlatformConfig",
    "CostModel",
    "DomainConfig",
    "VifConfig",
    "P9Config",
    "GuestApp",
    "CloneResult",
    "FamilyPlacement",
    "DispatchResult",
    "HostInventory",
    "ReproError",
    "SessionError",
    "FrontDoorError",
    "DispatchTimeout",
    "NoCapacity",
    "__version__",
]

#: The fleet and front-door tiers, resolved on first use (PEP 562) so
#: that importing the single-host clone path does not load them.
_LAZY = {
    "CloneResult": "repro.fleet.fleet",
    "FamilyPlacement": "repro.fleet.fleet",
    "DispatchResult": "repro.frontdoor.results",
    "DispatchTimeout": "repro.frontdoor.results",
    "FrontDoorError": "repro.frontdoor.results",
    "HostInventory": "repro.frontdoor.results",
    "NoCapacity": "repro.frontdoor.results",
    "FleetSession": "repro.frontdoor.session",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
