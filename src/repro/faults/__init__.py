"""Deterministic fault injection for the Nephele reproduction.

The cloning pipeline has many partial-failure points — grant
exhaustion, Xenstore transaction conflicts, notification-ring
backpressure, lost vIRQ wake-ups, device-attach errors. This package
makes those failures *schedulable*: a :class:`FaultPlan` arms named
injection sites (see :mod:`repro.faults.sites`) with deterministic
triggers, the :class:`FaultInjector` fires them from hooks threaded
through the hot paths, and :mod:`repro.faults.chaos` runs randomized
plans against a clone workload while auditing that nothing leaks
(``python -m repro.scenarios xen-chaos kvm-chaos`` checks both storms
against their pins).

The failure model (every site, its real-Xen analogue, its recovery
semantics) is documented in ``docs/FAULTS.md``; a test keeps that
document in sync with the registry.
"""

from repro.faults.injector import (
    NULL_INJECTOR,
    FaultInjector,
    InjectedFaultError,
    NullFaultInjector,
)
from repro.faults.plan import EMPTY_PLAN, FaultPlan, FaultPlanError, FaultSpec
from repro.faults.sites import (
    KVM_SITES,
    SITES,
    FaultKind,
    InjectionSite,
    host_sites,
    migration_sites,
    site_names,
)

__all__ = [
    "KVM_SITES",
    "SITES",
    "EMPTY_PLAN",
    "NULL_INJECTOR",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "InjectedFaultError",
    "InjectionSite",
    "NullFaultInjector",
    "audit_kvm_platform",
    "audit_platform",
    "host_sites",
    "migration_sites",
    "run_chaos",
    "run_kvm_chaos",
    "site_names",
]

#: Chaos-harness names, resolved on first use (PEP 562): the clone path
#: imports this package for the injector and must not load the harness.
_CHAOS = ("audit_kvm_platform", "audit_platform", "run_chaos",
          "run_kvm_chaos")


def __getattr__(name: str):
    if name not in _CHAOS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.faults import chaos

    value = globals()[name] = getattr(chaos, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
