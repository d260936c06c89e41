"""The Nephele platform: one physical host, fully wired.

This is the main entry point of the library:

    from repro import Platform, DomainConfig, VifConfig

    platform = Platform.create()
    config = DomainConfig(name="udp0", memory_mb=4,
                          vifs=[VifConfig(ip="10.0.1.1")], max_clones=8)
    domain = platform.xl.create(config, app=MyApp())
    children = platform.cloneop.clone(domain.domid, count=4)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cloneop import CloneOp
from repro.core.xencloned import CloneSwitchMode, Xencloned
from repro.devices.p9 import P9BackendPolicy
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim import CostModel, DeterministicRNG, Engine, VirtualClock
from repro.sim.units import GIB
from repro.toolstack.dom0 import Dom0
from repro.toolstack.xl import XL
from repro.xen.domctl import DomCtl
from repro.xen.hypervisor import Hypervisor
from repro.xenstore.store import XenstoreDaemon


@dataclass
class PlatformConfig:
    """Host configuration (defaults: the paper's testbed, §6)."""

    total_memory_bytes: int = 16 * GIB
    dom0_memory_bytes: int = 4 * GIB
    cpus: int = 4
    seed: int = 0xC10E
    #: Nephele vs pre-Nephele Xenstore cloning (Fig 4 ablation).
    use_xs_clone: bool = True
    #: Clone vif aggregation: bond (default) or OVS groups.
    switch_mode: CloneSwitchMode = CloneSwitchMode.BOND
    #: 9pfs backend cloning policy.
    p9_policy: P9BackendPolicy = P9BackendPolicy.SHARED_PROCESS
    #: oxenstored access logging (its rotation causes the Fig 4 spikes).
    xenstore_log: bool = True
    #: xl name-uniqueness check (the LightVM superlinear effect).
    xl_check_names: bool = False
    #: Clone-path tracing (repro.obs). Off by default: benchmarks run
    #: untraced; sessions and the CLI shell enable it.
    trace: bool = False
    #: Span ring capacity when tracing is enabled.
    trace_capacity: int = 16384
    #: Deterministic fault injection (repro.faults). None or an empty
    #: plan keeps every hook a no-op (the golden series stay
    #: byte-identical).
    fault_plan: FaultPlan | None = None
    #: Host identity when this platform is one member of a
    #: :class:`repro.fleet.Fleet`; stamped on every exported span and
    #: trace report for per-host attribution. Empty for a standalone
    #: host.
    host_name: str = ""

    @property
    def guest_pool_bytes(self) -> int:
        return self.total_memory_bytes - self.dom0_memory_bytes


class Platform:
    """A host running Xen + Nephele."""

    def __init__(self, config: PlatformConfig | None = None,
                 costs: CostModel | None = None) -> None:
        self.config = config if config is not None else PlatformConfig()
        self.costs = costs if costs is not None else CostModel()
        self.clock = VirtualClock()
        self.tracer = (Tracer(self.clock, capacity=self.config.trace_capacity,
                              host=self.config.host_name)
                       if self.config.trace else NULL_TRACER)
        self.engine = Engine(self.clock)
        self.engine.tracer = self.tracer
        self.rng = DeterministicRNG(self.config.seed)
        plan = self.config.fault_plan
        #: The platform's injector: NULL_INJECTOR unless a non-empty
        #: fault plan was configured. The RNG stream is forked so fault
        #: draws never shift any other component's sequence.
        self.faults = (FaultInjector(plan, clock=self.clock,
                                     rng=self.rng.fork("faults"),
                                     tracer=self.tracer)
                       if plan is not None and plan.specs else NULL_INJECTOR)

        self.hypervisor = Hypervisor(
            self.config.guest_pool_bytes, cpus=self.config.cpus,
            clock=self.clock, costs=self.costs, tracer=self.tracer,
            faults=self.faults)
        self.xenstore = XenstoreDaemon(
            self.clock, self.costs, log_enabled=self.config.xenstore_log,
            tracer=self.tracer, faults=self.faults)
        self.dom0 = Dom0(self.hypervisor, self.xenstore,
                         self.config.dom0_memory_bytes,
                         p9_policy=self.config.p9_policy)
        self.domctl = DomCtl(self.hypervisor)
        self.cloneop = CloneOp(self.hypervisor)
        self.xencloned = Xencloned(
            self.hypervisor, self.dom0, self.cloneop,
            use_xs_clone=self.config.use_xs_clone,
            switch_mode=self.config.switch_mode)
        self.xl = XL(self, check_names=self.config.xl_check_names)

    @classmethod
    def create(cls, **overrides) -> "Platform":
        """Build a platform, overriding :class:`PlatformConfig` fields."""
        costs = overrides.pop("costs", None)
        return cls(PlatformConfig(**overrides), costs=costs)

    def attach_faults(self, plan: FaultPlan) -> FaultInjector:
        """Arm (or re-arm) fault injection after construction.

        Threads a fresh injector through every component that holds
        one (hypervisor, frame table, xenstored). The fleet layer uses
        this to give every member host a live injector — even with an
        empty plan — so host-kill chaos can arm per-operation faults
        on a dying host at runtime (:meth:`FaultInjector.arm`).
        """
        injector = FaultInjector(plan, clock=self.clock,
                                 rng=self.rng.fork("faults"),
                                 tracer=self.tracer)
        self.faults = injector
        self.hypervisor.faults = injector
        self.hypervisor.frames.faults = injector
        self.xenstore.faults = injector
        return injector

    def close(self) -> None:
        """Take the host apart, so that a dropped platform is freed by
        reference count rather than by the cyclic collector.

        Nothing is simulated: no request, charge or span, so the clock,
        the trace and the counters read as before, and every domain
        keeps its frames. xencloned stops and the in-flight clone state
        is purged, as on a fleet host's power-off; xl and Dom0 drop
        their registrations and Dom0 its vif backends; and every domain
        drops its guest kernel and frontends, the unlink
        ``destroy_domain`` ends with.
        """
        self.xencloned.shutdown()
        self.cloneop.host_shutdown()
        self.xl.shutdown()
        self.dom0.shutdown()
        self.hypervisor.detach_guests()

    # ------------------------------------------------------------------
    # convenience metrics
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.clock.now

    def free_hypervisor_bytes(self) -> int:
        """Guest-pool memory still free (Fig 5 "Hyp free")."""
        return self.hypervisor.free_bytes

    def free_dom0_bytes(self) -> int:
        """Dom0 memory still free (Fig 5 "Dom0 free")."""
        return self.dom0.free_bytes

    def guest_count(self) -> int:
        """Number of live guest domains."""
        return len(self.hypervisor.domains)

    def check_invariants(self) -> None:
        """Frame-conservation and family-tree sanity checks."""
        self.hypervisor.frames.check_invariants()
        for domain in self.hypervisor.domains.values():
            if domain.parent_id is not None:
                parent = self.hypervisor.domains.get(domain.parent_id)
                if parent is not None and domain.domid not in parent.children:
                    raise AssertionError(
                        f"family link broken: {domain.domid} not in "
                        f"children of {domain.parent_id}")
        for child_domid in self.cloneop._pending:
            if child_domid not in self.hypervisor.domains:
                raise AssertionError(
                    f"pending second stage for dead domain {child_domid}")
        for child_domid in self.cloneop._failed:
            if child_domid in self.hypervisor.domains:
                raise AssertionError(
                    f"failure report for live domain {child_domid}")
