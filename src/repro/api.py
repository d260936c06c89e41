"""The session API: one instrumented front door to a Nephele host.

:class:`NepheleSession` wires a full platform (hypervisor, Xenstore,
Dom0, CLONEOP, xencloned, xl) behind a handful of verbs, with tracing
on by default::

    from repro import NepheleSession

    with NepheleSession() as session:
        web = session.boot("web0", memory_mb=8, ip="10.0.1.1",
                           max_clones=64)
        session.clone(web, count=16)
        print(session.trace_report())

Domains are addressed by name or domid interchangeably. The session is
a context manager: a clean exit runs the platform's frame-conservation
and family-tree invariant checks, so tests and examples get end-of-run
validation for free.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ReproError
from repro.metrics import PlatformSnapshot, counters, snapshot
from repro.obs.report import dump_report, run_report
from repro.platform import Platform
from repro.toolstack.config import DomainConfig, P9Config, VifConfig
from repro.toolstack.xl import SavedImage
from repro.xen.domain import Domain


class SessionError(ReproError):
    """Session misuse (unknown domain name, closed session, ...)."""


class NepheleSession:
    """A fully wired Nephele host with tracing and lifecycle verbs.

    Keyword arguments are forwarded to
    :class:`~repro.platform.PlatformConfig` (plus ``costs``), so every
    platform knob — ``use_xs_clone``, ``switch_mode``, ``xenstore_log``,
    seeds and memory splits — is available here too. ``trace`` defaults
    to True (the raw ``Platform`` defaults to untraced).
    """

    def __init__(self, **overrides: Any) -> None:
        overrides.setdefault("trace", True)
        self.platform = Platform.create(**overrides)
        self._closed = False

    @staticmethod
    def fleet(**config_kwargs: Any) -> Any:
        """A :class:`~repro.frontdoor.session.FleetSession`: the
        multi-host session (fleet + control plane + request-cloning
        front door). Keyword arguments mirror
        :class:`~repro.fleet.fleet.FleetConfig`, plus ``plan`` for a
        host-level fault plan::

            with NepheleSession.fleet(hosts=4) as session:
                session.create_family("web", ip="10.1.1.1")
                session.dispatch("web", "faas", requests=10_000,
                                 arrival_rps=500.0, clone_factor=2)
        """
        from repro.frontdoor.session import FleetSession

        return FleetSession(**config_kwargs)

    # ------------------------------------------------------------------
    # context manager
    # ------------------------------------------------------------------
    def __enter__(self) -> "NepheleSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close(check=exc_type is None)
        return False

    def close(self, check: bool = True) -> None:
        """End the session: optionally verify platform invariants, then
        take the host apart (:meth:`Platform.close`), so the platform is
        freed by reference count once the session is dropped. Its
        clock, trace and counters still read as at the end of the run;
        its guests have lost their kernels and backends, so drive it no
        further.
        """
        if self._closed:
            return
        self._closed = True
        if check:
            self.platform.check_invariants()
        self.platform.close()

    # ------------------------------------------------------------------
    # passthrough accessors
    # ------------------------------------------------------------------
    @property
    def hypervisor(self):
        """The :class:`~repro.xen.hypervisor.Hypervisor`."""
        return self.platform.hypervisor

    @property
    def dom0(self):
        """The privileged host domain (:class:`~repro.toolstack.dom0.Dom0`)."""
        return self.platform.dom0

    @property
    def xl(self):
        """The toolstack (:class:`~repro.toolstack.xl.XL`)."""
        return self.platform.xl

    @property
    def xenstore(self):
        """The Xenstore daemon."""
        return self.platform.xenstore

    @property
    def cloneop(self):
        """The CLONEOP hypercall implementation."""
        return self.platform.cloneop

    @property
    def xencloned(self):
        """The second-stage daemon."""
        return self.platform.xencloned

    @property
    def domctl(self):
        """The domctl interface."""
        return self.platform.domctl

    @property
    def engine(self):
        """The discrete-event engine."""
        return self.platform.engine

    @property
    def rng(self):
        """The session's deterministic RNG."""
        return self.platform.rng

    @property
    def clock(self):
        """The virtual clock all simulated costs are charged to."""
        return self.platform.clock

    @property
    def costs(self):
        """The cost model driving the virtual clock."""
        return self.platform.costs

    @property
    def config(self):
        """The :class:`~repro.platform.PlatformConfig` in effect."""
        return self.platform.config

    @property
    def tracer(self):
        """The session tracer (a no-op tracer when ``trace=False``)."""
        return self.platform.tracer

    @property
    def faults(self):
        """The fault injector (the no-op NULL_INJECTOR unless the
        session was built with a non-empty ``fault_plan``)."""
        return self.platform.faults

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self.platform.now

    # ------------------------------------------------------------------
    # domain addressing
    # ------------------------------------------------------------------
    def domain(self, ref: "int | str | Domain") -> Domain:
        """Resolve a domain by domid, name, or identity."""
        if isinstance(ref, Domain):
            return ref
        if isinstance(ref, int):
            return self.hypervisor.get_domain(ref)
        for candidate in self.hypervisor.domains.values():
            if candidate.name == ref:
                return candidate
        raise SessionError(f"no domain named {ref!r}")

    def domains(self) -> list[Domain]:
        """All live domains, sorted by domid."""
        return sorted(self.hypervisor.domains.values(),
                      key=lambda d: d.domid)

    # ------------------------------------------------------------------
    # lifecycle verbs
    # ------------------------------------------------------------------
    def boot(self, name_or_config: "str | DomainConfig", *,
             memory_mb: int = 4, vcpus: int = 1, ip: str | None = None,
             vifs: list[VifConfig] | None = None,
             p9fs: list[P9Config] | None = None, max_clones: int = 0,
             app: Any = None, **config_kwargs: Any) -> Domain:
        """Boot a guest and return the running domain.

        Pass a ready :class:`DomainConfig`, or a name plus keyword
        shorthand (``ip=`` builds a single-vif config).
        """
        if isinstance(name_or_config, DomainConfig):
            config = name_or_config
        else:
            if vifs is None:
                vifs = [VifConfig(ip=ip)] if ip is not None else []
            config = DomainConfig(
                name=name_or_config, memory_mb=memory_mb, vcpus=vcpus,
                vifs=vifs, p9fs=p9fs if p9fs is not None else [],
                max_clones=max_clones, **config_kwargs)
        return self.xl.create(config, app=app)

    def clone(self, ref: "int | str | Domain", count: int = 1,
              from_guest: bool = False) -> list[int]:
        """Clone a guest ``count`` times; returns the children's domids.

        By default the clone is driven from Dom0 (``xl clone``); pass
        ``from_guest=True`` to model the guest cloning itself via the
        CLONEOP hypercall (sys_fork-style, paper §5.2.2).
        """
        domain = self.domain(ref)
        if from_guest:
            return self.cloneop.clone(domain.domid, count=count)
        return self.xl.clone(domain.domid, count=count)

    def destroy(self, ref: "int | str | Domain") -> None:
        """Tear a guest down (``xl destroy``)."""
        self.xl.destroy(self.domain(ref).domid)

    def save(self, ref: "int | str | Domain",
             destroy: bool = True) -> SavedImage:
        """``xl save``: dump the guest to an image."""
        return self.xl.save(self.domain(ref).domid, destroy=destroy)

    def restore(self, image: SavedImage,
                name: str | None = None) -> Domain:
        """``xl restore``: rebuild a guest from a save image."""
        return self.xl.restore(image, name=name)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def snapshot(self) -> PlatformSnapshot:
        """One structured snapshot of host state (memory, families...)."""
        return snapshot(self.platform)

    def trace_report(self) -> str:
        """The per-stage virtual-time breakdown table, as text."""
        tracer = self.tracer
        if not tracer.enabled:
            return "(tracing disabled: pass trace=True to NepheleSession)"
        return tracer.format_summary()

    def trace_export(self, path: str | None = None,
                     **meta: Any) -> dict[str, Any]:
        """The machine-readable run report; optionally written as JSON.

        The report carries the platform's event counters
        (:func:`repro.metrics.counters`) next to the spans. ``meta``
        entries (experiment name, parameters...) are embedded in the
        report so diffs identify their runs.
        """
        tracer = self.tracer
        if not tracer.enabled:
            raise SessionError(
                "tracing disabled: pass trace=True to NepheleSession")
        if path is None:
            return run_report(tracer, counters(self.platform), **meta)
        return dump_report(tracer, path, counters(self.platform), **meta)
