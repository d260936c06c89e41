"""The fault injector: the runtime half of :mod:`repro.faults`.

Hooks threaded through the clone hot paths call :meth:`FaultInjector.fire`
(raise-mode sites) or :meth:`FaultInjector.dropped` (drop-mode sites)
with their call context. The injector matches armed specs, draws
probabilistic triggers from a *forked* RNG stream (so fault draws never
shift any other component's sequence), and raises the real exception
type of the failing layer. Recovery paths report back via
:meth:`recovered`/:meth:`aborted`. ``stats`` and ``by_site`` are the
only store of these counts; :func:`repro.metrics.counters` reports
``stats`` as ``faults.injected/recovered/aborted``.

Mirroring :data:`repro.obs.tracer.NULL_TRACER`, the module-level
:data:`NULL_INJECTOR` is what every component defaults to: an un-faulted
platform pays one no-op method call per hook and nothing else, which is
what keeps the golden figure series byte-identical with an empty plan.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ReproError
from repro.faults.plan import EMPTY_PLAN, FaultKind, FaultPlan, FaultSpec
from repro.obs.tracer import NULL_TRACER


class InjectedFaultError(ReproError):
    """Generic injected I/O-style failure (kind ``eio``).

    Sites with a domain-specific error contract raise the real type
    (ENOMEM -> XenNoMemoryError, EAGAIN -> TransactionConflict,
    RING_FULL -> RingFullError); this class covers the rest.
    """


class NullFaultInjector:
    """The disabled injector: every hook is a no-op.

    Instrumented sites call straight into these methods without
    checking a flag first; the cost of a disabled hook is one method
    call and zero allocations (the NULL_TRACER pattern).
    """

    __slots__ = ()

    enabled = False

    def fire(self, site: str, **ctx: Any) -> None:
        """Never raises (injection is disabled)."""

    def dropped(self, site: str, **ctx: Any) -> bool:
        """Never drops (injection is disabled)."""
        return False

    def event(self, site: str, **ctx: Any) -> bool:
        """Never fires (injection is disabled)."""
        return False

    def recovered(self, site: str) -> None:
        """Discard a recovery report."""

    def aborted(self, site: str) -> None:
        """Discard an abort report."""


#: The process-wide disabled injector; components default to this.
NULL_INJECTOR = NullFaultInjector()


class _ArmedSpec:
    """Mutable per-run trigger state wrapped around one FaultSpec."""

    __slots__ = ("spec", "hits", "fired")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        #: Matching hook hits seen so far (drives ``after``).
        self.hits = 0
        #: Injections produced so far (drives ``count``).
        self.fired = 0

    @property
    def exhausted(self) -> bool:
        """True once the spec's injection budget is spent."""
        count = self.spec.count
        return count is not None and self.fired >= count


class FaultInjector:
    """Deterministic fault injection driven by a plan, clock and RNG."""

    enabled = True

    def __init__(self, plan: FaultPlan | None = None, clock: Any = None,
                 rng: Any = None, tracer: Any = None) -> None:
        self.plan = plan if plan is not None else EMPTY_PLAN
        self.clock = clock
        self.rng = rng
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Master arm switch: harnesses clear it while setting up state
        #: whose failure they are not studying (e.g. booting the parent
        #: fleet before a clone-path chaos run).
        self.active = True
        self.stats = {"injected": 0, "recovered": 0, "aborted": 0}
        #: Per-site counters: site -> {injected, recovered, aborted}.
        self.by_site: dict[str, dict[str, int]] = {}
        self._armed: dict[str, list[_ArmedSpec]] = {}
        for spec in self.plan.specs:
            self._armed.setdefault(spec.site, []).append(_ArmedSpec(spec))

    # ------------------------------------------------------------------
    # hook surface
    # ------------------------------------------------------------------
    def fire(self, site: str, **ctx: Any) -> None:
        """Raise-mode hook: raises the armed error, if any spec matches.

        Hot-path cost with no spec armed for ``site`` is one dict get.
        """
        kind = self._match(site, ctx)
        if kind is not None:
            raise self._error_for(kind, site, ctx)

    def dropped(self, site: str, **ctx: Any) -> bool:
        """Drop-mode hook: True when the event should be silently lost."""
        return self._match(site, ctx) is not None

    def event(self, site: str, **ctx: Any) -> bool:
        """Event-mode hook: True when the armed failure happens now.

        Used by control planes that *react* to a failure rather than
        receive an exception — the host-level sites of the fleet tier.
        """
        return self._match(site, ctx) is not None

    def arm(self, spec: FaultSpec) -> None:
        """Arm one additional spec at runtime.

        The fleet layer uses this to make a host crash take down an
        in-flight clone batch through the existing whole-batch
        rollback: it arms a one-shot per-operation fault on the dying
        host just before running the batch.
        """
        self.plan.specs.append(spec)
        self._armed.setdefault(spec.site, []).append(_ArmedSpec(spec))

    def recovered(self, site: str) -> None:
        """A hardened path survived a failure at ``site`` (retry won)."""
        self.stats["recovered"] += 1
        self._site_stats(site)["recovered"] += 1

    def aborted(self, site: str) -> None:
        """A failure at ``site`` escalated to a (clean) clone abort."""
        self.stats["aborted"] += 1
        self._site_stats(site)["aborted"] += 1

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def _match(self, site: str, ctx: dict[str, Any]) -> FaultKind | None:
        if not self.active:
            return None
        armed = self._armed.get(site)
        if not armed:
            return None
        for entry in armed:
            if entry.exhausted:
                continue
            spec = entry.spec
            if spec.after_ms and (self.clock is None
                                  or self.clock.now < spec.after_ms):
                continue
            if spec.match and any(ctx.get(key) != value
                                  for key, value in spec.match.items()):
                continue
            if spec.predicate is not None and not spec.predicate(ctx):
                continue
            entry.hits += 1
            if entry.hits <= spec.after:
                continue
            if spec.probability < 1.0:
                if self.rng is None or self.rng.random() >= spec.probability:
                    continue
            entry.fired += 1
            self.stats["injected"] += 1
            self._site_stats(site)["injected"] += 1
            self.tracer.event("fault.injected", site=site,
                              fault_kind=spec.resolved_kind.value)
            return spec.resolved_kind
        return None

    def _site_stats(self, site: str) -> dict[str, int]:
        stats = self.by_site.get(site)
        if stats is None:
            stats = self.by_site[site] = {
                "injected": 0, "recovered": 0, "aborted": 0}
        return stats

    def _error_for(self, kind: FaultKind, site: str,
                   ctx: dict[str, Any]) -> ReproError:
        # Imported lazily: the injector is imported by the layers whose
        # exception types it raises, so module-level imports would cycle.
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(ctx.items())
                           if not callable(v))
        message = f"injected {kind.value} at {site}" + (
            f" ({detail})" if detail else "")
        if kind is FaultKind.ENOMEM:
            from repro.xen.errors import XenNoMemoryError

            return XenNoMemoryError(message)
        if kind is FaultKind.EAGAIN:
            from repro.xenstore.transactions import TransactionConflict

            return TransactionConflict(message)
        if kind is FaultKind.RING_FULL:
            from repro.core.notify_ring import RingFullError

            return RingFullError(message)
        return InjectedFaultError(message)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> dict[str, Any]:
        """Machine-readable injection report (JSON-serializable)."""
        return {
            "plan": self.plan.name,
            "specs": len(self.plan.specs),
            "stats": dict(self.stats),
            "by_site": {site: dict(stats)
                        for site, stats in sorted(self.by_site.items())},
        }

    def format_report(self) -> str:
        """Human-readable per-site counter table for the CLI."""
        lines = [f"fault plan: {self.plan.name or '(unnamed)'} "
                 f"({len(self.plan.specs)} specs)",
                 f"{'site':<22} {'injected':>9} {'recovered':>10} "
                 f"{'aborted':>8}"]
        for site, stats in sorted(self.by_site.items()):
            lines.append(f"{site:<22} {stats['injected']:>9} "
                         f"{stats['recovered']:>10} {stats['aborted']:>8}")
        totals = self.stats
        lines.append(f"{'total':<22} {totals['injected']:>9} "
                     f"{totals['recovered']:>10} {totals['aborted']:>8}")
        return "\n".join(lines)
