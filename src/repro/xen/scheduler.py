"""The credit scheduler: vCPU placement and CPU-share accounting.

Xen's default credit scheduler assigns each domain a weight (default
256) and optionally a cap; runnable vCPUs are placed on physical CPUs
honouring affinity, and CPU time is split weight-proportionally among
the vCPUs sharing a core. The experiments use it for placement and for
asking "what fraction of a core does this vCPU get?" — e.g. a pinned
NGINX worker clone owns its core exclusively, which is half of the
paper's explanation for the clones' higher throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.xen.domain import Domain, DomainState
from repro.xen.errors import XenInvalidError

DEFAULT_WEIGHT = 256


class SchedulerEntry:
    """One vCPU of a domain, as the scheduler places it."""

    __slots__ = ("domain", "vcpu_index", "weight", "cap")

    def __init__(self, domain: Domain, vcpu_index: int,
                 weight: int = DEFAULT_WEIGHT, cap: float = 0.0) -> None:
        self.domain = domain
        self.vcpu_index = vcpu_index
        self.weight = weight
        #: Cap as a fraction of one CPU (0 = uncapped).
        self.cap = cap

    @property
    def runnable(self) -> bool:
        return self.domain.state is DomainState.RUNNING

    @property
    def affinity(self) -> frozenset[int]:
        return self.domain.vcpus[self.vcpu_index].affinity


@dataclass
class CoreAssignment:
    core: int
    entries: list[SchedulerEntry] = field(default_factory=list)

    @property
    def load(self) -> int:
        return sum(e.weight for e in entries_runnable(self.entries))


def entries_runnable(entries: list[SchedulerEntry]) -> list[SchedulerEntry]:
    """Filter to entries whose domain is currently RUNNING."""
    return [e for e in entries if e.runnable]


#: The (weight, cap) of a domain scheduled with the defaults.
_DEFAULTS = (DEFAULT_WEIGHT, 0.0)


class CreditScheduler:
    """Weight-proportional CPU sharing with affinity-aware placement.

    The scheduler keeps each domain once, by domid, and the (weight,
    cap) of those not at the defaults; :meth:`place` builds the
    per-vCPU entries of the runnable ones when it is asked.
    """

    def __init__(self, cpus: int) -> None:
        if cpus < 1:
            raise XenInvalidError(f"need at least one CPU: {cpus}")
        self.cpus = cpus
        self._domains: dict[int, Domain] = {}
        self._params: dict[int, tuple[int, float]] = {}

    # ------------------------------------------------------------------
    def add_domain(self, domain: Domain, weight: int = DEFAULT_WEIGHT,
                   cap: float = 0.0) -> None:
        """Register every vCPU of ``domain`` with the scheduler."""
        if weight <= 0:
            raise XenInvalidError(f"non-positive weight: {weight}")
        if not 0.0 <= cap <= 1.0:
            raise XenInvalidError(f"cap must be within one CPU: {cap}")
        self._domains[domain.domid] = domain
        self._set_params(domain.domid, weight, cap)

    def remove_domain(self, domid: int) -> None:
        """Drop all of a domain's vCPUs from scheduling."""
        self._domains.pop(domid, None)
        self._params.pop(domid, None)

    def set_weight(self, domid: int, weight: int) -> None:
        """Change a domain's credit weight (xl sched-credit -w)."""
        if weight <= 0:
            raise XenInvalidError(f"non-positive weight: {weight}")
        if domid not in self._domains:
            raise XenInvalidError(f"domain {domid} is not scheduled")
        self._set_params(domid, weight,
                         self._params.get(domid, _DEFAULTS)[1])

    def _set_params(self, domid: int, weight: int, cap: float) -> None:
        if (weight, cap) == _DEFAULTS:
            self._params.pop(domid, None)
        else:
            self._params[domid] = (weight, cap)

    def _runnable_entries(self) -> list[SchedulerEntry]:
        """One entry per vCPU of every RUNNING domain, in (domid, vcpu)
        order."""
        params = self._params
        entries = []
        for domid in sorted(self._domains):
            domain = self._domains[domid]
            if domain.state is not DomainState.RUNNING:
                continue
            weight, cap = params.get(domid, _DEFAULTS)
            entries.extend(SchedulerEntry(domain, index, weight, cap)
                           for index in range(len(domain.vcpus)))
        return entries

    # ------------------------------------------------------------------
    def place(self) -> dict[int, CoreAssignment]:
        """Assign every runnable vCPU to a core.

        Pinned vCPUs go to (the least-loaded of) their affinity set;
        floating vCPUs balance onto the least-loaded core. Deterministic:
        ties break by core number, entries process in (domid, vcpu) order.
        """
        cores = {c: CoreAssignment(c) for c in range(self.cpus)}
        ordered = self._runnable_entries()
        # Pinned first: they have no choice.
        for entry in ordered:
            if entry.affinity:
                candidates = sorted(entry.affinity & set(cores))
                if not candidates:
                    raise XenInvalidError(
                        f"domain {entry.domain.domid} pinned to nonexistent "
                        f"CPUs {sorted(entry.affinity)}")
                target = min(candidates, key=lambda c: (cores[c].load, c))
                cores[target].entries.append(entry)
        for entry in ordered:
            if not entry.affinity:
                target = min(cores, key=lambda c: (cores[c].load, c))
                cores[target].entries.append(entry)
        return cores

    def cpu_share(self, domid: int, vcpu_index: int = 0) -> float:
        """Fraction of one physical CPU this vCPU currently receives."""
        cores = self.place()
        for assignment in cores.values():
            for entry in assignment.entries:
                if (entry.domain.domid == domid
                        and entry.vcpu_index == vcpu_index):
                    competing = sum(e.weight for e in assignment.entries)
                    share = entry.weight / competing if competing else 0.0
                    if entry.cap:
                        share = min(share, entry.cap)
                    return share
        return 0.0

    def exclusive_core(self, domid: int, vcpu_index: int = 0) -> bool:
        """Does this vCPU own its core alone (the NGINX-clone setup)?"""
        cores = self.place()
        for assignment in cores.values():
            names = [(e.domain.domid, e.vcpu_index)
                     for e in assignment.entries]
            if (domid, vcpu_index) in names:
                return len(names) == 1
        return False

    @property
    def runnable_vcpus(self) -> int:
        return sum(len(domain.vcpus) for domain in self._domains.values()
                   if domain.state is DomainState.RUNNING)
