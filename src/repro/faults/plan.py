"""Fault plans: declarative, deterministic failure schedules.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each
arming one injection site with a trigger (skip the first N hits, fire
the next M, optionally with probability p drawn from the platform's
forked RNG, optionally only after a virtual-clock instant, optionally
only when the call context matches). Plans are plain data: they
round-trip through JSON, so a plan can be pinned to a file, and two
runs of the same plan at the same seed inject the exact same
faults at the exact same virtual times.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ReproError
from repro.faults.sites import SITES, FaultKind, raise_sites
from repro.sim.rng import DeterministicRNG


class FaultPlanError(ReproError):
    """Malformed fault plan (unknown site, bad kind, bad trigger)."""


@dataclass
class FaultSpec:
    """One armed fault: site + trigger + error kind.

    Trigger semantics, evaluated per matching hook hit:

    - ``match`` filters on the hook's context kwargs (equality);
      non-matching hits are invisible to this spec.
    - ``predicate`` is an optional callable over the context dict for
      triggers ``match`` cannot express (not JSON-serializable).
    - ``after_ms`` gates the spec on the virtual clock.
    - ``after`` skips that many matching hits before arming.
    - ``count`` bounds total injections (None = unlimited).
    - ``probability`` < 1.0 draws from the injector's forked RNG on
      each armed hit.
    """

    site: str
    kind: FaultKind | None = None
    after: int = 0
    count: int | None = 1
    probability: float = 1.0
    after_ms: float = 0.0
    match: dict[str, Any] = field(default_factory=dict)
    predicate: Callable[[dict[str, Any]], bool] | None = None

    def __post_init__(self) -> None:
        """Validate the spec against the site registry."""
        site = SITES.get(self.site)
        if site is None:
            raise FaultPlanError(
                f"unknown injection site {self.site!r} "
                f"(see repro.faults.sites.SITES)")
        if isinstance(self.kind, str):
            self.kind = FaultKind(self.kind)
        if self.kind is not None and self.kind not in site.allowed_kinds:
            raise FaultPlanError(
                f"site {self.site!r} does not support kind "
                f"{self.kind.value!r} (allowed: "
                f"{sorted(k.value for k in site.allowed_kinds)})")
        if self.after < 0:
            raise FaultPlanError(f"negative 'after': {self.after}")
        if self.count is not None and self.count < 1:
            raise FaultPlanError(f"non-positive 'count': {self.count}")
        if not (0.0 < self.probability <= 1.0):
            raise FaultPlanError(
                f"probability must be in (0, 1]: {self.probability}")

    @property
    def resolved_kind(self) -> FaultKind:
        """The error kind injected: explicit, or the site's default."""
        if self.kind is not None:
            return self.kind
        return SITES[self.site].default_kind

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (predicates cannot be serialized)."""
        if self.predicate is not None:
            raise FaultPlanError(
                "cannot serialize a spec with a predicate callable")
        payload: dict[str, Any] = {"site": self.site}
        if self.kind is not None:
            payload["kind"] = self.kind.value
        if self.after:
            payload["after"] = self.after
        if self.count != 1:
            payload["count"] = self.count
        if self.probability != 1.0:
            payload["probability"] = self.probability
        if self.after_ms:
            payload["after_ms"] = self.after_ms
        if self.match:
            payload["match"] = dict(self.match)
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FaultSpec":
        """Inverse of :meth:`to_dict`."""
        known = {"site", "kind", "after", "count", "probability",
                 "after_ms", "match"}
        unknown = set(payload) - known
        if unknown:
            raise FaultPlanError(f"unknown FaultSpec fields: {sorted(unknown)}")
        return cls(**payload)


@dataclass
class FaultPlan:
    """A named, ordered collection of fault specs."""

    specs: list[FaultSpec] = field(default_factory=list)
    name: str = ""

    def __post_init__(self) -> None:
        """Coerce dict entries (e.g. parsed JSON) into FaultSpecs."""
        self.specs = [spec if isinstance(spec, FaultSpec)
                      else FaultSpec.from_dict(spec) for spec in self.specs]

    @property
    def empty(self) -> bool:
        """True when the plan arms nothing (injection is a no-op)."""
        return not self.specs

    def budget(self) -> int | None:
        """Total injections this plan can produce (None = unbounded)."""
        total = 0
        for spec in self.specs:
            if spec.count is None:
                return None
            total += spec.count
        return total

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form."""
        return {"name": self.name,
                "specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        return cls(name=payload.get("name", ""),
                   specs=[FaultSpec.from_dict(entry)
                          for entry in payload.get("specs", [])])

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize the plan to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def randomized(cls, seed: int, faults: int = 100,
                   sites: list[str] | None = None,
                   include_drops: bool = True) -> "FaultPlan":
        """A chaos plan with a total injection budget of ``faults``.

        Sites, triggers, and probabilities are drawn from a stream
        forked off ``seed``, so the same seed always produces the same
        plan — the chaos harness's determinism guarantee starts here.
        """
        rng = DeterministicRNG(seed).fork("fault-plan")
        pool = list(sites) if sites is not None else raise_sites()
        if include_drops and sites is None:
            pool.append("virq.deliver")
        specs: list[FaultSpec] = []
        budget = 0
        while budget < faults:
            site = rng.choice(pool)
            count = min(rng.randint(1, 3), faults - budget)
            kind = (FaultKind.DROP if SITES[site].default_kind
                    is FaultKind.DROP else None)
            specs.append(FaultSpec(
                site=site, kind=kind, after=rng.randint(0, 12), count=count,
                probability=rng.choice([1.0, 1.0, 0.5, 0.25])))
            budget += count
        return cls(specs=specs, name=f"chaos-{seed:#x}-{faults}")


#: The always-empty plan: platforms without a configured plan share it.
EMPTY_PLAN = FaultPlan(name="empty")
