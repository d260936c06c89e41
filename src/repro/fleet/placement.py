"""Placement policies: which host receives a new instance.

A policy sees only the candidate hosts the fleet already filtered for
availability and capacity, and picks one. Policies are deterministic
state machines — two fleets running the same (seed, plan, policy)
triple place every instance identically, which is what makes the fleet
chaos fingerprint reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.fleet import FleetHost


class PlacementError(ReproError):
    """No host can take the instance (capacity or availability)."""


class PlacementPolicy:
    """Base class: pick one host from the filtered candidates."""

    #: Registry key (``FleetConfig.policy``; ``fleet policies`` in the
    #: shell lists them).
    name = "base"

    def choose(self, candidates: Sequence["FleetHost"]) -> "FleetHost":
        """Pick the host that receives the instance."""
        raise NotImplementedError

    def reset(self) -> None:
        """Drop any internal state (between independent runs)."""

    def rebalance_pair(self, candidates: Sequence["FleetHost"],
                       ) -> tuple["FleetHost", "FleetHost"] | None:
        """Propose an (overloaded, underloaded) host pair to migrate a
        family between, or ``None`` when the fleet looks balanced.

        Consulted by :meth:`repro.fleet.fleet.Fleet.rebalance`. The
        base policy has no load notion and never proposes a move.
        """
        return None


class RoundRobinPolicy(PlacementPolicy):
    """Rotate over hosts in index order.

    The cursor advances per *placement*, not per host, so a host
    leaving the candidate set (crash, drain) does not shift the phase
    of the rotation for the survivors.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, candidates: Sequence["FleetHost"]) -> "FleetHost":
        """Pick the next candidate in rotation order."""
        if not candidates:
            raise PlacementError("no candidate hosts")
        host = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return host

    def reset(self) -> None:
        """Rewind the rotation cursor."""
        self._cursor = 0


class LeastLoadedPolicy(PlacementPolicy):
    """Pick the host with the most free machine frames.

    Ties break on the lowest host index, keeping the choice
    deterministic when fresh hosts are interchangeable.
    """

    name = "least-loaded"

    #: Rebalance trigger: propose a move only when the busiest host has
    #: less than this fraction of the idlest host's free frames.
    REBALANCE_RATIO = 0.5

    def choose(self, candidates: Sequence["FleetHost"]) -> "FleetHost":
        """Pick the candidate with the most free frames."""
        if not candidates:
            raise PlacementError("no candidate hosts")
        return max(candidates, key=lambda h: (h.free_frames, -h.index))

    def rebalance_pair(self, candidates: Sequence["FleetHost"],
                       ) -> tuple["FleetHost", "FleetHost"] | None:
        """Propose (busiest, idlest) once the imbalance crosses the
        threshold; ties break on host index, keeping the proposal
        deterministic."""
        if len(candidates) < 2:
            return None
        busiest = min(candidates, key=lambda h: (h.free_frames, h.index))
        idlest = max(candidates, key=lambda h: (h.free_frames, -h.index))
        if busiest is idlest:
            return None
        if busiest.free_frames >= idlest.free_frames * self.REBALANCE_RATIO:
            return None
        return busiest, idlest


#: Policy registry: ``--policy`` names -> constructors.
POLICIES = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
}


def make_policy(name: str) -> PlacementPolicy:
    """Instantiate a registered policy by name."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise PlacementError(
            f"unknown placement policy {name!r} "
            f"(known: {sorted(POLICIES)})") from None
