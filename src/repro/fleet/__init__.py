"""repro.fleet: multi-host placement, failover and host-level chaos.

The fleet tier sits above :class:`repro.platform.Platform`: N fully
independent simulated hosts behind one control plane that places clone
families, routes and forwards clone requests (round-robin or
least-loaded), detects host failures via deterministic heartbeats, and
re-places lost clones on survivors — the ROADMAP's "natural next tier
above per-operation faults". :mod:`repro.fleet.migration` adds live
warm migration of clone families between hosts (pre-copy dirty-page
rounds or post-copy demand streaming), driven by the ``drain_host``
verb and the least-loaded policy's rebalance pass. The host-kill and
migration storms are the ``fleet-chaos`` and ``migration-chaos``
entries of :data:`repro.scenarios.SCENARIOS`.
"""

from repro.fleet.chaos import (
    audit_fleet,
    kill_plan,
    run_fleet_chaos,
)
from repro.fleet.fleet import (
    CloneResult,
    Fleet,
    FleetConfig,
    FleetError,
    FleetHost,
    HostState,
)
from repro.fleet.migration import (
    MIGRATION_CUTOVER_THRESHOLD_PAGES,
    MIGRATION_ROUND_LIMIT,
    MigrationError,
    MigrationPlanner,
    MigrationRecord,
    audit_migrations,
    migration_storm_plan,
    run_migration_chaos,
)
from repro.fleet.placement import (
    POLICIES,
    LeastLoadedPolicy,
    PlacementError,
    PlacementPolicy,
    RoundRobinPolicy,
    make_policy,
)

__all__ = [
    "Fleet",
    "FleetConfig",
    "FleetError",
    "FleetHost",
    "HostState",
    "CloneResult",
    "PlacementPolicy",
    "PlacementError",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "POLICIES",
    "make_policy",
    "audit_fleet",
    "kill_plan",
    "run_fleet_chaos",
    "MIGRATION_CUTOVER_THRESHOLD_PAGES",
    "MIGRATION_ROUND_LIMIT",
    "MigrationError",
    "MigrationPlanner",
    "MigrationRecord",
    "audit_migrations",
    "migration_storm_plan",
    "run_migration_chaos",
]
