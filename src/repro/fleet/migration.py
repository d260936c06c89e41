"""Live warm migration of clone families between fleet hosts.

The fleet tier could always *re-place* a family lost with a dead host
(a cold re-boot on a survivor); this module moves families **warm**:

- **pre-copy**: iterative dirty-page rounds charged to the fleet
  :class:`~repro.sim.clock.VirtualClock` — round 0 streams the whole
  ship set, every later round streams the pages the guest re-dirtied
  while the previous round was on the wire, and the loop ends with a
  stop-and-copy cutover window once the dirty set drops under a
  threshold (or a convergence bound of rounds has been spent);
- **post-copy**: the family cuts over first, then pages stream in the
  background while the hot set is pulled by synchronous demand faults
  over the fleet network (the post-copy tax).

Both modes are driven by a :class:`MigrationPlanner` that the
``drain_host`` control-plane verb and the least-loaded placement
policy's rebalance pass (:meth:`~repro.fleet.fleet.Fleet.rebalance`)
both call. Because migration interacts with the COW clone tree, the
planner decides per family between **ship-delta** (keep the sharing:
stream each clone's private pages, re-bind its shared pages against
the replica resident on the target) and **flatten** (break the
sharing: stream full standalone copies, no parent needed on the
target) from the actual per-page shared-vs-private accounting of the
source domains — see docs/MIGRATION.md for the decision rule and the
full failure model.

Migrations advance one round per :meth:`~repro.fleet.fleet.Fleet.tick`
(the heartbeat round), so they interleave deterministically with
placement, failure detection and front-door traffic. Each round polls
the ``migration.*`` fault sites, so the chaos harness can kill the
source host, the target host, or the stream mid-round; the ledger
(pages queued == streamed + aborted + pending) is audited by
:func:`repro.fleet.chaos.audit_fleet`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError
from repro.toolstack.config import DomainConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.fleet import Fleet, FleetHost, _Family


#: Convergence bound: a pre-copy migration spends at most this many
#: dirty-page rounds before it force-cutovers with whatever dirty set
#: remains (the classic guard against a guest that dirties faster than
#: the stream drains; docs/MIGRATION.md derives when that can happen).
MIGRATION_ROUND_LIMIT = 8

#: Stop-and-copy threshold: once a round leaves at most this many
#: re-dirtied pages, the next step is the cutover window instead of
#: another round.
MIGRATION_CUTOVER_THRESHOLD_PAGES = 8


class MigrationError(ReproError):
    """Planner-level failure (unknown family, no feasible target)."""


@dataclass
class MigrationRecord:
    """One family-between-hosts migration: plan, progress and ledger.

    The page ledger is the conservation law ``audit_fleet`` checks:
    ``pages_queued == pages_streamed + pages_aborted + pages_pending``
    at every instant, with ``pages_pending == 0`` once the record is
    terminal. ``pages_queued`` grows as rounds re-queue freshly
    dirtied pages; no page is ever silently dropped from the ledger.
    """

    family: str
    source: str
    target: str
    #: ``precopy`` or ``postcopy``.
    mode: str
    #: ``ship-delta`` or ``flatten`` (see the planner's decision rule).
    decision: str
    #: ``streaming`` -> ``done`` | ``failed``.
    phase: str = "streaming"
    #: Why a failed migration failed (``source-lost``, ``target-lost``,
    #: ``stream-lost``, ``target-capacity``, ``fleet-shutdown``).
    reason: str = ""
    #: Whether the family already switched over to the target (post-copy
    #: sets this in its first round; pre-copy only at cutover).
    committed: bool = False
    # -- page ledger ---------------------------------------------------
    pages_queued: int = 0
    pages_streamed: int = 0
    pages_aborted: int = 0
    pages_pending: int = 0
    #: Shared pages re-bound against the target replica (ship-delta).
    shared_remapped: int = 0
    # -- round accounting ----------------------------------------------
    rounds_done: int = 0
    #: Hot working set: pages the source instances had dirtied when the
    #: migration was planned (caps per-round re-dirtying).
    working_set: int = 0
    #: Post-copy demand faults served synchronously over the network.
    demand_faults: int = 0
    #: Instances to move: clone domids on the source, and whether the
    #: source replica ships.
    clones_moving: int = 0
    replica_ships: bool = False
    started_ms: float = 0.0
    finished_ms: float = 0.0

    @property
    def active(self) -> bool:
        return self.phase == "streaming"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (the control plane serves this)."""
        return {
            "family": self.family,
            "source": self.source,
            "target": self.target,
            "mode": self.mode,
            "decision": self.decision,
            "phase": self.phase,
            "reason": self.reason,
            "committed": self.committed,
            "pages_queued": self.pages_queued,
            "pages_streamed": self.pages_streamed,
            "pages_aborted": self.pages_aborted,
            "pages_pending": self.pages_pending,
            "shared_remapped": self.shared_remapped,
            "rounds_done": self.rounds_done,
            "demand_faults": self.demand_faults,
            "clones_moving": self.clones_moving,
            "replica_ships": self.replica_ships,
            "started_ms": round(self.started_ms, 6),
            "finished_ms": round(self.finished_ms, 6),
        }


class MigrationPlanner:
    """Plans and executes warm migrations on behalf of a fleet.

    The planner reads per-page shared-vs-private accounting straight
    from the source domains' :class:`~repro.xen.memory.GuestMemory`
    (the COW machinery the clone path maintains), picks ship-delta vs
    flatten by cost, and then advances every active record one round
    per fleet heartbeat via :meth:`tick`.
    """

    def __init__(self, fleet: "Fleet",
                 round_limit: int = MIGRATION_ROUND_LIMIT,
                 cutover_threshold_pages: int =
                 MIGRATION_CUTOVER_THRESHOLD_PAGES) -> None:
        self.fleet = fleet
        self.round_limit = round_limit
        self.cutover_threshold_pages = cutover_threshold_pages

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan_family(self, name: str, source: str,
                    target: str | None = None,
                    mode: str = "precopy") -> MigrationRecord:
        """Plan moving ``name``'s presence on ``source`` to ``target``.

        With ``target=None`` the fleet's placement policy picks the
        target among placeable hosts with capacity (never the source).
        The record is registered with the fleet and starts advancing on
        the next heartbeat.
        """
        from repro.fleet.fleet import _PLACEABLE

        fleet = self.fleet
        if mode not in ("precopy", "postcopy"):
            raise MigrationError(f"unknown migration mode {mode!r}")
        family = fleet.families.get(name)
        if family is None:
            raise MigrationError(f"unknown family {name!r}")
        source_host = fleet.host(source)
        clones = list(family.clones.get(source, []))
        replica_domid = family.replicas.get(source)
        if not clones and replica_domid is None:
            raise MigrationError(
                f"family {name!r} has no instances on {source}")
        for record in fleet.migrations:
            if record.active and record.family == name:
                raise MigrationError(
                    f"family {name!r} is already migrating")
        if target is None:
            candidates = [
                h for h in fleet.hosts
                if h.state in _PLACEABLE and h.name != source
                and h.free_frames >= self._footprint(family, len(clones),
                                                     h.name)]
            if not candidates:
                raise MigrationError(
                    f"no placeable target host for family {name!r}")
            target = fleet.policy.choose(candidates).name
        elif target == source:
            raise MigrationError("source and target host are the same")
        else:
            fleet.host(target)  # validates the name

        record = self._price(family, source_host, target, clones,
                             replica_domid, mode)
        record.started_ms = fleet.clock.now
        family.migration = record
        fleet.migrations.append(record)
        fleet.stats["migrations_planned"] += 1
        fleet.tracer.event("migration.planned", family=name,
                           source=source, target=target, mode=mode,
                           decision=record.decision)
        return record

    def plan_drain(self, host: "FleetHost",
                   mode: str = "precopy") -> list[MigrationRecord]:
        """Plan evacuating every family present on ``host``.

        Families with no feasible target (or already migrating) are
        skipped — they stay put and the drain is partial; the caller
        can compare the returned records against the host's families.
        """
        fleet = self.fleet
        names = sorted(
            name for name, family in fleet.families.items()
            if host.name in family.replicas or family.clones.get(host.name))
        records = []
        for name in names:
            try:
                records.append(self.plan_family(name, host.name,
                                                mode=mode))
            except MigrationError:
                continue
        return records

    def plan_rebalance(self, mode: str = "precopy"
                       ) -> list[MigrationRecord]:
        """One rebalance pass: ask the policy for an (overloaded,
        underloaded) host pair and move one family between them.

        Policies without a rebalance notion (round-robin) propose
        nothing; the least-loaded policy proposes a pair once the
        imbalance crosses its threshold.
        """
        fleet = self.fleet
        from repro.fleet.fleet import _PLACEABLE

        candidates = [h for h in fleet.hosts if h.state in _PLACEABLE]
        pair = fleet.policy.rebalance_pair(candidates)
        if pair is None:
            return []
        busy, idle = pair
        names = sorted(
            name for name, family in fleet.families.items()
            if (busy.name in family.replicas
                or family.clones.get(busy.name))
            and not (family.migration is not None
                     and family.migration.active))
        if not names:
            return []
        return [self.plan_family(names[0], busy.name, target=idle.name,
                                 mode=mode)]

    # ------------------------------------------------------------------
    # pricing: ship-delta vs flatten from real page accounting
    # ------------------------------------------------------------------
    def _memory_of(self, host: "FleetHost", domid: int):
        return host.platform.hypervisor.domains[domid].memory

    def _footprint(self, family: "_Family", clones: int,
                   target: str | None = None) -> int:
        """Frame need on ``target`` for the common (ship-delta) shape.

        Moved clones re-materialize as COW children of the target
        replica — clone-sized, not parent-sized — plus one parent boot
        when the target holds no replica yet. A flatten decision can
        need more than this admission estimate; ``_instantiate`` unwinds
        and aborts the migration if the target turns out too small, so
        the check is a heuristic, not a safety invariant.
        """
        fleet = self.fleet
        need = clones * fleet._clone_frames_estimate(family.config)
        if target is None or target not in family.replicas:
            need += fleet._parent_frames_estimate(family.config)
        return need

    def _price(self, family: "_Family", source_host: "FleetHost",
               target: str, clones: list[int], replica_domid: int | None,
               mode: str) -> MigrationRecord:
        costs = self.fleet.costs
        stream = costs.migration_page_stream
        remap = costs.migration_remap_shared_page
        clone_private = clone_shared = 0
        working_set = 0
        for domid in clones:
            memory = self._memory_of(source_host, domid)
            clone_private += memory.private_pages()
            clone_shared += memory.shared_pages()
            working_set += memory.dirty.count
        replica_pages = 0
        if replica_domid is not None:
            memory = self._memory_of(source_host, replica_domid)
            replica_pages = memory.private_pages() + memory.shared_pages()
            working_set += memory.dirty.count

        replica_on_target = target in family.replicas
        replicas_elsewhere = any(
            host not in (source_host.name, target)
            for host in family.replicas)
        # Ship-delta needs a parent at the target to re-share against.
        delta_feasible = replica_on_target or replica_domid is not None
        delta_replica_pages = (0 if replica_on_target else replica_pages)
        delta_cost = (delta_replica_pages * stream
                      + clone_private * stream + clone_shared * remap)
        # Flatten only ships the source replica when it is the family's
        # sole template (otherwise it is dropped, not moved).
        flatten_replica_ships = (replica_domid is not None
                                 and not replica_on_target
                                 and not replicas_elsewhere)
        flatten_cost = ((clone_private + clone_shared) * stream
                        + (replica_pages if flatten_replica_ships else 0)
                        * stream)

        if delta_feasible and delta_cost <= flatten_cost:
            decision = "ship-delta"
            to_stream = delta_replica_pages + clone_private
            shared_remap = clone_shared
            replica_ships = (replica_domid is not None
                             and not replica_on_target)
        else:
            decision = "flatten"
            to_stream = (clone_private + clone_shared
                         + (replica_pages if flatten_replica_ships else 0))
            shared_remap = 0
            replica_ships = flatten_replica_ships

        return MigrationRecord(
            family=family.name, source=source_host.name, target=target,
            mode=mode, decision=decision,
            pages_queued=to_stream, pages_pending=to_stream,
            shared_remapped=shared_remap,
            working_set=working_set, clones_moving=len(clones),
            replica_ships=replica_ships)

    # ------------------------------------------------------------------
    # execution: one round per fleet heartbeat
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Advance every active migration by one round."""
        for record in list(self.fleet.migrations):
            if record.active:
                self._advance(record)

    def _advance(self, record: MigrationRecord) -> None:
        fleet = self.fleet
        context = {"family": record.family, "source": record.source,
                   "target": record.target, "round": record.rounds_done,
                   "op": "migration"}
        if fleet.faults.event("migration.source", **context):
            self._lose_host(record, record.source, "source-lost")
            return
        if fleet.faults.event("migration.target", **context):
            self._lose_host(record, record.target, "target-lost")
            return
        if fleet.faults.event("migration.stream", **context):
            self._lose_stream(record)
            return
        source = fleet.host(record.source)
        target = fleet.host(record.target)
        # A host lost to an *external* failure (heartbeat-detected
        # crash, partition fencing) aborts the migration the same way.
        if not record.committed and not source.alive:
            self._abort(record, "source-lost")
            return
        if not target.alive:
            if record.committed:
                self._fail_moved_family(record, "target-lost")
            else:
                self._abort(record, "target-lost")
            return
        if record.committed and not source.alive:
            # Post-copy window of vulnerability: outstanding pages died
            # with the source; the moved instances cannot be completed.
            self._fail_moved_family(record, "source-lost")
            return

        if record.mode == "precopy":
            self._precopy_round(record)
        else:
            self._postcopy_round(record)

    # -- pre-copy ------------------------------------------------------
    def _precopy_round(self, record: MigrationRecord) -> None:
        fleet = self.fleet
        costs = fleet.costs
        ship = record.pages_pending
        with fleet.tracer.span("migration.round", family=record.family,
                               round=record.rounds_done, pages=ship):
            duration = (costs.migration_round_fixed
                        + ship * costs.migration_page_stream)
            fleet.clock.charge(duration)
        record.pages_streamed += ship
        record.pages_pending = 0
        record.rounds_done += 1
        fleet.stats["migration_rounds"] += 1
        fleet.stats["migration_pages_streamed"] += ship
        dirtied = min(record.working_set,
                      int(costs.migration_dirty_rate_pages_per_ms
                          * duration))
        record.pages_queued += dirtied
        record.pages_pending = dirtied
        if (dirtied <= self.cutover_threshold_pages
                or record.rounds_done >= self.round_limit):
            self._cutover(record)

    def _cutover(self, record: MigrationRecord) -> None:
        """The stop-and-copy window: final dirty set + switch-over."""
        fleet = self.fleet
        costs = fleet.costs
        final = record.pages_pending
        with fleet.tracer.span("migration.cutover", family=record.family,
                               pages=final):
            fleet.clock.charge(
                costs.migration_cutover_fixed
                + final * costs.migration_page_stream
                + record.shared_remapped
                * costs.migration_remap_shared_page)
            record.pages_streamed += final
            record.pages_pending = 0
            fleet.stats["migration_pages_streamed"] += final
            fleet.stats["migration_shared_remapped"] += \
                record.shared_remapped
            self._commit(record)

    # -- post-copy -----------------------------------------------------
    def _postcopy_round(self, record: MigrationRecord) -> None:
        fleet = self.fleet
        costs = fleet.costs
        if not record.committed:
            # Cut over first: minimal state ships inside the window,
            # the memory follows.
            with fleet.tracer.span("migration.cutover",
                                   family=record.family, pages=0):
                fleet.clock.charge(
                    costs.migration_cutover_fixed
                    + record.shared_remapped
                    * costs.migration_remap_shared_page)
                fleet.stats["migration_shared_remapped"] += \
                    record.shared_remapped
                self._commit(record, terminal=False)
            record.rounds_done += 1
            fleet.stats["migration_rounds"] += 1
            return
        # Background stream + demand faults for the hot set.
        ship = record.pages_pending
        faults = min(ship, record.working_set)
        with fleet.tracer.span("migration.round", family=record.family,
                               round=record.rounds_done, pages=ship,
                               demand_faults=faults):
            fleet.clock.charge(
                costs.migration_round_fixed
                + (ship - faults) * costs.migration_page_stream
                + faults * costs.migration_postcopy_fault)
        record.pages_streamed += ship
        record.pages_pending = 0
        record.demand_faults += faults
        record.rounds_done += 1
        fleet.stats["migration_rounds"] += 1
        fleet.stats["migration_pages_streamed"] += ship
        fleet.stats["migration_demand_faults"] += faults
        self._finish(record)

    # ------------------------------------------------------------------
    # commit / abort / failure paths
    # ------------------------------------------------------------------
    def _commit(self, record: MigrationRecord,
                terminal: bool = True) -> None:
        """Activate the family on the target, strike it from the source.

        Runs inside the cutover window. A target that cannot take the
        instances (capacity raced away since planning) aborts the
        migration in place: the family keeps running at the source.
        """
        fleet = self.fleet
        family = fleet.families[record.family]
        target = fleet.host(record.target)
        source = fleet.host(record.source)
        clones = list(family.clones.get(record.source, []))
        replica_domid = family.replicas.get(record.source)
        try:
            new_domids = self._instantiate(record, family, target,
                                           len(clones))
        except ReproError:
            self._abort(record, "target-capacity")
            return
        # Tear down the source side; the family now serves from the
        # target. Destroyed domains drop out of the front-door pool at
        # the next refresh (epoch bump below).
        for domid in clones:
            if domid in source.platform.hypervisor.domains:
                source.platform.xl.destroy(domid)
        family.clones.pop(record.source, None)
        if replica_domid is not None:
            if replica_domid in source.platform.hypervisor.domains:
                source.platform.xl.destroy(replica_domid)
            del family.replicas[record.source]
            if not record.replica_ships:
                fleet.stats["migration_replicas_dropped"] += 1
        if new_domids:
            family.clones.setdefault(record.target, []).extend(new_domids)
        if family.origin == record.source:
            family.origin = record.target
        fleet.topology_epoch += 1
        record.committed = True
        fleet.stats["instances_migrated"] += (
            len(clones) + (1 if replica_domid is not None else 0))
        fleet.tracer.event("migration.committed", family=record.family,
                           source=record.source, target=record.target)
        if terminal:
            self._finish(record)

    def _instantiate(self, record: MigrationRecord, family: "_Family",
                     target: "FleetHost", count: int) -> list[int]:
        """Build the family's instances on the target host.

        Ship-delta clones from the target replica (booting it first if
        it ships with the migration), so the COW tree is re-established
        on the target; flatten boots standalone full copies.
        """
        fleet = self.fleet
        booted_fresh = False
        domids: list[int] = []
        try:
            if record.decision == "ship-delta":
                if record.target not in family.replicas:
                    fleet._boot_replica(target, family)
                    booted_fresh = True
                if count == 0:
                    return []
                replica = family.replicas[record.target]
                return target.platform.xl.clone(replica, count=count)
            # Flatten: standalone boots, plus the replica when it is
            # the family's sole template.
            if (record.replica_ships
                    and record.target not in family.replicas):
                fleet._boot_replica(target, family)
                booted_fresh = True
            for _ in range(count):
                serial = fleet._migration_boot_serial
                fleet._migration_boot_serial += 1
                config = DomainConfig(
                    name=f"{family.name}.{target.name}.m{serial}",
                    memory_mb=family.config.memory_mb,
                    vcpus=family.config.vcpus,
                    kernel=family.config.kernel,
                    vifs=list(family.config.vifs),
                    p9fs=list(family.config.p9fs),
                    max_clones=family.config.max_clones,
                    start_clones_paused=family.config.start_clones_paused,
                    clone_io_devices=family.config.clone_io_devices)
                app = (family.app_factory()
                       if family.app_factory is not None else None)
                domain = target.platform.xl.create(config, app=app)
                domids.append(domain.domid)
            return domids
        except ReproError:
            # Unwind whatever landed on the target before the failure:
            # an aborted migration leaves the family wholly at the
            # source, never half-placed.
            for domid in domids:
                if domid in target.platform.hypervisor.domains:
                    target.platform.xl.destroy(domid)
            if booted_fresh:
                replica = family.replicas.pop(record.target, None)
                if (replica is not None and replica
                        in target.platform.hypervisor.domains):
                    target.platform.xl.destroy(replica)
                fleet.topology_epoch += 1
            raise

    def _finish(self, record: MigrationRecord) -> None:
        record.phase = "done"
        record.finished_ms = self.fleet.clock.now
        self.fleet.stats["migrations_done"] += 1
        self.fleet.tracer.event("migration.done", family=record.family)

    def _abort(self, record: MigrationRecord, reason: str) -> None:
        """Abort in place: the family keeps running at the source."""
        fleet = self.fleet
        record.pages_aborted += record.pages_pending
        fleet.stats["migration_pages_aborted"] += record.pages_pending
        record.pages_pending = 0
        record.phase = "failed"
        record.reason = reason
        record.finished_ms = fleet.clock.now
        fleet.stats["migrations_failed"] += 1
        fleet.tracer.event("migration.failed", family=record.family,
                           reason=reason)

    def _lose_host(self, record: MigrationRecord, host_name: str,
                   reason: str) -> None:
        """A ``migration.source``/``migration.target`` fault fired: the
        named host fail-stops mid-round; the migration fails and the
        dead-host path re-places whatever died with it."""
        from repro.fleet.fleet import HostState

        fleet = self.fleet
        host = fleet.host(host_name)
        if record.committed and reason == "source-lost":
            # Post-copy: the moved family cannot be completed without
            # the source's outstanding pages. Tear it down at the
            # target *first* so it is re-placed cold exactly once.
            self._fail_moved_family(record, reason)
        else:
            self._abort(record, reason)
        if host.state not in (HostState.DEAD,):
            host.state = HostState.CRASHED
            fleet.topology_epoch += 1
            fleet._declare_dead(host)

    def _lose_stream(self, record: MigrationRecord) -> None:
        """A ``migration.stream`` fault fired: both hosts stay up."""
        if record.committed:
            self._fail_moved_family(record, "stream-lost")
        else:
            self._abort(record, "stream-lost")

    def _fail_moved_family(self, record: MigrationRecord,
                           reason: str) -> None:
        """Post-cutover failure: the instances already moved to the
        target cannot be completed (their memory source is gone). They
        are torn down and re-placed cold — the family is never left
        half-migrated."""
        from repro.fleet.fleet import HostState

        fleet = self.fleet
        family = fleet.families.get(record.family)
        self._abort(record, reason)
        if family is None:
            return
        target = fleet.host(record.target)
        if target.state is HostState.DEAD:
            # The dead-host path already struck and re-placed them.
            return
        lost = 0
        for domid in family.clones.pop(record.target, []):
            if domid in target.platform.hypervisor.domains:
                target.platform.xl.destroy(domid)
            lost += 1
        replica = family.replicas.pop(record.target, None)
        if replica is not None:
            if replica in target.platform.hypervisor.domains:
                target.platform.xl.destroy(replica)
            fleet.stats["replicas_lost"] += 1
        fleet.topology_epoch += 1
        if lost:
            fleet.stats["children_lost"] += lost
            if fleet.config.replace_lost:
                placed, failed, _retries = fleet._place_children(
                    family, lost)
                fleet.stats["children_replaced"] += len(placed)
                fleet.stats["replace_failed"] += failed
            else:
                fleet.stats["replace_failed"] += lost


# ----------------------------------------------------------------------
# ledger audit (folded into repro.fleet.chaos.audit_fleet)
# ----------------------------------------------------------------------
def audit_migrations(fleet: "Fleet") -> list[str]:
    """The migration conservation laws, as violation strings.

    - per record: ``pages_queued == pages_streamed + pages_aborted +
      pages_pending`` (no page lost from the ledger, none counted
      twice), with ``pages_pending == 0`` once terminal;
    - a committed-and-done migration left no instance behind on the
      source (never split), an uncommitted one placed none on the
      target;
    - the fleet-level counters equal the per-record sums.
    """
    violations: list[str] = []
    streamed = aborted = 0
    done = failed = 0
    for record in fleet.migrations:
        streamed += record.pages_streamed
        aborted += record.pages_aborted
        done += record.phase == "done"
        failed += record.phase == "failed"
        label = (f"migration {record.family} "
                 f"{record.source}->{record.target}")
        if (record.pages_queued != record.pages_streamed
                + record.pages_aborted + record.pages_pending):
            violations.append(
                f"{label}: ledger broken: queued {record.pages_queued} "
                f"!= streamed {record.pages_streamed} + aborted "
                f"{record.pages_aborted} + pending "
                f"{record.pages_pending}")
        if not record.active and record.pages_pending:
            violations.append(
                f"{label}: terminal with {record.pages_pending} "
                f"pages still pending")
    stats = fleet.stats
    if stats["migration_pages_streamed"] != streamed:
        violations.append(
            f"migration stream counter {stats['migration_pages_streamed']}"
            f" != per-record sum {streamed}")
    if stats["migration_pages_aborted"] != aborted:
        violations.append(
            f"migration abort counter {stats['migration_pages_aborted']}"
            f" != per-record sum {aborted}")
    in_flight = sum(1 for r in fleet.migrations if r.active)
    if stats["migrations_planned"] != done + failed + in_flight:
        violations.append(
            f"migration conservation broken: planned "
            f"{stats['migrations_planned']} != done {done} + failed "
            f"{failed} + in-flight {in_flight}")
    return violations


# ----------------------------------------------------------------------
# the migration chaos storm
# ----------------------------------------------------------------------
def migration_storm_plan(seed: int, faults: int = 100,
                         hosts: int = 4):
    """A deterministic fault storm over the migration tier.

    The budget lands almost entirely on ``migration.stream`` (the
    abort-in-place failure: both hosts survive, the family stays wholly
    at the source), spread over the run by randomized ``after`` floors
    and burst sizes, because a stream loss is the only migration fault
    a fleet can absorb an unbounded number of. A bounded tail of
    ``migration.source``/``migration.target`` kills (never more than
    ``hosts - 2``, so the fleet always keeps a migratable pair) fires
    the fail-stop paths: source lost mid-round, target lost mid-round,
    and — via the post-copy storms the workload schedules — source
    lost with pages outstanding after cutover.
    """
    from repro.faults.plan import FaultPlan, FaultSpec
    from repro.sim import DeterministicRNG

    rng = DeterministicRNG(seed).fork("migration-storm-plan")
    kills = max(0, min(hosts - 2, 2))
    specs = []
    # One budgeted probabilistic spec, not many independent ones: the
    # injector consults every armed spec per poll, so N independent
    # draws would compound to near-certain death each round. A single
    # p=0.2 draw lets migrations survive rounds, reach cutover, and
    # still lose the stream at every phase across the storm.
    specs.append(FaultSpec(site="migration.stream",
                           count=faults - kills,
                           probability=0.2))
    for index in range(kills):
        site = ("migration.source" if index % 2 == 0
                else "migration.target")
        specs.append(FaultSpec(site=site, count=1,
                               after=rng.randint(10, 25)))
    return FaultPlan(specs=specs,
                     name=f"migration-storm-{seed:#x}-{faults}")


def run_migration_chaos(seed: int = 0xC10E, hosts: int = 4,
                        faults: int = 100, rounds: int = 10,
                        parents: int = 2, batch: int = 2,
                        host_memory_mb: int = 192,
                        plan=None) -> dict[str, Any]:
    """Drive drains/rebalances under a migration-fault storm, audit.

    Every workload round clones, dirties clone memory (so migrations
    have real dirty sets to converge over), then alternately drains a
    host or runs a rebalance pass, and advances several heartbeats so
    the in-flight migrations stream **while faults fire**. The
    fleet-wide audit runs both mid-stream (pages in flight) and after
    quiesce; the payload fingerprint covers every deterministic output.
    """
    from repro.apps.udp_server import UdpServerApp
    from repro.faults.chaos import disarmed
    from repro.fleet.chaos import audit_fleet
    from repro.fleet.fleet import Fleet, FleetConfig, HostState
    from repro.scenarios import fingerprint
    from repro.sim.units import MIB
    from repro.toolstack.config import DomainConfig, VifConfig

    if plan is None:
        plan = migration_storm_plan(seed, faults=faults, hosts=hosts)
    config = FleetConfig(hosts=hosts, seed=seed, policy="least-loaded",
                         host_memory_bytes=host_memory_mb * MIB,
                         host_dom0_bytes=(host_memory_mb // 3) * MIB)
    fleet = Fleet(config, plan=plan)
    violations: list[str] = []
    midstream_audits = 0
    rng = fleet.rng.fork("migration-chaos-workload")

    families = [f"fam{i}" for i in range(parents)]
    with disarmed(fleet.faults):
        for i, name in enumerate(families):
            fleet.create_family(DomainConfig(
                name=name, memory_mb=4,
                vifs=[VifConfig(ip=f"10.2.{i + 1}.1")], max_clones=1024),
                app_factory=UdpServerApp)

    for round_index in range(rounds):
        for name in families:
            family = fleet.families.get(name)
            if family is None:
                continue
            result = fleet.clone_family(name, count=batch)
            for host_name, domid in result.placed:
                host = fleet.host(host_name)
                child = host.platform.hypervisor.domains.get(domid)
                if child is None or not child.memory.segments:
                    continue
                try:
                    child.memory.write_range(
                        child.memory.segments[0].pfn_start,
                        rng.randint(1, 6))
                except ReproError:
                    pass
        # Drain the most-loaded UP host (where the families are), in
        # alternating modes; fall back to a rebalance pass when the
        # drain is not possible this round.
        live = [h for h in fleet.hosts if h.state is HostState.UP]
        if len(live) >= 2:
            victim = min(live, key=lambda h: (h.free_frames, h.index))
            mode = "postcopy" if round_index % 3 == 2 else "precopy"
            try:
                fleet.drain_host(victim.name, mode=mode)
            except ReproError:
                try:
                    fleet.rebalance()
                except ReproError:
                    pass
        # Stream while faults fire; audit with pages in flight.
        for _ in range(3):
            fleet.tick()
            if any(r.active for r in fleet.migrations):
                midstream_audits += 1
                violations.extend(f"mid-stream: {violation}"
                                  for violation in audit_fleet(fleet))
        # Return drained hosts to the pool — drained clean or drain
        # aborted by a fault, either way the host goes back to work so
        # later rounds have somewhere to migrate to.
        for host in fleet.hosts:
            draining = host.state is HostState.DRAINING
            if draining and not any(r.active and r.source == host.name
                                    for r in fleet.migrations):
                fleet.repair_host(host.name)
            elif host.state is HostState.DEGRADED:
                fleet.repair_host(host.name)

    # Quiesce: let in-flight migrations finish or die, then audit.
    for _ in range(fleet.config.heartbeat_timeout_beats
                   + MIGRATION_ROUND_LIMIT):
        fleet.tick()
        if not any(r.active for r in fleet.migrations):
            break
    for host in fleet.hosts:
        if host.state in (HostState.DRAINING, HostState.DEGRADED):
            fleet.repair_host(host.name)
    fleet.shutdown()

    stats = fleet.stats
    report = {
        "seed": seed,
        "hosts": hosts,
        "migrations_planned": stats["migrations_planned"],
        "migrations_done": stats["migrations_done"],
        "migrations_failed": stats["migrations_failed"],
        "pages_streamed": stats["migration_pages_streamed"],
        "pages_aborted": stats["migration_pages_aborted"],
        "faults_fired": (fleet.faults.stats["injected"]
                         if fleet.faults.enabled else 0),
        "midstream_audits": midstream_audits,
        "violations": violations + audit_fleet(fleet),
        "records": [r.to_dict() for r in fleet.migrations],
        "fleet_stats": fleet.report()["stats"],
        "clock_ms": round(fleet.clock.now, 6),
    }
    report["fingerprint"] = fingerprint(report)
    return report
