"""The fleet: N simulated hosts behind one placement control plane.

Each member host is a full :class:`repro.platform.Platform` — its own
hypervisor, frame pool, xenstored and xencloned — so nothing is shared
between hosts except the control plane itself, exactly like a rack of
independent Xen machines behind a pool master. The fleet routes clone
requests to hosts via a pluggable placement policy, forwards them
cross-host when the preferred host lacks capacity, and survives
host-level faults (:mod:`repro.faults` sites ``host.crash``,
``host.partition``, ``host.degraded``): failures are detected by
deterministic heartbeat timeouts on the fleet's virtual clock, in-flight
clone batches on a dying host unwind through the existing whole-batch
rollback, and affected clones are re-placed on surviving hosts with
bounded retries and exponential backoff.

Determinism: the fleet has its own :class:`VirtualClock` (control-plane
charges) and :class:`DeterministicRNG`; member-host seeds are forked
from the fleet seed, hosts are always iterated in index order, and all
failure triggers come from the fleet's :class:`FaultInjector`. A fixed
(seed, plan, policy) triple therefore reproduces byte-identical runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.devices.vif import RX_BUFFER_PAGES
from repro.errors import ReproError
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.fleet.placement import PlacementPolicy, make_policy
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.platform import Platform
from repro.sim import CostModel, DeterministicRNG, VirtualClock
from repro.sim.units import GIB, pages_of
from repro.toolstack.config import DomainConfig


class FleetError(ReproError):
    """Fleet-level failure (unknown family, no capacity anywhere)."""


class HostState(enum.Enum):
    """Lifecycle of one member host, as the control plane sees it."""

    #: Healthy: answers heartbeats, accepts placements.
    UP = "up"
    #: Grey failure: answers heartbeats but slowly; drained from new
    #: placement, existing instances keep running with a penalty.
    DEGRADED = "degraded"
    #: Administratively evacuating: keeps serving existing instances at
    #: full speed while warm migrations move its families away, but
    #: receives no new placements (see :mod:`repro.fleet.migration`).
    DRAINING = "draining"
    #: Unreachable but (presumably) still running guests — the
    #: split-brain window before fencing.
    PARTITIONED = "partitioned"
    #: Fail-stopped (guests died with it) but not yet declared dead.
    CRASHED = "crashed"
    #: Declared dead by the control plane; resources accounted.
    DEAD = "dead"


#: States a host can receive *new* placements in.
_PLACEABLE = (HostState.UP,)
#: States the control plane can still reach the host in.
_REACHABLE = (HostState.UP, HostState.DEGRADED, HostState.DRAINING)

#: Bounded re-placement: attempts per clone request before the
#: remainder is reported failed.
REPLACE_RETRY_LIMIT = 3


@dataclass
class FleetConfig:
    """Fleet shape and failure-detection calibration."""

    hosts: int = 4
    seed: int = 0xC10E
    #: Placement policy name (see :data:`repro.fleet.placement.POLICIES`).
    policy: str = "round-robin"
    #: Per-host memory (16 GiB: the paper's testbed, §6).
    host_memory_bytes: int = 16 * GIB
    host_dom0_bytes: int = 4 * GIB
    #: Missed beats before an unreachable host is declared dead and
    #: fenced (xapi-style HA: a few lost heartbeats, not one).
    heartbeat_timeout_beats: int = 3
    #: Enable tracing on the fleet control plane and member hosts.
    trace: bool = False


@dataclass(frozen=True)
class CloneResult:
    """Outcome of one fleet clone request, at child granularity.

    ``requested == len(placed) + failed`` always holds — a child is
    either placed on a (then-)healthy host or reported failed; the
    fleet never silently drops one. Frozen: results are facts, not
    scratch space.
    """

    family: str
    requested: int
    #: (host name, child domid) per successfully placed child.
    placed: tuple[tuple[str, int], ...] = ()
    failed: int = 0
    #: Re-placement attempts consumed (0 = first host took the batch).
    retries: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "family": self.family,
            "requested": self.requested,
            "placed": [[host, domid] for host, domid in self.placed],
            "failed": self.failed,
            "retries": self.retries,
        }


@dataclass(frozen=True)
class FamilyPlacement:
    """Where a freshly created family's first replica landed."""

    family: str
    host: str
    domid: int

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {"family": self.family, "host": self.host,
                "domid": self.domid}


@dataclass
class _Family:
    """One cloneable workload: a parent image plus its live instances."""

    name: str
    config: DomainConfig
    app_factory: Callable[[], Any] | None
    #: Host the family was first placed on (preferred clone target).
    origin: str
    #: host name -> parent replica domid.
    replicas: dict[str, int] = field(default_factory=dict)
    #: host name -> clone domids living there.
    clones: dict[str, list[int]] = field(default_factory=dict)
    #: Latest :class:`repro.fleet.migration.MigrationRecord` planned for
    #: this family (active while ``migration.active``); ``None`` if the
    #: family never migrated. Served by ``GET /families/{name}``.
    migration: Any = None


class FleetHost:
    """One member host: a full platform plus control-plane state."""

    def __init__(self, name: str, index: int, platform: Platform) -> None:
        self.name = name
        self.index = index
        self.platform = platform
        self.state = HostState.UP
        self.missed_beats = 0
        #: Set while a mid-batch kill is armed on this host's injector:
        #: the next clone failure is a host death, not a local error.
        self.dying = False

    @property
    def free_frames(self) -> int:
        """Free machine frames in the host's guest pool."""
        return self.platform.hypervisor.frames.free_frames

    @property
    def alive(self) -> bool:
        return self.state in _REACHABLE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FleetHost({self.name}, {self.state.value}, "
                f"{self.free_frames} free frames)")


class Fleet:
    """The placement control plane over N member hosts."""

    def __init__(self, config: FleetConfig | None = None,
                 plan: FaultPlan | None = None,
                 costs: CostModel | None = None) -> None:
        self.config = config if config is not None else FleetConfig()
        if self.config.hosts < 1:
            raise FleetError(f"non-positive host count: {self.config.hosts}")
        self.costs = costs if costs is not None else CostModel()
        self.clock = VirtualClock()
        self.rng = DeterministicRNG(self.config.seed)
        self.tracer = (Tracer(self.clock, host="fleet")
                       if self.config.trace else NULL_TRACER)
        self.policy: PlacementPolicy = make_policy(self.config.policy)
        #: The fleet-level injector: polls the ``host.*`` event sites.
        self.faults = (FaultInjector(plan, clock=self.clock,
                                     rng=self.rng.fork("fleet-faults"),
                                     tracer=self.tracer)
                       if plan is not None and plan.specs else NULL_INJECTOR)
        self.hosts: list[FleetHost] = []
        host_rng = self.rng.fork("host-seeds")
        for index in range(self.config.hosts):
            name = f"host{index}"
            platform = Platform.create(
                total_memory_bytes=self.config.host_memory_bytes,
                dom0_memory_bytes=self.config.host_dom0_bytes,
                seed=host_rng.fork(name).seed,
                trace=self.config.trace,
                host_name=name,
                costs=self.costs)
            # Every member gets a *live* injector (empty plan) so the
            # control plane can arm one-shot faults on a dying host at
            # runtime — that is how a host kill lands mid-batch and
            # exercises the existing whole-batch rollback.
            platform.attach_faults(FaultPlan(name=f"{name}-armed"))
            self.hosts.append(FleetHost(name, index, platform))
        self._by_name = {host.name: host for host in self.hosts}
        self._families: dict[str, _Family] = {}
        #: Monotonic counter bumped on every change that can alter which
        #: (host, domid) instances serve traffic: replica boots, clone
        #: placements, host state transitions, fencing, repairs and
        #: family teardown. Consumers (the front door's ``refresh``)
        #: cache derived pool views keyed on this epoch instead of
        #: re-deriving them per call. Direct platform-level destroys
        #: that bypass the fleet verbs (the chaos harness tearing down
        #: domains through ``platform.xl``) do not bump it.
        self.topology_epoch = 0
        self.beats = 0
        #: Every migration ever planned on this fleet, in plan order
        #: (active and terminal records alike — the page-ledger audit
        #: walks the full history).
        self.migrations: list[Any] = []
        self._planner: Any = None
        #: Serial for collision-free names of flatten-migrated domains.
        self._migration_boot_serial = 0
        self.stats = {
            "clone_requests": 0,
            "children_requested": 0,
            "children_placed": 0,
            "children_failed": 0,
            "children_lost": 0,
            "children_replaced": 0,
            "replace_failed": 0,
            "forwards": 0,
            "replacements_attempted": 0,
            "replicas_booted": 0,
            "replicas_lost": 0,
            "hosts_crashed": 0,
            "hosts_fenced": 0,
            "detections": 0,
            "degraded_marked": 0,
            "repairs": 0,
            "drains": 0,
            "migrations_planned": 0,
            "migrations_done": 0,
            "migrations_failed": 0,
            "migration_rounds": 0,
            "migration_pages_streamed": 0,
            "migration_pages_aborted": 0,
            "migration_shared_remapped": 0,
            "migration_demand_faults": 0,
            "migration_replicas_dropped": 0,
            "instances_migrated": 0,
        }

    # ------------------------------------------------------------------
    # host lookup / capacity model
    # ------------------------------------------------------------------
    def host(self, name: str) -> FleetHost:
        """The member host named ``name``."""
        try:
            return self._by_name[name]
        except KeyError:
            raise FleetError(f"unknown host {name!r}") from None

    def _clone_frames_estimate(self, config: DomainConfig) -> int:
        """Conservative private-frame footprint of one clone.

        Hypervisor bookkeeping plus the non-shareable RX buffers per
        vif, plus slack for early COW faults — the capacity check that
        decides when a clone request is forwarded cross-host.
        """
        return (self.costs.hyp_per_clone_overhead_pages
                + RX_BUFFER_PAGES * len(config.vifs) + 16)

    def _parent_frames_estimate(self, config: DomainConfig) -> int:
        """Frame footprint of booting a fresh parent replica."""
        return (pages_of(config.memory_mb * 1024 * 1024)
                + self.costs.hyp_per_domain_overhead_pages
                + RX_BUFFER_PAGES * len(config.vifs) + 16)

    def _candidates(self, need_frames: int) -> list[FleetHost]:
        return [host for host in self.hosts
                if host.state in _PLACEABLE
                and host.free_frames >= need_frames]

    # ------------------------------------------------------------------
    # families: create + clone
    # ------------------------------------------------------------------
    def create_family(self, config: DomainConfig,
                      app_factory: Callable[[], Any] | None = None,
                      ) -> FamilyPlacement:
        """Place a new cloneable parent; returns its placement."""
        if config.name in self._families:
            raise FleetError(f"family {config.name!r} already exists")
        candidates = self._candidates(self._parent_frames_estimate(config))
        if not candidates:
            raise FleetError(
                f"no host can place family {config.name!r}")
        host = self.policy.choose(candidates)
        family = _Family(name=config.name, config=config,
                         app_factory=app_factory, origin=host.name)
        domid = self._boot_replica(host, family)
        self._families[config.name] = family
        return FamilyPlacement(family=config.name, host=host.name,
                               domid=domid)

    def _boot(self, host: FleetHost, family: _Family, name: str) -> int:
        """Boot a standalone instance of ``family`` named ``name`` on
        ``host`` from the family's config; returns its domid."""
        config = family.config.for_clone(name)
        app = family.app_factory() if family.app_factory is not None else None
        return host.platform.xl.create(config, app=app).domid

    def _boot_replica(self, host: FleetHost, family: _Family) -> int:
        """Boot a parent replica of ``family`` on ``host``."""
        # Replica names are host-qualified so cross-host re-placement
        # never collides even though each host has its own xenstored.
        domid = self._boot(host, family, f"{family.name}.{host.name}")
        family.replicas[host.name] = domid
        self.topology_epoch += 1
        self.stats["replicas_booted"] += 1
        return domid

    def clone_family(self, name: str, count: int = 1) -> CloneResult:
        """Clone ``count`` instances of a family, placing them fleet-wide.

        The preferred host is the family's origin (then any host already
        holding a replica); the request is forwarded — policy-chosen —
        when the preferred hosts lack capacity, and re-placed with
        bounded exponential backoff when a host dies mid-request.
        """
        family = self._require_family(name)
        if count < 1:
            raise FleetError(f"non-positive clone count: {count}")
        self.stats["clone_requests"] += 1
        self.stats["children_requested"] += count
        placed, failed, retries = self._place_children(family, count)
        self.stats["children_placed"] += len(placed)
        self.stats["children_failed"] += failed
        return CloneResult(family=name, requested=count,
                           placed=tuple(placed), failed=failed,
                           retries=retries)

    def _require_family(self, name: str) -> _Family:
        try:
            return self._families[name]
        except KeyError:
            raise FleetError(f"unknown family {name!r}") from None

    def _place_children(self, family: _Family, count: int,
                        ) -> tuple[list[tuple[str, int]], int, int]:
        """Place ``count`` clones of ``family``; the retry/backoff loop.

        Returns (placed, failed, retries). Placed plus failed always
        covers the full count.
        """
        placed: list[tuple[str, int]] = []
        failed = 0
        retries = 0
        while len(placed) + failed < count:
            remaining = count - len(placed) - failed
            host = self._pick_clone_host(family, remaining)
            if host is None:
                failed += remaining
                break
            children = self._clone_on(host, family, remaining)
            if children is not None:
                placed.extend((host.name, domid) for domid in children)
                # Children xencloned reported CLONE_FAILED are a
                # per-child failure on a healthy host, not a host
                # death: reported, never silently dropped.
                failed += remaining - len(children)
                continue
            # The host died (or became unreachable) under the request:
            # back off exponentially on the fleet clock, then re-place
            # on the survivors — up to the configured bound.
            retries += 1
            self.stats["replacements_attempted"] += 1
            if retries > REPLACE_RETRY_LIMIT:
                failed += remaining
                break
            self.clock.charge(self.costs.fleet_replace_backoff
                              * (2 ** (retries - 1)))
        return placed, failed, retries

    def _pick_clone_host(self, family: _Family,
                         count: int) -> FleetHost | None:
        need = self._clone_frames_estimate(family.config) * count
        candidates = self._candidates(need)
        if not candidates:
            return None
        origin = self._by_name.get(family.origin)
        if origin in candidates:
            return origin
        with_replica = [host for host in candidates
                        if host.name in family.replicas]
        if with_replica:
            return self.policy.choose(with_replica)
        # Cross-host forward: no healthy replica host has capacity.
        forward_need = need + self._parent_frames_estimate(family.config)
        candidates = [h for h in candidates if h.free_frames >= forward_need]
        if not candidates:
            return None
        return self.policy.choose(candidates)

    def _clone_on(self, host: FleetHost, family: _Family,
                  count: int) -> list[int] | None:
        """Run one clone batch on ``host``; None means the host died.

        Polls the ``host.crash`` event site with ``op="clone"`` context
        first: a matching spec models the host dying *during* this very
        batch, implemented by arming a one-shot allocation fault on the
        host's own injector so the batch unwinds through CLONEOP's
        whole-batch rollback before the host is powered off.
        """
        if host.state not in _REACHABLE:
            # Connection refused: failure-triggered detection beats the
            # heartbeat timeout.
            self._declare_dead(host)
            return None
        if self.faults.event("host.crash", host=host.name, op="clone"):
            self._arm_midbatch_kill(host)
        if self.faults.event("host.partition", host=host.name, op="clone"):
            host.state = HostState.PARTITIONED
            self.topology_epoch += 1
            return None
        if host.state is HostState.DEGRADED:
            self.clock.charge(self.costs.fleet_degraded_penalty)
        try:
            if host.name not in family.replicas:
                self.clock.charge(self.costs.fleet_forward_rpc)
                self.stats["forwards"] += 1
                self._boot_replica(host, family)
            children = host.platform.xl.clone(family.replicas[host.name],
                                              count=count)
            family.clones.setdefault(host.name, []).extend(children)
        except ReproError:
            # The forward target could not boot the replica (capacity
            # raced away) or the batch was unwound by the whole-batch
            # rollback: a failed placement attempt, and the retry loop
            # picks another host (unless the host is dying).
            children = None
        if host.dying:
            # The armed kill landed in the replica boot or the clone
            # batch, or missed both (spec skipped too many hits): the
            # host dies all the same, and children it just placed die
            # with it and are re-placed by the power-off path.
            host.state = HostState.CRASHED
            self._declare_dead(host)
            return None
        if children is None:
            return None
        self.topology_epoch += 1
        return children

    def _arm_midbatch_kill(self, host: FleetHost) -> None:
        """Schedule ``host`` to fail-stop inside the next clone batch."""
        host.dying = True
        host.platform.faults.arm(FaultSpec(
            site="frames.alloc", count=1,
            after=self.rng.randint(0, 6)))
        self.tracer.event("fleet.host_kill_armed", host=host.name)

    # ------------------------------------------------------------------
    # heartbeats, detection, fencing
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One heartbeat round over every member host.

        Polls the host-level event sites with ``op="heartbeat"``
        context, accumulates missed beats for unreachable hosts, and
        declares them dead at the configured timeout. All cost lands on
        the fleet clock; detection latency is therefore deterministic.
        """
        self.beats += 1
        self.clock.charge(self.costs.fleet_heartbeat_poll * len(self.hosts))
        for host in self.hosts:
            if host.state is HostState.DEAD:
                continue
            if host.state in _REACHABLE:
                if self.faults.event("host.crash", host=host.name,
                                     op="heartbeat"):
                    host.state = HostState.CRASHED
                    self.topology_epoch += 1
                elif self.faults.event("host.partition", host=host.name,
                                       op="heartbeat"):
                    host.state = HostState.PARTITIONED
                    self.topology_epoch += 1
                elif (host.state is HostState.UP
                      and self.faults.event("host.degraded", host=host.name,
                                            op="heartbeat")):
                    host.state = HostState.DEGRADED
                    self.topology_epoch += 1
                    self.stats["degraded_marked"] += 1
            if host.state in (HostState.CRASHED, HostState.PARTITIONED):
                host.missed_beats += 1
                if host.missed_beats >= self.config.heartbeat_timeout_beats:
                    self._declare_dead(host)
            else:
                host.missed_beats = 0
        # Warm migrations advance one round per heartbeat, so drains and
        # rebalances make progress while traffic keeps flowing.
        if self.migrations:
            self.planner.tick()

    def run_heartbeats(self, beats: int) -> None:
        """Run ``beats`` heartbeat rounds back to back."""
        for _ in range(beats):
            self.tick()

    def repair_host(self, name: str) -> None:
        """Heal a degraded/drained host back into the placement pool."""
        host = self.host(name)
        if host.state not in (HostState.DEGRADED, HostState.DRAINING):
            raise FleetError(
                f"host {name} is {host.state.value}, "
                f"not degraded or draining")
        host.state = HostState.UP
        self.topology_epoch += 1
        self.stats["repairs"] += 1

    # ------------------------------------------------------------------
    # warm migration: drain + rebalance (see repro.fleet.migration)
    # ------------------------------------------------------------------
    @property
    def planner(self):
        """The fleet's :class:`~repro.fleet.migration.MigrationPlanner`.

        Created lazily so fleets that never migrate pay nothing (and so
        the module import stays acyclic).
        """
        if self._planner is None:
            from repro.fleet.migration import MigrationPlanner
            self._planner = MigrationPlanner(self)
        return self._planner

    def drain_host(self, name: str, mode: str = "precopy") -> list:
        """Evacuate ``name``: warm-migrate every family it hosts away.

        The host enters :attr:`HostState.DRAINING` — it keeps serving
        its existing instances at full speed but takes no new placements
        — and one migration per resident family is planned; they stream
        on subsequent heartbeats. Returns the planned records (families
        with no feasible target are skipped and stay put). Once drained,
        ``repair_host`` returns the host to the pool.
        """
        host = self.host(name)
        if host.state is HostState.DRAINING:
            raise FleetError(f"host {name} is already draining")
        if host.state not in _PLACEABLE:
            raise FleetError(
                f"host {name} is {host.state.value}, not up")
        host.state = HostState.DRAINING
        self.topology_epoch += 1
        self.stats["drains"] += 1
        self.tracer.event("fleet.drain", host=name)
        return self.planner.plan_drain(host, mode=mode)

    def rebalance(self, mode: str = "precopy") -> list:
        """One rebalance pass: warm-migrate a family off the most
        loaded host when the placement policy reports an imbalance.

        Policies without a rebalance notion (round-robin) plan nothing;
        returns the planned records (empty when balanced).
        """
        return self.planner.plan_rebalance(mode=mode)

    def _declare_dead(self, host: FleetHost) -> None:
        """Fence + account a failed host, then re-place its children."""
        if host.state is HostState.DEAD:
            return
        was_partitioned = host.state is HostState.PARTITIONED
        self.clock.charge(self.costs.fleet_detect_fixed)
        self.stats["detections"] += 1
        self.tracer.event("fleet.host_dead", host=host.name,
                          cause=host.state.value)
        platform = host.platform
        if was_partitioned:
            # STONITH: the pool master power-cycles the unreachable
            # host before re-placing its workloads, so a family is
            # never live on two sides of a partition.
            self.clock.charge(self.costs.fleet_fence_per_domain
                              * platform.guest_count())
            self.stats["hosts_fenced"] += 1
        else:
            self.stats["hosts_crashed"] += 1
        host.state = HostState.DEAD
        host.dying = False
        self.topology_epoch += 1
        # A dead host aborts every in-flight migration touching it: the
        # family stays wholly where it was (pre-cutover) or is torn down
        # at the target and re-placed cold (post-copy that lost its
        # source) — never left split across hosts.
        if self.migrations:
            for record in self.migrations:
                if not record.active:
                    continue
                if host.name not in (record.source, record.target):
                    continue
                reason = ("source-lost" if record.source == host.name
                          else "target-lost")
                if record.committed and record.source == host.name:
                    self.planner._fail_moved_family(record, reason)
                else:
                    self.planner._abort(record, reason)
        # Power-off accounting: every guest's frames/grants/backends are
        # released, and all in-flight clone-plumbing state dies with the
        # host — audit_fleet verifies nothing survives.
        platform.xencloned.shutdown()
        for domid in sorted(platform.hypervisor.domains):
            if domid not in platform.hypervisor.domains:
                continue
            try:
                platform.xl.destroy(domid)
            except ReproError:
                platform.hypervisor.destroy_domain(domid)
        platform.cloneop.host_shutdown()
        # Strike the dead host from every family (nothing there is live
        # any more), then fail the lost children over onto the survivors.
        lost: list[tuple[_Family, int]] = []
        for family in self._families.values():
            dead_clones, replica = self._evict(family, host)
            if replica is not None:
                self.stats["replicas_lost"] += 1
            if dead_clones:
                lost.append((family, len(dead_clones)))
        for family, n in lost:
            self._fail_over(family, n)

    def _fail_over(self, family: _Family, lost: int) -> None:
        """Account ``lost`` clones of ``family`` that died with a host
        (or with a failed post-copy migration) and re-place them on the
        survivors."""
        self.stats["children_lost"] += lost
        placed, failed, _retries = self._place_children(family, lost)
        self.stats["children_replaced"] += len(placed)
        self.stats["replace_failed"] += failed

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def _evict(self, family: _Family,
               host: FleetHost) -> tuple[list[int], int | None]:
        """Destroy ``family``'s live instances on ``host`` (clones, then
        the replica) and strike the host from the family record.

        Returns the struck clone domids and replica domid (``None`` when
        the host held no replica); instances already dead are struck
        all the same.
        """
        clones = family.clones.pop(host.name, [])
        replica = family.replicas.pop(host.name, None)
        domains = host.platform.hypervisor.domains
        for domid in (*clones, replica):
            if domid is not None and domid in domains:
                host.platform.xl.destroy(domid)
        return clones, replica

    def destroy_family(self, name: str) -> None:
        """Destroy every live instance of a family, fleet-wide."""
        family = self._families.pop(name, None)
        if family is None:
            raise FleetError(f"unknown family {name!r}")
        self.topology_epoch += 1
        for record in self.migrations:
            if record.active and record.family == name:
                self.planner._abort(record, "family-destroyed")
        for host_name in sorted(set(family.clones) | set(family.replicas)):
            self._evict(family, self._by_name[host_name])

    def shutdown(self) -> None:
        """Quiesce the fleet: fence stragglers, destroy every family."""
        for host in self.hosts:
            if host.state in (HostState.CRASHED, HostState.PARTITIONED):
                self._declare_dead(host)
        # In-flight migrations are aborted in place (families are about
        # to be destroyed anyway); the page ledger stays conserved.
        for record in self.migrations:
            if record.active:
                self.planner._abort(record, "fleet-shutdown")
        for name in sorted(self._families):
            self.destroy_family(name)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def families(self) -> dict[str, _Family]:
        """Live family records (read-only by convention)."""
        return self._families

    def live_hosts(self) -> list[FleetHost]:
        """Hosts the control plane can still reach, in index order."""
        return [host for host in self.hosts if host.alive]

    def guest_count(self) -> int:
        """Guests live fleet-wide (dead hosts contribute zero)."""
        return sum(host.platform.guest_count() for host in self.hosts)

    def report(self) -> dict[str, Any]:
        """Machine-readable fleet state (JSON-serializable)."""
        return {
            "hosts": {
                host.name: {
                    "state": host.state.value,
                    "free_frames": host.free_frames,
                    "guests": host.platform.guest_count(),
                    "clock_ms": round(host.platform.clock.now, 6),
                } for host in self.hosts
            },
            "families": {
                family.name: {
                    "origin": family.origin,
                    "replicas": dict(sorted(family.replicas.items())),
                    "clones": {h: len(c) for h, c
                               in sorted(family.clones.items())},
                } for family in self._families.values()
            },
            "policy": self.policy.name,
            "beats": self.beats,
            "clock_ms": round(self.clock.now, 6),
            "migrations": [record.to_dict()
                           for record in self.migrations],
            "stats": dict(self.stats),
        }
