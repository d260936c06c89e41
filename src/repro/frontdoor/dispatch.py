"""The request-dispatch load balancer: request cloning + cancellation.

The front door sends simulated user traffic at the clone replicas a
:class:`~repro.fleet.Fleet` placed across its member hosts. Every
replica is modelled as a **processor-sharing server** on the fleet's
virtual clock: it delivers one work-millisecond per virtual
millisecond, shared equally among the requests it currently serves —
the service model of "Modeling of Request Cloning in Cloud Server
Systems using Processor Sharing" (PAPERS.md).

Request cloning (that paper's subject): each incoming request is
dispatched to ``clone_factor`` distinct replicas; all copies carry the
*same* service demand (synchronized service). The first copy to finish
completes the request and the remaining copies are **cancelled on the
virtual clock**, their partially delivered service counted as waste.
Cloning therefore buys tail latency (the winner is the copy on the
least-contended replica) at the price of extra load — past a capacity
knee the waste saturates the fleet and the tail blows up, which is
exactly the trade-off the headline experiment
(:mod:`repro.experiments.frontdoor_p99`) measures against the model's
analytic curves.

The PS servers use **virtual-time (attained-service) accounting**: each
server keeps a virtual clock ``V`` that advances by ``rate / n`` per
wall millisecond with ``n`` jobs in service. A copy admitted at
``V_admit`` with demand ``D`` has ``D − (V − V_admit)`` work left — one
O(1) formula however long the copy has been resident — and a
per-server min-heap keyed on the finish virtual time ``V_admit + D``
names the soonest departure. Advance, admit and cancel are O(1) in the
number of resident jobs and the next departure is a heap peek, instead
of the O(n) decrement/scan of the naive formulation. The formula
agrees with the naive per-job decrement to within float rounding (the
equivalence suite holds it to ``EPS``), and a fresh job on an idle
server departs at exactly ``now + D / rate``.

One drive loop runs every dispatch. It merges three sources: the
pre-generated arrival array, read through the loop's own arrival
cursor; the front door's :class:`~repro.sim.engine.Engine` queue,
which holds only timeouts, retries and the periodic heartbeat /
autoscale callbacks; and the departure-hint heap, which holds every
busy server's exact next departure. Arrivals and departures never
become engine events. Each source's head carries a ``(time, seq)``
key, every seq drawn from the engine's one counter, and the least key
runs next — one order, as if every source were an engine event.

Determinism: arrivals, demands and routing each draw from their own
forked RNG stream keyed by (family, shape, label), every source runs on
the fleet clock, and the
:class:`~repro.frontdoor.results.DispatchResult` fingerprint covers the
full per-request latency series — same seed, same bytes.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from array import array
from typing import TYPE_CHECKING, Any

from repro.apps.traffic import RequestShape, as_shape
from repro.frontdoor.model import expected_sojourn_ms, retry_after_ms
from repro.frontdoor.resilience import ResiliencePolicy, ResilienceState
from repro.frontdoor.results import (
    DispatchResult,
    DispatchTimeout,
    FrontDoorError,
    NoCapacity,
    Overloaded,
)
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.fleet import Fleet

#: Remaining-work epsilon below which a copy counts as finished
#: (absorbs float drift from repeated processor-sharing advances).
EPS = 1e-9

#: Network round trip through the load balancer (route + response
#: forwarding), added to every completed request's latency. A module
#: constant rather than a CostModel field, like the per-workload
#: calibrations in :mod:`repro.apps` — it never touches the shared
#: fleet clock, so control-plane charges cannot skew arrival times.
DISPATCH_RTT_MS = 0.08

#: Service-rate multiplier of a replica on a DEGRADED (grey) host.
DEGRADED_RATE = 0.5

#: Per-replica concurrency cap (listen backlog): a copy routed to a
#: full replica is rejected at admission. Bounds the per-departure
#: candidate set, and keeps past-the-knee runs finite.
MAX_JOBS_PER_SERVER = 256

#: Copy lifecycle states.
_ACTIVE, _WON, _CANCELLED, _LOST, _TIMED_OUT = range(5)

#: Departure heaps smaller than this are never compacted (the engine's
#: ``_COMPACT_MIN`` discipline): popping past a handful of dead entries
#: is cheaper than rebuilding.
_HEAP_COMPACT_MIN = 64


class _Copy:
    """One clone copy of a request, in service at one replica.

    ``v_admit`` is the server's virtual clock at admission, so the
    copy's remaining work is ``demand − (vclock − v_admit)``
    (:meth:`ReplicaServer.remaining`). ``vkey`` (finish virtual time)
    only orders the server's departure heap.
    """

    __slots__ = ("request", "server", "consumed_ms", "state", "in_service",
                 "seq", "vkey", "v_admit", "job_idx")

    def __init__(self, request: "_Request", server: "ReplicaServer") -> None:
        self.request = request
        self.server = server
        self.consumed_ms = 0.0
        self.state = _ACTIVE
        self.in_service = False
        self.seq = 0
        self.vkey = 0.0
        self.v_admit = 0.0
        self.job_idx = -1


class _Request:
    """One user request: demand plus its live copies."""

    __slots__ = ("rid", "t_arrive_ms", "demand_ms", "copies", "resolved",
                 "timeout_event", "attempts")

    def __init__(self, rid: int, t_arrive_ms: float, demand_ms: float) -> None:
        self.rid = rid
        self.t_arrive_ms = t_arrive_ms
        self.demand_ms = demand_ms
        self.copies: list[_Copy] = []
        self.resolved = False
        self.timeout_event = None
        #: Dispatch attempts so far, the first try included. Retries
        #: (resilience layer) bump this; ``t_arrive_ms`` keeps the
        #: *original* arrival so latency and deadline cover the retries.
        self.attempts = 1

    def active_copies(self) -> list[_Copy]:
        return [c for c in self.copies if c.state == _ACTIVE]


class ReplicaServer:
    """One clone replica as a processor-sharing server.

    The server delivers ``rate`` work-ms per virtual ms, split equally
    over its current jobs; ``work_done_ms`` accounts every delivered
    work-ms exactly once (the conservation law ``audit_fleet`` checks).

    Accounting is virtual-time: ``advance`` bumps ``vclock`` by the
    per-job share — O(1) — and a copy's remaining work is
    ``demand − (vclock − v_admit)``, read on demand.
    """

    __slots__ = ("host", "domid", "rate", "jobs", "last_ms",
                 "work_done_ms", "alive", "draining", "vclock",
                 "hint_seq", "_heap", "_heap_dead", "_seq")

    def __init__(self, host: str, domid: int, now_ms: float) -> None:
        self.host = host
        self.domid = domid
        self.rate = 1.0
        self.jobs: list[_Copy] = []
        self.last_ms = now_ms
        self.work_done_ms = 0.0
        self.alive = True
        #: Host is DRAINING (mid-migration): resilient routing avoids
        #: it unless it is the only capacity left.
        self.draining = False
        #: Cumulative per-job service (virtual time), in work-ms.
        self.vclock = 0.0
        #: Token of this server's single *live* departure hint in the
        #: dispatcher's hint heap. Every push bumps it, superseding
        #: all earlier hints for the server — a popped entry whose
        #: token no longer matches is dead and drops for free.
        self.hint_seq = 0
        #: Departure heap of (finish virtual time, admission seq, copy).
        self._heap: list[tuple[float, int, _Copy]] = []
        self._heap_dead = 0
        self._seq = 0

    @property
    def key(self) -> tuple[str, int]:
        return (self.host, self.domid)

    def admit(self, copy: _Copy) -> None:
        """Put a copy in service (does not advance the clock)."""
        copy.seq = self._seq
        self._seq += 1
        copy.v_admit = self.vclock
        copy.vkey = self.vclock + copy.request.demand_ms
        copy.in_service = True
        copy.job_idx = len(self.jobs)
        self.jobs.append(copy)
        heapq.heappush(self._heap, (copy.vkey, copy.seq, copy))

    def advance(self, now_ms: float) -> None:
        """Deliver the processor-sharing service earned since last call."""
        dt = now_ms - self.last_ms
        self.last_ms = now_ms
        jobs = self.jobs
        if dt <= 0.0 or not jobs:
            return
        self.vclock += dt * self.rate / len(jobs)
        self.work_done_ms += dt * self.rate

    def remaining(self, copy: _Copy) -> float:
        """Work ``copy`` still needs (as of the last advance).

        ``demand − (vclock − v_admit)`` rather than ``vkey − vclock``:
        a fresh copy's service so far is exactly zero, so its
        remaining work is exactly its demand.
        """
        return copy.request.demand_ms - (self.vclock - copy.v_admit)

    def consumed_of(self, copy: _Copy) -> float:
        """Service delivered to ``copy`` so far (as of the last advance)."""
        return self.vclock - copy.v_admit

    def next_departure_ms(self) -> float:
        """Absolute time the soonest job finishes, given no changes.

        The heap top (least finish virtual time) is the soonest job;
        its :meth:`remaining` work drains at ``rate / len(jobs)``. One
        flat method — dead heap heads are pruned inline — because it
        runs on every reschedule.
        """
        heap = self._heap
        entry = heap[0]
        if not entry[2].in_service:
            pop = heapq.heappop
            dead = self._heap_dead
            while True:
                pop(heap)
                dead -= 1
                entry = heap[0]
                if entry[2].in_service:
                    break
            self._heap_dead = dead
        copy = entry[2]
        remaining = copy.request.demand_ms - (self.vclock - copy.v_admit)
        if remaining < 0.0:
            remaining = 0.0
        return self.last_ms + remaining * len(self.jobs) / self.rate

    def finished_jobs(self) -> list[_Copy]:
        """Jobs whose remaining work is ≤ EPS, in admission order.

        Walks the heap in finish-V order and stops at the first job
        with work left; the walked entries go back on the heap (the
        caller removes the finished copies).
        """
        heap = self._heap
        pop = heapq.heappop
        vclock = self.vclock
        popped = []
        finished: list[_Copy] = []
        while heap:
            copy = heap[0][2]
            if not copy.in_service:
                pop(heap)
                self._heap_dead -= 1
                continue
            if copy.request.demand_ms - (vclock - copy.v_admit) > EPS:
                break
            popped.append(pop(heap))
            finished.append(copy)
        for entry in popped:
            heapq.heappush(heap, entry)
        if len(finished) > 1:
            finished.sort(key=lambda c: c.seq)
        return finished

    def remove(self, copy: _Copy) -> None:
        """Take a copy out of service (won, cancelled or timed out).

        The heap entry is left behind as garbage (lazy deletion) and
        reclaimed either when it surfaces or when dead entries come to
        outnumber live ones — the engine's compaction discipline.

        ``jobs`` is an unordered bag (swap-remove keeps departures
        O(1) instead of scanning up to ``MAX_JOBS_PER_SERVER`` slots):
        nothing simulation-visible reads its order — departures come
        out of :meth:`finished_jobs` sorted by admission ``seq``.
        """
        jobs = self.jobs
        idx = copy.job_idx
        last = jobs.pop()
        if last is not copy:
            jobs[idx] = last
            last.job_idx = idx
        copy.job_idx = -1
        copy.in_service = False
        self._heap_dead += 1
        heap = self._heap
        if self._heap_dead * 2 > len(heap) and len(heap) >= _HEAP_COMPACT_MIN:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the departure heap from the jobs in service, dropping
        every dead entry."""
        rebuilt = [(c.vkey, c.seq, c) for c in self.jobs]
        heapq.heapify(rebuilt)
        self._heap = rebuilt
        self._heap_dead = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReplicaServer({self.host}/{self.domid}, "
                f"{len(self.jobs)} jobs, rate {self.rate})")


class _Run:
    """Mutable state of one ``run_workload`` invocation.

    Latencies live in a flat ``array('d')`` with NaN marking
    failed/timed-out/in-flight slots (1M requests fit in 8 MB instead
    of a list of boxed floats); counters are slotted ints bumped on the
    hot path and flushed into the front door's ``stats`` dict once at
    run end.
    """

    __slots__ = ("requests", "latencies", "resolved", "admitted",
                 "rejected", "completed", "failed", "timed_out", "copies",
                 "copies_won", "copies_cancelled", "copies_lost",
                 "copies_timed_out", "work_served", "work_useful",
                 "offered", "shed", "retries", "family", "clone_factor",
                 "timeout_ms", "mean_service_ms")

    def __init__(self, requests: int) -> None:
        self.requests = requests
        #: Per-rid latency (NaN = failed / timed out / in flight).
        self.latencies = array("d", [float("nan")]) * requests
        self.resolved = 0
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.timed_out = 0
        self.copies = 0
        self.copies_won = 0
        self.copies_cancelled = 0
        self.copies_lost = 0
        self.copies_timed_out = 0
        self.work_served = 0.0
        self.work_useful = 0.0
        #: First tries offered to admission (== admitted + shed).
        self.offered = 0
        self.shed = 0
        self.retries = 0
        # Run context the resilience layer (admission sheds, retries)
        # needs off the hot path; set once by ``run_workload``.
        self.family = ""
        self.clone_factor = 1
        self.timeout_ms: float | None = None
        self.mean_service_ms = 0.0


class FrontDoor:
    """The fleet's request-dispatch tier.

    One front door per fleet; server pools are per clone family (every
    parent replica and every placed clone serves requests). The front
    door owns its own event engine bound to the fleet clock. Its event
    counts live in ``stats``; each run's latency statistics are computed
    exactly from that run's per-request latency array.
    """

    def __init__(self, fleet: "Fleet",
                 max_jobs_per_server: int = MAX_JOBS_PER_SERVER,
                 resilience: "ResiliencePolicy | None" = None) -> None:
        self.fleet = fleet
        self.engine = Engine(fleet.clock)
        self.rng = fleet.rng.fork("frontdoor")
        self.max_jobs_per_server = max_jobs_per_server
        #: Default overload-resilience policy for every run (may be
        #: overridden per ``run_workload`` call); ``None`` keeps the
        #: resilience layer entirely off the hot path.
        self.resilience = resilience
        #: Persistent resilience runtime (breakers, retry budget) —
        #: survives across runs so breaker state sees history.
        self._res: ResilienceState | None = None
        #: The *current run's* resilience state (None when the run has
        #: no policy): the only thing hot paths test.
        self._active_res: ResilienceState | None = None
        #: Fault injector for the frontdoor.* sites, non-None only
        #: during a resilient run with faults enabled.
        self._inj = None
        #: family name -> ordered replica pool.
        self._pools: dict[str, dict[tuple[str, int], ReplicaServer]] = {}
        #: family name -> flat pool view + the fleet topology epoch it
        #: was derived at. ``refresh`` only re-enumerates a family when
        #: the fleet's ``topology_epoch`` moved.
        self._pool_lists: dict[str, list[ReplicaServer]] = {}
        self._pool_epochs: dict[str, int] = {}
        #: Work delivered by replicas that have since died or been
        #: retired from a pool — keeps the conservation ledger whole.
        self.retired_work_ms = 0.0
        #: The in-progress ``run_workload`` bookkeeping (None between runs).
        self._run: _Run | None = None
        #: Departure-hint heap of ``(when, seq, token, server)`` (None
        #: outside a run), with ``seq`` drawn from the engine's counter.
        #: Each server owns one *live* hint, its exact next departure:
        #: every state-changing push bumps its ``hint_seq`` token,
        #: superseding earlier entries, which then drop for free at
        #: peek.
        self._dep_heap: list | None = None
        self.stats: dict[str, Any] = {
            "requests": 0,
            "completed": 0,
            "failed": 0,
            "timed_out": 0,
            "copies": 0,
            "copies_won": 0,
            "copies_cancelled": 0,
            "copies_lost": 0,
            "copies_timed_out": 0,
            "rejected_no_capacity": 0,
            "servers_retired": 0,
            "autoscale_events": 0,
            "work_served_ms": 0.0,
            "work_useful_ms": 0.0,
            "offered": 0,
            "shed": 0,
            "retries": 0,
            "breaker_trips": 0,
        }

    # ------------------------------------------------------------------
    # replica pools
    # ------------------------------------------------------------------
    def refresh(self, family: str) -> list[ReplicaServer]:
        """Sync the family's server pool with the fleet's live state.

        New replicas/clones join the pool; instances whose host died
        (or which were destroyed) retire — their in-flight copies are
        reported lost, and a request whose last copy is lost fails.
        Hosts marked DEGRADED serve at :data:`DEGRADED_RATE`.

        The enumeration is keyed on ``fleet.topology_epoch``: while the
        fleet reports no placement/host-state change, the cached pool
        view is returned without re-walking (or re-sorting) the family.
        """
        fleet = self.fleet
        fam = fleet.families.get(family)
        if fam is None:
            raise FrontDoorError(f"unknown family {family!r}")
        epoch = fleet.topology_epoch
        if self._pool_epochs.get(family) == epoch:
            cached = self._pool_lists.get(family)
            if cached is not None:
                return cached
        pool = self._pools.setdefault(family, {})
        now = fleet.clock.now
        live: set[tuple[str, int]] = set()
        entries = ([(h, d) for h, d in sorted(fam.replicas.items())]
                   + [(h, d) for h in sorted(fam.clones)
                      for d in fam.clones[h]])
        for host_name, domid in entries:
            host = fleet.host(host_name)
            if not host.alive or domid not in host.platform.hypervisor.domains:
                continue
            live.add((host_name, domid))
            server = pool.get((host_name, domid))
            if server is None:
                server = pool[(host_name, domid)] = ReplicaServer(
                    host_name, domid, now)
            rate = DEGRADED_RATE if host.state.value == "degraded" else 1.0
            if rate != server.rate:
                # Service delivered so far was earned at the old rate:
                # bill it before switching, then re-hint the departure.
                server.advance(now)
                server.rate = rate
                self._reschedule(server, now)
            server.draining = host.state.value == "draining"
        for key in [k for k in pool if k not in live]:
            self._retire(pool.pop(key), now)
        view = list(pool.values())
        self._pool_lists[family] = view
        self._pool_epochs[family] = epoch
        return view

    def _retire(self, server: ReplicaServer, now_ms: float) -> None:
        """A replica left the pool (host death or destroy): orphan its
        copies; a request with no surviving copy fails."""
        server.advance(now_ms)
        server.alive = False
        self.retired_work_ms += server.work_done_ms
        self.stats["servers_retired"] += 1
        vclock = server.vclock
        for copy in list(server.jobs):
            copy.consumed_ms = vclock - copy.v_admit
            server.remove(copy)
            copy.state = _LOST
            self._end_copy(copy)
            request = copy.request
            if not request.resolved and not request.active_copies():
                self._fail(request, self._run)
        server._compact()

    # ------------------------------------------------------------------
    # workload runs
    # ------------------------------------------------------------------
    def run_workload(self, family: str, shape: "RequestShape | str", *,
                     requests: int, arrival_rps: float,
                     clone_factor: int = 1,
                     timeout_ms: float | None = None,
                     autoscale: "AutoscalePolicy | None" = None,
                     heartbeat_every_ms: float | None = None,
                     label: str = "",
                     resilience: "ResiliencePolicy | None" = None,
                     report_segments: int = 0) -> DispatchResult:
        """Dispatch an open-loop Poisson request stream at the family.

        Each request is cloned to ``clone_factor`` distinct replicas
        (first response wins, the rest are cancelled). ``autoscale``
        grows the family during the run; ``heartbeat_every_ms``
        interleaves fleet heartbeat rounds (and pool refreshes) with
        the traffic, which is how host-kill chaos composes with
        dispatch. ``resilience`` (or the front door's default policy)
        arms admission control, brownout, budgeted retries and circuit
        breakers for this run; ``report_segments`` adds a per-segment
        completed-count series to the result (goodput over virtual
        time). Returns a :class:`DispatchResult`.
        """
        shape = as_shape(shape)
        if requests < 1:
            raise FrontDoorError(f"non-positive request count: {requests}")
        if clone_factor < 1:
            raise FrontDoorError(f"non-positive clone factor: {clone_factor}")
        if arrival_rps <= 0:
            raise FrontDoorError(f"non-positive arrival rate: {arrival_rps}")
        if report_segments < 0:
            raise FrontDoorError(f"negative report_segments: {report_segments}")
        pool = self.refresh(family)
        if len(pool) < clone_factor:
            raise NoCapacity(
                f"family {family!r} has {len(pool)} ready replicas, "
                f"need clone_factor={clone_factor}")

        policy = resilience if resilience is not None else self.resilience
        res = None
        if policy is not None:
            res = self._res
            if res is None or res.policy != policy:
                res = self._res = ResilienceState(
                    policy, self.rng, self.fleet.clock.now)
        self._active_res = res
        faults = self.fleet.faults
        self._inj = (faults if res is not None
                     and getattr(faults, "enabled", False) else None)

        base = self.rng.fork(f"dispatch:{family}:{shape.name}:{label}")
        arrival_rng = base.fork("arrivals")
        demand_rng = base.fork("demand")
        route_rng = base.fork("route")
        run = _Run(requests)
        run.family = family
        run.clone_factor = clone_factor
        run.timeout_ms = timeout_ms
        run.mean_service_ms = shape.mean_service_ms
        self._run = run
        t_start = self.fleet.clock.now
        mean_gap_ms = 1000.0 / arrival_rps

        # Pre-generate the whole arrival process in one pass per RNG
        # stream: the streams are independent forks, so batch order
        # draws the same values the per-event interleaving would have.
        expo = arrival_rng.expovariate
        gap_rate = 1.0 / mean_gap_ms
        arrivals = array("d", (expo(gap_rate) for _ in range(requests)))
        t_next = t_start
        for index, gap in enumerate(arrivals):
            t_next += gap
            arrivals[index] = t_next
        expo = demand_rng.expovariate
        demand_rate = 1.0 / shape.mean_service_ms
        demands = array("d", (expo(demand_rate) for _ in range(requests)))

        periodic = []
        if heartbeat_every_ms is not None:
            def beat() -> None:
                self.fleet.tick()
                self.refresh(family)
            periodic.append(self.engine.every(heartbeat_every_ms, beat))
        if autoscale is not None:
            window = {"seen": 0}

            def check_scale() -> None:
                arrived = run.admitted - window["seen"]
                window["seen"] = run.admitted
                self._autoscale_check(family, autoscale, arrived)
            periodic.append(self.engine.every(
                autoscale.check_interval_ms, check_scale))

        # The one drive loop (module docstring), bounded by a drain
        # guard: the least ``(time, seq)`` key among the next arrival,
        # the engine queue head and the hint heap head runs next. Seqs
        # are unique, so heads compare as plain tuples. An arrival's
        # key is its time clamped to the clock after the previous
        # admit, with a seq drawn right after that admit.
        guard = 60 * requests + 100_000
        steps = 0
        engine = self.engine
        queue = engine._queue
        next_time = engine.next_time
        step = engine.step
        mint = engine.next_seq
        clock = self.fleet.clock
        admit = self._admit
        depart = self._depart
        heappop = heapq.heappop
        self._dep_heap = dep = []
        rid = 0
        arrival = (arrivals[0], mint())
        try:
            while run.resolved < requests:
                # Earliest live departure hint (dead servers and
                # superseded hints are dropped on the way).
                while dep:
                    head = dep[0]
                    hint_server = head[3]
                    if (head[2] == hint_server.hint_seq
                            and hint_server.jobs
                            and hint_server.alive):
                        break
                    heappop(dep)
                if queue and queue[0][2].cancelled:
                    next_time()  # drops the cancelled heads
                # source: 1 arrival, 2 engine event, 3 departure hint.
                source = 0
                if rid < requests:
                    source = 1
                    head = arrival
                if queue and (not source or queue[0] < head):
                    source = 2
                    head = queue[0]
                if dep and (not source or dep[0] < head):
                    source = 3
                if source == 1:
                    t_arrive = arrival[0]
                    if t_arrive > clock._now:
                        clock._now = t_arrive
                    admit(run, rid, demands[rid], family, clone_factor,
                          route_rng, timeout_ms)
                    rid += 1
                    if rid < requests:
                        t_arrive = arrivals[rid]
                        if t_arrive < clock._now:
                            t_arrive = clock._now
                        arrival = (t_arrive, mint())
                elif source == 2:
                    step()
                elif source == 3:
                    when, _, _, server = heappop(dep)
                    if when > clock._now:
                        clock._now = when
                    depart(server)
                else:
                    raise FrontDoorError(
                        "dispatch engine drained with "
                        f"{requests - run.resolved} unresolved requests")
                steps += 1
                if steps > guard:
                    raise FrontDoorError("dispatch failed to drain "
                                         f"(engine ran {steps} events)")
        finally:
            self._dep_heap = None
            for handle in periodic:
                handle.cancel()
            # Between runs no copy is in service: drop the dead heap
            # entries, whose copies point back at their server.
            for pool in self._pools.values():
                for server in pool.values():
                    if server._heap_dead:
                        server._compact()
        self._flush_run(run)
        self._run = None
        self._active_res = None
        self._inj = None
        duration = self.fleet.clock.now - t_start
        return self._finalize(
            run, family, shape, clone_factor, arrival_rps, duration,
            work_served=run.work_served, work_useful=run.work_useful,
            resilient=res is not None, report_segments=report_segments)

    def dispatch_one(self, family: str, shape: "RequestShape | str", *,
                     clone_factor: int = 1,
                     timeout_ms: float | None = None) -> float:
        """Dispatch one request synchronously; returns its latency (ms).

        Raises :class:`NoCapacity` when the family lacks replicas and
        :class:`DispatchTimeout` when the request missed its deadline.
        """
        result = self.run_workload(
            family, shape, requests=1, arrival_rps=1000.0,
            clone_factor=clone_factor, timeout_ms=timeout_ms,
            label=f"one:{self.stats['requests']}")
        if result.shed and not result.completed:
            raise Overloaded(
                f"request to {family!r} shed by admission control",
                retry_after_ms=self.retry_after_hint_ms(family, shape))
        if result.timed_out:
            raise DispatchTimeout(
                f"request to {family!r} exceeded {timeout_ms} ms")
        if not result.completed:
            raise NoCapacity(f"request to {family!r} found no capacity")
        return result.latency_mean_ms

    def retry_after_hint_ms(self, family: str,
                            shape: "RequestShape | str") -> float:
        """Deterministic ``Retry-After`` hint for a shed request.

        One expected PS sojourn at the family's current mean queue
        depth (:func:`repro.frontdoor.model.retry_after_ms`) — the
        control plane turns this into the 429 response's hint.
        """
        shape = as_shape(shape)
        pool = self.refresh(family)
        depth = (sum(len(s.jobs) for s in pool) / len(pool)
                 if pool else 0.0)
        return retry_after_ms(shape.mean_service_ms, depth)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _admit(self, run: _Run, rid: int, demand_ms: float, family: str,
               clone_factor: int, route_rng, timeout_ms: float | None) -> None:
        now = self.fleet.clock.now
        pool = self._pool_lists[family]
        run.offered += 1
        res = self._active_res
        if res is not None:
            clone_factor = self._gatekeep(run, res, now, pool)
            if clone_factor < 0:
                run.shed += 1
                run.resolved += 1
                return
            res.budget.note_first_try()
        run.admitted += 1
        request = _Request(rid, now, demand_ms)
        placed = self._route(pool, clone_factor, route_rng, res, now)
        if not placed:
            run.rejected += 1
            self._fail(request, run)
        elif not self._place(request, placed, run, res, now, timeout_ms):
            self._fail(request, run)

    def _route(self, pool: list[ReplicaServer], want: int, rng,
               res: "ResilienceState | None",
               now: float) -> list[ReplicaServer]:
        """Pick up to ``want`` distinct replicas for one attempt.

        Samples pool indexes without replacement, skipping full
        replicas and, under a policy, unroutable ones; a resilient
        attempt that found none falls back to a pool-order pass.
        ``randint(0, n-1)`` is exactly ``Random._randbelow(n)`` in
        CPython (randrange with zero start and unit step), and
        ``_randbelow`` is a rejection loop over
        ``getrandbits(n.bit_length())`` — inlined here so each draw
        costs one C call instead of three Python frames, while
        consuming the identical bit stream.
        """
        placed: list[ReplicaServer] = []
        npool = len(pool)
        if not npool:
            return placed
        if want > npool:
            want = npool
        getrandbits = rng._random.getrandbits
        nbits = npool.bit_length()
        cap = self.max_jobs_per_server
        found = 0
        tried_mask = 0
        tried = 0
        while found < want and tried < npool:
            index = getrandbits(nbits)
            while index >= npool:
                index = getrandbits(nbits)
            bit = 1 << index
            if tried_mask & bit:
                continue
            tried_mask |= bit
            tried += 1
            server = pool[index]
            if len(server.jobs) >= cap:
                continue
            if res is not None and not self._routable(res, server, now):
                continue
            placed.append(server)
            found += 1
        if res is not None and not placed:
            self._fallback_place(res, pool, placed, want, cap, now)
        return placed

    def _place(self, request: _Request, placed: list[ReplicaServer],
               run: _Run, res: "ResilienceState | None", now: float,
               timeout_ms: float | None) -> bool:
        """Put one attempt's copies in service and arm its timeout.

        Returns ``False`` when every copy stalled, leaving retry or
        failure to the caller.
        """
        copies = request.copies
        inj = self._inj
        stalled = 0
        for server in placed:
            copy = _Copy(request, server)
            copies.append(copy)
            if inj is not None and inj.event(
                    "frontdoor.replica_stall", op="route",
                    host=server.host, domid=server.domid):
                # The replica swallows the copy: admitted, never
                # served, immediately lost (consumed 0 work). Copy
                # conservation holds; the breaker records a failure.
                copy.state = _LOST
                self._end_copy(copy)
                self._breaker_failure(res, server.key, now)
                stalled += 1
                continue
            server.advance(now)
            server.admit(copy)
            self._reschedule(server, now)
        run.copies += len(placed)
        if stalled == len(placed):
            return False
        if res is not None:
            deadline = res.policy.deadline_ms
            if deadline is not None:
                # Deadline propagation: the attempt's timeout never
                # outlives the request deadline, so doomed copies are
                # cancelled early instead of simmered.
                slack = request.t_arrive_ms + deadline - now
                if timeout_ms is None or slack < timeout_ms:
                    timeout_ms = slack
        if timeout_ms is not None:
            request.timeout_event = self.engine.schedule_at(
                now + timeout_ms, lambda: self._expire(request, run))
        return True

    # ------------------------------------------------------------------
    # resilience internals (only reached when a policy is active)
    # ------------------------------------------------------------------
    def _gatekeep(self, run: _Run, res: ResilienceState, now: float,
                  pool: list[ReplicaServer]) -> int:
        """Admission control for one first-try request.

        Returns the effective clone factor — brownout may have
        degraded it toward 1 — or ``-1`` to shed. Order: fault site,
        token bucket, brownout, then the PS expected-sojourn bound and
        the deadline, both evaluated at the browned-out clone factor.
        """
        policy = res.policy
        inj = self._inj
        if inj is not None and inj.event("frontdoor.admission",
                                         op="admit", family=run.family):
            res.note_shed("fault")
            return -1
        if res.bucket is not None and not res.bucket.take(now):
            res.note_shed("bucket")
            return -1
        depth = 0.0
        npool = len(pool)
        if npool:
            jobs = 0
            for server in pool:
                jobs += len(server.jobs)
            depth = jobs / npool
        d = res.effective_clone_factor(run.clone_factor, depth)
        bound = policy.sojourn_bound_ms
        deadline = policy.deadline_ms
        if bound is not None or deadline is not None:
            expected = expected_sojourn_ms(run.mean_service_ms, depth, d)
            if bound is not None and expected > bound:
                res.note_shed("sojourn")
                return -1
            if deadline is not None and expected > deadline:
                res.note_shed("deadline")
                return -1
        if inj is not None and inj.event("frontdoor.breaker_flap",
                                         op="admit", family=run.family):
            self._flap_breaker(res, pool, now)
        return d

    def _routable(self, res: ResilienceState, server: ReplicaServer,
                  now: float) -> bool:
        """May routing place a copy on ``server`` right now?"""
        if server.draining and res.policy.route_around_draining:
            return False
        breaker = res.breakers.get(server.key)
        return breaker is None or breaker.allow(now)

    def _fallback_place(self, res: ResilienceState,
                        pool: list[ReplicaServer],
                        placed: list[ReplicaServer], want: int, cap: int,
                        now: float) -> None:
        """Routing skipped every sampled candidate: a deterministic
        pool-order pass readmits DRAINING replicas (better than failing
        the request outright) — but never an OPEN breaker."""
        for server in pool:
            if len(server.jobs) >= cap:
                continue
            if not res.allow_route(server.key, now):
                continue
            placed.append(server)
            if len(placed) >= want:
                return

    def _flap_breaker(self, res: ResilienceState,
                      pool: list[ReplicaServer], now: float) -> None:
        """The breaker-flap fault site: spuriously trip the breaker of
        the most-loaded pool replica (ties break to pool order)."""
        if not pool or not res.policy.breaker_window:
            return
        target = pool[0]
        for server in pool[1:]:
            if len(server.jobs) > len(target.jobs):
                target = server
        breaker = res.breaker_for(target.key)
        if breaker is not None and breaker.force_open(now):
            res.breaker_trips += 1
            self.stats["breaker_trips"] += 1

    def _breaker_failure(self, res: ResilienceState, key: tuple[str, int],
                         now: float) -> None:
        """Feed a copy failure to the replica's breaker."""
        if res.record_failure(key, now):
            self.stats["breaker_trips"] += 1

    def _retry(self, request: _Request, run: _Run, res: ResilienceState,
               now: float) -> bool:
        """Client-side retry gate: attempts, deadline, then the budget.

        ``True`` means a retry was granted and scheduled (the request
        stays unresolved); ``False`` leaves resolution to the caller.
        The backoff draw happens before the budget check so the retry
        RNG stream advances identically whether or not tokens remain.
        """
        policy = res.policy
        attempt = request.attempts
        if attempt >= policy.max_attempts:
            return False
        when = now + res.backoff_ms(attempt)
        if (policy.deadline_ms is not None
                and when >= request.t_arrive_ms + policy.deadline_ms):
            return False
        if not res.budget.grant():
            return False
        request.attempts = attempt + 1
        run.retries += 1
        self.engine.schedule_at(when, lambda: self._readmit(request, run))
        return True

    def _readmit(self, request: _Request, run: _Run) -> None:
        """Place a budget-granted retry: same request, fresh copies.

        Off the hot path by construction. Routing and backoff draw
        from the resilience fork (``rng.fork("retries")``), so the
        first-try route stream stays bit-identical to a retry-free
        run and retry storms replay bit-for-bit.
        """
        if request.resolved:
            return
        res = self._active_res
        if res is None:
            self._fail(request, run)
            return
        now = self.fleet.clock.now
        deadline = res.policy.deadline_ms
        if deadline is not None and now > request.t_arrive_ms + deadline:
            # The clock can pass the deadline while the retry waits (a
            # heartbeat during a live drain moves it): the retry times
            # out without placing copies.
            request.resolved = True
            request.copies.clear()
            run.timed_out += 1
            run.resolved += 1
            return
        pool = self._pool_lists[run.family]
        placed: list[ReplicaServer] = []
        if pool:
            jobs = 0
            for server in pool:
                jobs += len(server.jobs)
            d = res.effective_clone_factor(run.clone_factor,
                                           jobs / len(pool))
            placed = self._route(pool, d, res.rng, res, now)
        if not placed:
            run.rejected += 1
            self._fail(request, run)
        elif not self._place(request, placed, run, res, now, run.timeout_ms):
            self._fail(request, run)

    def _reschedule(self, server: ReplicaServer, now: float) -> None:
        """Push ``server``'s exact departure hint (during a run only).

        The fresh token supersedes every earlier hint the server has in
        the heap (they drop for free at pop time), so each server owns
        exactly one live hint, keyed ``(departure, fresh seq)``.
        """
        dep = self._dep_heap
        if dep is not None and server.jobs:
            when = server.next_departure_ms()
            if when < now:
                when = now
            server.hint_seq = token = server.hint_seq + 1
            heapq.heappush(dep, (when, self.engine.next_seq(), token, server))

    def _depart(self, server: ReplicaServer) -> None:
        """A replica's soonest job should now be done: complete winners."""
        now = self.fleet.clock.now
        server.advance(now)
        for copy in server.finished_jobs():
            if copy.state != _ACTIVE:
                continue
            self._complete(copy.request, copy, now)
        self._reschedule(server, now)

    def _complete(self, request: _Request, winner: _Copy,
                  now_ms: float) -> None:
        """``winner`` finished: cancel its siblings, resolve the request."""
        run = self._run
        server = winner.server
        winner.state = _WON
        winner.consumed_ms = server.vclock - winner.v_admit
        server.remove(winner)
        res = self._active_res
        if res is not None:
            res.record_success(server.key, now_ms)
        run.work_served += winner.consumed_ms
        run.copies_won += 1
        run.work_useful += request.demand_ms
        for copy in request.copies:
            if copy.state != _ACTIVE:
                continue
            sibling = copy.server
            sibling.advance(now_ms)
            copy.consumed_ms = sibling.vclock - copy.v_admit
            sibling.remove(copy)
            copy.state = _CANCELLED
            run.work_served += copy.consumed_ms
            run.copies_cancelled += 1
            self._reschedule(sibling, now_ms)
        if request.timeout_event is not None:
            request.timeout_event.cancel()
            request.timeout_event = None
        request.resolved = True
        request.copies.clear()
        latency = now_ms - request.t_arrive_ms + DISPATCH_RTT_MS
        run.completed += 1
        run.resolved += 1
        run.latencies[request.rid] = latency

    def _expire(self, request: _Request, run: _Run) -> None:
        if request.resolved:
            return
        now = self.fleet.clock.now
        request.timeout_event = None
        res = self._active_res
        # Timeout/departure tie: a copy whose service is already
        # complete at the expiry instant departs *first* — the request
        # resolves completed, deterministically (pinned by the tie
        # regression tests).
        for copy in request.copies:
            if copy.state != _ACTIVE:
                continue
            server = copy.server
            server.advance(now)
            if server.remaining(copy) <= EPS:
                self._complete(request, copy, now)
                self._reschedule(server, now)
                return
        for copy in request.copies:
            if copy.state != _ACTIVE:
                continue
            server = copy.server
            server.advance(now)
            copy.consumed_ms = server.vclock - copy.v_admit
            server.remove(copy)
            copy.state = _TIMED_OUT
            self._end_copy(copy)
            self._reschedule(server, now)
            run.copies_timed_out += 1
            if res is not None:
                self._breaker_failure(res, server.key, now)
        if res is not None and self._retry(request, run, res, now):
            return
        request.resolved = True
        request.copies.clear()
        run.timed_out += 1
        run.resolved += 1

    def _fail(self, request: _Request, run: _Run) -> None:
        """No copy of ``request`` can finish: retry it when the policy
        grants one, else resolve it as failed."""
        if request.resolved:
            return
        res = self._active_res
        retried = (res is not None
                   and self._retry(request, run, res, self.fleet.clock.now))
        if request.timeout_event is not None:
            request.timeout_event.cancel()
            request.timeout_event = None
        if retried:
            return
        request.resolved = True
        request.copies.clear()
        run.failed += 1
        run.resolved += 1

    def _end_copy(self, copy: _Copy) -> None:
        """Final work accounting for a copy leaving service."""
        run = self._run
        run.work_served += copy.consumed_ms
        if copy.state == _LOST:
            run.copies_lost += 1

    def _flush_run(self, run: _Run) -> None:
        """Fold the run's slotted counters into the shared ledgers."""
        stats = self.stats
        stats["requests"] += run.admitted
        stats["completed"] += run.completed
        stats["failed"] += run.failed
        stats["timed_out"] += run.timed_out
        stats["copies"] += run.copies
        stats["copies_won"] += run.copies_won
        stats["copies_cancelled"] += run.copies_cancelled
        stats["copies_lost"] += run.copies_lost
        stats["copies_timed_out"] += run.copies_timed_out
        stats["rejected_no_capacity"] += run.rejected
        stats["work_served_ms"] += run.work_served
        stats["work_useful_ms"] += run.work_useful
        stats["offered"] += run.offered
        stats["shed"] += run.shed
        stats["retries"] += run.retries

    def _autoscale_check(self, family: str, policy: "AutoscalePolicy",
                         arrived: int) -> None:
        pool = self.refresh(family)
        if not pool:
            return
        interval_s = policy.check_interval_ms / 1000.0
        rps_per_replica = arrived / interval_s / len(pool)
        total = len(pool)
        if (rps_per_replica > policy.threshold_rps
                and total < policy.max_replicas):
            step = min(policy.scale_step, policy.max_replicas - total)
            result = self.fleet.clone_family(family, count=step)
            if result.placed:
                self.stats["autoscale_events"] += 1
            self.refresh(family)

    # ------------------------------------------------------------------
    # result assembly
    # ------------------------------------------------------------------
    def _finalize(self, run: _Run, family: str, shape: RequestShape,
                  clone_factor: int, arrival_rps: float, duration_ms: float,
                  *, work_served: float, work_useful: float,
                  resilient: bool = False,
                  report_segments: int = 0) -> DispatchResult:
        counts = {
            "completed": run.completed, "failed": run.failed,
            "timed_out": run.timed_out,
            "copies": run.copies, "copies_won": run.copies_won,
            "copies_cancelled": run.copies_cancelled,
            "copies_lost": run.copies_lost,
            "copies_timed_out": run.copies_timed_out,
        }
        if resilient:
            # Only resilient runs extend the fingerprint vocabulary, so
            # the pinned legacy fingerprints stay byte-identical.
            counts["offered"] = run.offered
            counts["shed"] = run.shed
            counts["retries"] = run.retries
        done = sorted(lat for lat in run.latencies if lat == lat)

        def quantile(q: float) -> float:
            if not done:
                return 0.0
            index = min(len(done) - 1, max(0, int(q * len(done) + 0.5) - 1))
            return done[index]

        # max() absorbs float drift when every copy won (useful can land
        # an ulp above served at d=1).
        waste = (max(0.0, 1.0 - work_useful / work_served)
                 if work_served > 0 else 0.0)
        payload = {
            "latencies": [None if lat != lat else round(lat, 9)
                          for lat in run.latencies],
            "counts": dict(sorted(counts.items())),
        }
        fingerprint = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()
        segments: tuple = ()
        if report_segments > 0:
            seg = [0] * report_segments
            lats = run.latencies
            n = run.requests
            for rid in range(n):
                if lats[rid] == lats[rid]:
                    seg[rid * report_segments // n] += 1
            segments = tuple(seg)
        return DispatchResult(
            family=family, workload=shape.name, clone_factor=clone_factor,
            requests=run.requests, completed=counts["completed"],
            failed=counts["failed"], timed_out=counts["timed_out"],
            copies=counts["copies"], copies_won=counts["copies_won"],
            copies_cancelled=counts["copies_cancelled"],
            copies_lost=counts["copies_lost"],
            copies_timed_out=counts["copies_timed_out"],
            arrival_rps=arrival_rps, duration_ms=round(duration_ms, 6),
            throughput_rps=(counts["completed"] / (duration_ms / 1000.0)
                            if duration_ms > 0 else 0.0),
            latency_mean_ms=(sum(done) / len(done) if done else 0.0),
            latency_p50_ms=quantile(0.50), latency_p95_ms=quantile(0.95),
            latency_p99_ms=quantile(0.99),
            latency_max_ms=(done[-1] if done else 0.0),
            work_served_ms=work_served, work_useful_ms=work_useful,
            waste_fraction=waste, fingerprint=fingerprint,
            offered=run.offered, shed=run.shed, retries=run.retries,
            segment_completed=segments)

    # ------------------------------------------------------------------
    # introspection (the audit hooks)
    # ------------------------------------------------------------------
    def live_work_ms(self) -> float:
        """Work delivered by replicas still in a pool."""
        return sum(server.work_done_ms
                   for pool in self._pools.values()
                   for server in pool.values())

    def inflight_copies(self) -> int:
        """Copies currently in service across every pool."""
        return sum(len(server.jobs)
                   for pool in self._pools.values()
                   for server in pool.values())

    def inflight_consumed_ms(self) -> float:
        """Partial work already delivered to in-flight copies."""
        return sum(server.vclock - copy.v_admit
                   for pool in self._pools.values()
                   for server in pool.values()
                   for copy in server.jobs)

    def resilience_report(self) -> "dict[str, Any] | None":
        """Snapshot of breakers / budget / sheds (None when disabled)."""
        return self._res.report() if self._res is not None else None

    def family_resilience(self, family: str) -> "dict[str, Any] | None":
        """The resilience snapshot scoped to one family's pool."""
        if self._res is None:
            return None
        report = self._res.report()
        keys = {f"{h}/{d}" for (h, d) in self._pools.get(family, {})}
        report["breakers"] = {key: state
                              for key, state in report["breakers"].items()
                              if key in keys}
        report["open_breakers"] = sum(
            1 for state in report["breakers"].values()
            if state["state"] != "closed")
        return report

    def report(self) -> dict[str, Any]:
        """Machine-readable front-door state (JSON-serializable)."""
        return {
            "stats": {k: (round(v, 6) if isinstance(v, float) else v)
                      for k, v in sorted(self.stats.items())},
            "pools": {family: sorted(f"{h}/{d}" for (h, d) in pool)
                      for family, pool in sorted(self._pools.items())},
            "pool_epochs": dict(sorted(self._pool_epochs.items())),
            "topology_epoch": self.fleet.topology_epoch,
            "resilience": self.resilience_report(),
        }


class AutoscalePolicy:
    """RPS-threshold autoscaling for a dispatched family (paper §7.3
    shape: check periodically, add ``scale_step`` replicas while the
    per-replica request rate exceeds the threshold)."""

    __slots__ = ("threshold_rps", "check_interval_ms", "max_replicas",
                 "scale_step")

    def __init__(self, threshold_rps: float = 10.0,
                 check_interval_ms: float = 11_000.0,
                 max_replicas: int = 16, scale_step: int = 1) -> None:
        if max_replicas < 1:
            raise FrontDoorError(f"non-positive max_replicas: {max_replicas}")
        self.threshold_rps = threshold_rps
        self.check_interval_ms = check_interval_ms
        self.max_replicas = max_replicas
        self.scale_step = scale_step
