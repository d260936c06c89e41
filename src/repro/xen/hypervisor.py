"""The hypervisor: domains, memory, events, and hypercall surface.

Manages "the minimum critical set of resources, namely CPU, memory,
timers and interrupts" (paper §3). The Nephele CLONEOP hypercall is
registered by :mod:`repro.core.cloneop` via :meth:`Hypervisor.set_cloneop`,
keeping this module free of cloning policy.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.faults.injector import NULL_INJECTOR
from repro.obs.tracer import NULL_TRACER
from repro.sim import CostModel, VirtualClock, pages_of
from repro.xen.domain import SPECIAL_PAGES, Domain, DomainState
from repro.xen.domid import DOM0, DOMID_CHILD, XEN_OWNER
from repro.xen.errors import (
    XenInvalidError,
    XenNoEntryError,
    XenPermissionError,
)
from repro.xen.events import (
    _TOPOLOGY_EPOCH,
    ChannelState,
    EventChannel,
    VIRQ_CLONED,
)
from repro.xen.frames import FrameTable, PageType
from repro.xen.paging import SkeletonCache, build_paging, release_paging

VirqHandler = Callable[[int], None]  # receives the virq number


class Hypervisor:
    """A single physical host running Xen."""

    def __init__(self, guest_pool_bytes: int, cpus: int = 4,
                 clock: VirtualClock | None = None,
                 costs: CostModel | None = None,
                 tracer: Any = None, faults: Any = None) -> None:
        if cpus < 1:
            raise XenInvalidError(f"need at least one CPU: {cpus}")
        self.clock = clock if clock is not None else VirtualClock()
        self.costs = costs if costs is not None else CostModel()
        #: The platform tracer (repro.obs); components hanging off the
        #: hypervisor (CLONEOP, xencloned, xl) read it from here.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The platform fault injector (repro.faults); like the tracer,
        #: attached components read it from here. Defaults to the no-op.
        self.faults = faults if faults is not None else NULL_INJECTOR
        self.cpus = cpus
        self.frames = FrameTable(pages_of(guest_pool_bytes))
        self.frames.faults = self.faults
        from repro.xen.scheduler import CreditScheduler

        self.scheduler = CreditScheduler(cpus)
        self.domains: dict[int, Domain] = {}
        #: Live unprivileged domains, maintained on create/destroy so
        #: per-sample accounting never scans the domain table.
        self.guest_count = 0
        self._next_domid = 1
        #: Host-side vIRQ subscribers (e.g. xencloned on VIRQ_CLONED),
        #: keyed by virq number. Delivery also goes through guest
        #: event-channel bindings made via :meth:`bind_virq`.
        self._virq_handlers: dict[int, list[VirqHandler]] = {}
        #: virq -> list of (domid, port) guest bindings.
        self._virq_bindings: dict[int, list[tuple[int, int]]] = {}
        #: The CLONEOP hypercall implementation (repro.core.cloneop).
        self._cloneop: Any = None
        #: Deferred VIRQ_CLONED sends awaiting a coalesced flush.
        self._cloned_pending = 0
        #: Guest exits awaiting toolstack handling: (domid, crashed).
        self.pending_exits: list[tuple[int, bool]] = []
        #: Paging-skeleton templates keyed by guest geometry: every
        #: identical-geometry domain (a clone fleet, typically) reuses
        #: one precomputed page-table/p2m shape instead of rederiving
        #: it. Frames are still allocated per domain — the template
        #: holds geometry only, never extents, so per-domain frame
        #: accounting (and release) is untouched.
        self.paging_skeletons = SkeletonCache()

    # ------------------------------------------------------------------
    # domain lifecycle
    # ------------------------------------------------------------------
    def allocate_domid(self) -> int:
        """Hand out the next domain ID."""
        domid = self._next_domid
        self._next_domid += 1
        return domid

    def create_domain(self, name: str, memory_bytes: int, vcpus: int = 1,
                      privileged: bool = False, populate: bool = False,
                      overhead_pages: int | None = None,
                      charge_create: bool = True) -> Domain:
        """Create a domain shell: struct domain, vCPUs, special pages,
        paging, hypervisor bookkeeping.

        Guest RAM is populated by the caller (toolstack boot path or the
        clone engine); pass ``populate=True`` to fill the whole RAM
        budget with one NORMAL extent, which is what ``xl create`` does
        for PV guests.
        """
        costs = self.costs
        if memory_bytes < costs.xen_min_domain_bytes:
            raise XenInvalidError(
                f"Xen imposes a minimum of {costs.xen_min_domain_bytes} bytes "
                f"per domain, got {memory_bytes}"
            )
        domid = DOM0 if privileged and DOM0 not in self.domains else self.allocate_domid()
        domain = Domain(domid, name, self.frames, memory_bytes, vcpus,
                        privileged)
        if charge_create:
            self.clock.charge(costs.hyp_domain_create)
        self.clock.charge(costs.hyp_vcpu_init * vcpus)

        overhead = (costs.hyp_per_domain_overhead_pages
                    if overhead_pages is None else overhead_pages)
        try:
            # Labels name the kind only; nothing reads a per-domid
            # label, and each would be one more string per domain.
            domain.overhead_extent = self.frames.alloc(
                XEN_OWNER, overhead, PageType.NORMAL, label="xen-overhead")
            for name_, page_type in SPECIAL_PAGES:
                domain.special[name_] = self.frames.alloc(
                    domid, 1, page_type, label=name_)
                self.clock.charge(costs.page_alloc)

            ram_pages = domain.ram_budget_pages
            if self.faults.enabled:
                self.faults.fire("paging.build", domid=domid,
                                 pages=ram_pages)
            domain.paging = build_paging(
                self.frames, domid, ram_pages, label=name,
                skeleton=self.paging_skeletons.get(ram_pages))
            self.clock.charge(costs.pt_entry_build * ram_pages)
            if populate:
                domain.populate_ram(ram_pages, label="ram")
                self.clock.charge(costs.page_alloc * ram_pages)
        except Exception:
            self._release_frames(domain)
            raise

        self.domains[domid] = domain
        if not privileged:
            self.guest_count += 1
        self.scheduler.add_domain(domain)
        domain.state = DomainState.CREATED
        _TOPOLOGY_EPOCH[0] += 1
        return domain

    def _release_frames(self, domain: Domain) -> int:
        """Return every frame ``domain`` holds: RAM, paging, special
        pages and hypervisor overhead. Returns the number freed; the
        caller decides what the release costs."""
        freed = domain.memory.release()
        if domain.paging is not None:
            freed += release_paging(self.frames, domain.paging)
            domain.paging = None
        for extent in domain.special.values():
            freed += self.frames.free_extent(extent)
        domain.special.clear()
        if domain.overhead_extent is not None:
            freed += self.frames.free_extent(domain.overhead_extent)
            domain.overhead_extent = None
        return freed

    def get_domain(self, domid: int) -> Domain:
        """The live domain with ``domid`` (ENOENT if absent)."""
        domain = self.domains.get(domid)
        if domain is None:
            raise XenNoEntryError(f"no such domain: {domid}")
        return domain

    def destroy_domain(self, domid: int) -> None:
        """Tear a domain down and return every frame it held."""
        domain = self.get_domain(domid)
        if domain.privileged:
            raise XenPermissionError("refusing to destroy Dom0")
        domain.state = DomainState.DYING
        self.clock.charge(self.costs.hyp_domain_destroy)
        freed = self._release_frames(domain)
        self.clock.charge(self.costs.page_free * freed)
        # Drop this domain's foreign grant mappings from the granters'
        # tables — a dead mapper must not pin grant entries forever.
        for granter_domid, gref in domain.foreign_maps:
            granter = self.domains.get(granter_domid)
            if granter is None:
                continue
            try:
                granter.grants.unmap_grant(gref, domid)
            except XenNoEntryError:
                pass
        domain.foreign_maps.clear()
        # Unlink from the family tree, including the parent's IDC
        # wildcard endpoints pointing at this clone (send_event already
        # skips dead domains; this keeps the endpoint lists from
        # accumulating garbage across clone/destroy churn). This is the
        # only unlink: clone unwinds destroy their children through here.
        if domain.parent_id is not None:
            parent = self.domains.get(domain.parent_id)
            if parent is not None:
                if domid in parent.children:
                    parent.children.remove(domid)
                for channel in parent.events.ports.values():
                    if channel.child_endpoints:
                        channel.child_endpoints[:] = [
                            (child, port)
                            for child, port in channel.child_endpoints
                            if child != domid]
        domain.state = DomainState.DEAD
        self.scheduler.remove_domain(domid)
        del self.domains[domid]
        self.guest_count -= 1
        _TOPOLOGY_EPOCH[0] += 1
        # The guest kernel and device frontends that higher layers hang
        # off the domain point back at it, and at each other through
        # it. Dropping the domain's side lets refcounting free them.
        domain.frontends.clear()
        domain.guest = None

    def pause_domain(self, domid: int) -> None:
        """Stop scheduling the domain's vCPUs."""
        domain = self.get_domain(domid)
        if domain.state is DomainState.PAUSED:
            return
        domain.state = DomainState.PAUSED
        self.clock.charge(self.costs.hyp_domain_pause)

    def unpause_domain(self, domid: int) -> None:
        """Resume a paused domain."""
        domain = self.get_domain(domid)
        domain.state = DomainState.RUNNING
        self.clock.charge(self.costs.hyp_domain_pause)

    # ------------------------------------------------------------------
    # family helpers (Nephele: memory sharing restricted to families)
    # ------------------------------------------------------------------
    def descendants(self, domid: int) -> frozenset[int]:
        """All live descendants of ``domid``."""
        result: set[int] = set()
        stack = list(self.get_domain(domid).children)
        while stack:
            child = stack.pop()
            if child in result or child not in self.domains:
                continue
            result.add(child)
            stack.extend(self.domains[child].children)
        return frozenset(result)

    def family_of(self, domid: int) -> frozenset[int]:
        """The family: all domains sharing a common ancestor with ``domid``
        (paper §4 definition), including ``domid`` itself."""
        root = domid
        while True:
            parent = self.domains[root].parent_id
            if parent is None or parent not in self.domains:
                break
            root = parent
        return frozenset({root}) | self.descendants(root)

    # ------------------------------------------------------------------
    # memory metrics (Fig 5)
    # ------------------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        from repro.sim.units import PAGE_SIZE

        return self.frames.free_frames * PAGE_SIZE

    # ------------------------------------------------------------------
    # grants
    # ------------------------------------------------------------------
    def map_grant(self, granter_domid: int, gref: int, mapper_domid: int):
        """Map a foreign page; enforces the DOMID_CHILD family constraint."""
        granter = self.get_domain(granter_domid)
        mapper = self.get_domain(mapper_domid)
        if self.faults.enabled:
            self.faults.fire("grants.map", granter=granter_domid, gref=gref,
                             mapper=mapper_domid)
        children = self.descendants(granter_domid)
        self.clock.charge(self.costs.grant_op)
        entry = granter.grants.map_grant(gref, mapper_domid, children)
        mapper.foreign_maps.append((granter_domid, gref))
        return entry

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def register_virq_handler(self, virq: int, handler: VirqHandler) -> None:
        """Host-daemon subscription to a vIRQ (e.g. xencloned on
        VIRQ_CLONED)."""
        self._virq_handlers.setdefault(virq, []).append(handler)

    def bind_virq(self, domid: int, virq: int, handler=None) -> EventChannel:
        """Bind a guest event channel to a vIRQ (indexed for delivery)."""
        domain = self.get_domain(domid)
        channel = domain.events.bind_virq(virq, handler)
        self._virq_bindings.setdefault(virq, []).append((domid, channel.port))
        self.clock.charge(self.costs.evtchn_op)
        return channel

    def raise_virq(self, virq: int) -> int:
        """Raise a vIRQ; returns the number of handlers notified."""
        self.clock.charge(self.costs.evtchn_send)
        return self._dispatch_virq(virq)

    def _dispatch_virq(self, virq: int) -> int:
        """Deliver a vIRQ to host handlers and guest bindings (the send
        cost must have been charged by the caller)."""
        if self.faults.dropped("virq.deliver", virq=virq):
            return 0
        handlers = list(self._virq_handlers.get(virq, ()))
        for handler in handlers:
            handler(virq)
        notified = len(handlers)
        bindings = self._virq_bindings.get(virq)
        if bindings:
            live: list[tuple[int, int]] = []
            for domid, port in bindings:
                domain = self.domains.get(domid)
                if domain is None:
                    continue
                channel = domain.events.ports.get(port)
                if channel is None or channel.virq != virq:
                    continue
                live.append((domid, port))
                self._deliver(domain, channel)
                notified += 1
            self._virq_bindings[virq] = live
        return notified

    def send_event(self, domid: int, port: int) -> int:
        """EVTCHNOP_send: notify the peer(s) of a channel.

        For Nephele IDC wildcard channels this is one-to-many: the
        notification reaches the interdomain peer (the parent, for a
        clone) and every bound child endpoint, except the sender itself.

        The (domain, peer-channel) resolution is memoized per channel
        against the global event-topology epoch: a fleet parent pumping
        jobs to N children resolves the fan-out once, not once per
        send. Any domain create/destroy, port alloc/close, or IDC
        linking bumps the epoch and forces a re-resolve.
        """
        try:
            sender = self.domains[domid]
        except KeyError:
            raise XenNoEntryError(f"no such domain: {domid}") from None
        try:
            channel = sender.events.ports[port]
        except KeyError:
            raise XenNoEntryError(
                f"port {port} not found in domain {domid}") from None
        self.clock.charge(self.costs.evtchn_send)
        epoch = _TOPOLOGY_EPOCH[0]
        cache = channel.fanout_cache
        if cache is not None and cache[0] == epoch:
            resolved = cache[1]
        else:
            targets: list[tuple[int, int]] = []
            if (channel.state is ChannelState.INTERDOMAIN
                    and channel.remote_domid is not None
                    and channel.remote_domid != DOMID_CHILD
                    and channel.remote_port is not None):
                targets.append((channel.remote_domid, channel.remote_port))
            targets.extend(channel.child_endpoints)
            resolved = []
            for target_domid, target_port in targets:
                target = self.domains.get(target_domid)
                if target is None:
                    continue
                peer = target.events.ports.get(target_port)
                if peer is None:
                    continue
                resolved.append(peer)
            channel.fanout_cache = (epoch, resolved)
        delivered = 0
        for peer in resolved:
            peer.pending = True
            handler = peer.handler
            if handler is not None and not peer.masked:
                peer.pending = False
                handler(peer.port)
            delivered += 1
        return delivered

    def _deliver(self, domain: Domain, channel: EventChannel) -> None:
        channel.pending = True
        if channel.handler is not None and not channel.masked:
            handler = channel.handler
            channel.pending = False
            handler(channel.port)

    def connect_idc_child(self, parent: Domain, child: Domain) -> int:
        """Bind a fresh clone to all of its parent's IDC wildcard channels
        (paper §5.2.2: "On creation, a clone is implicitly bound to all
        the IDC event channels of its parent"). Returns how many channels
        were connected."""
        connected = 0
        for channel in parent.events.ports.values():
            if channel.remote_domid != DOMID_CHILD:
                continue
            child_channel = child.events.ports.get(channel.port)
            if child_channel is None:
                continue
            child_channel.state = ChannelState.INTERDOMAIN
            child_channel.remote_domid = parent.domid
            child_channel.remote_port = channel.port
            channel.state = ChannelState.INTERDOMAIN
            channel.child_endpoints.append((child.domid, channel.port))
            self.clock.charge(self.costs.evtchn_op)
            connected += 1
        if connected:
            _TOPOLOGY_EPOCH[0] += 1
        return connected

    # ------------------------------------------------------------------
    # CLONEOP plumbing
    # ------------------------------------------------------------------
    def set_cloneop(self, cloneop: Any) -> None:
        """Install the CLONEOP hypercall implementation."""
        self._cloneop = cloneop

    @property
    def cloneop(self) -> Any:
        if self._cloneop is None:
            raise XenInvalidError(
                "CLONEOP hypercall not installed; create the platform via "
                "repro.platform or install repro.core.cloneop.CloneOp"
            )
        return self._cloneop

    def notify_cloned(self, defer: bool = False) -> int:
        """Raise VIRQ_CLONED towards the host (wakes xencloned).

        ``defer=True`` charges the event-channel send now (cost parity
        with an immediate notification) but coalesces the actual wake-up
        into the next :meth:`flush_cloned` — a batch of clones then
        produces one xencloned dispatch instead of one per child.
        """
        if defer:
            self.clock.charge(self.costs.evtchn_send)
            self._cloned_pending += 1
            return 0
        self._cloned_pending = 0
        return self.raise_virq(VIRQ_CLONED)

    def flush_cloned(self) -> int:
        """Dispatch the coalesced VIRQ_CLONED wake-up, if any sends were
        deferred. The sends were already charged at defer time, so the
        flush itself is charge-free (virtual totals match the per-child
        notification protocol exactly)."""
        if not self._cloned_pending:
            return 0
        self._cloned_pending = 0
        return self._dispatch_virq(VIRQ_CLONED)

    # ------------------------------------------------------------------
    # guest exits
    # ------------------------------------------------------------------
    def guest_shutdown(self, domid: int, crashed: bool = False) -> None:
        """A guest powered off or crashed: park it and wake the
        toolstack via VIRQ_DOM_EXC."""
        from repro.xen.events import VIRQ_DOM_EXC

        domain = self.get_domain(domid)
        domain.state = DomainState.DYING
        self.pending_exits.append((domid, crashed))
        self.raise_virq(VIRQ_DOM_EXC)
