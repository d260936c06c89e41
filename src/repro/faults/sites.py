"""The injection-site registry: where faults can be injected, and why.

Each :class:`InjectionSite` names one hook threaded through a clone hot
path, describes the real-Xen failure it models (paper §4/§5 pipeline),
and states the recovery semantics the hardened code implements. The
registry is the single source of truth: ``docs/FAULTS.md`` must
document exactly this set (a test diffs the two), plans are validated
against it, and the chaos generator draws sites from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FaultKind(str, enum.Enum):
    """The error mode a spec injects at its site.

    Raise-mode kinds map to the *real* exception types of the layer
    they fire in, so the hardened recovery paths are exercised exactly
    as a genuine failure would exercise them:

    - ``ENOMEM`` -> :class:`repro.xen.errors.XenNoMemoryError`
    - ``EAGAIN`` -> :class:`repro.xenstore.transactions.TransactionConflict`
    - ``EIO`` -> :class:`repro.faults.injector.InjectedFaultError`
    - ``RING_FULL`` -> :class:`repro.core.notify_ring.RingFullError`

    ``DROP`` is not an exception: drop-mode sites (vIRQ delivery) ask
    the injector whether to silently lose the event instead.

    The ``HOST_*`` kinds are the fleet tier (:mod:`repro.fleet`):
    event-mode sites polled by the fleet control plane to decide
    whether a whole simulated host fails right now.
    """

    ENOMEM = "enomem"
    EAGAIN = "eagain"
    EIO = "eio"
    RING_FULL = "ring_full"
    DROP = "drop"
    HOST_CRASH = "host_crash"
    HOST_PARTITION = "host_partition"
    HOST_DEGRADED = "host_degraded"
    #: Live-migration tier (:mod:`repro.fleet.migration`): event-mode
    #: sites polled once per migration round, modelling the migration
    #: losing its source host, its target host, or the memory stream.
    MIGRATION_ABORT = "migration_abort"
    #: Front-door resilience tier (:mod:`repro.frontdoor.resilience`):
    #: event-mode sites polled by the dispatcher's admission and
    #: routing paths, modelling the front door itself misbehaving —
    #: an admission filter dropping a request it should have admitted,
    #: a replica swallowing copies without serving them, or a circuit
    #: breaker tripping spuriously.
    ADMISSION_DROP = "admission_drop"
    REPLICA_STALL = "replica_stall"
    BREAKER_FLAP = "breaker_flap"


class SiteMode(str, enum.Enum):
    """How a site consumes the injector.

    ``RAISE`` hooks throw the failing layer's real exception type,
    ``DROP`` hooks silently lose an event, and ``EVENT`` hooks are
    polled (:meth:`repro.faults.injector.FaultInjector.event`) by a
    control plane that reacts to the failure itself — the host-level
    tier, where "the failure" is an entire host and no single call
    site can raise on its behalf.
    """

    RAISE = "raise"
    DROP = "drop"
    EVENT = "event"


@dataclass(frozen=True)
class InjectionSite:
    """One fault-injection hook and its failure model."""

    #: Dotted site name (``layer.operation``), used in FaultSpecs.
    name: str
    #: Whether the hook raises an error or silently drops an event.
    mode: SiteMode
    #: The kind injected when a spec does not name one explicitly.
    default_kind: FaultKind
    #: Which error kinds a spec targeting this site may request.
    allowed_kinds: frozenset[FaultKind]
    #: What fails here in the simulation (one line).
    description: str
    #: The real-Xen failure this models (per PAPER.md / paper §4-§5).
    analogue: str
    #: What the hardened code does when this site fails (one line).
    recovery: str


def _site(name: str, mode: SiteMode, default: FaultKind,
          allowed: tuple[FaultKind, ...], description: str, analogue: str,
          recovery: str) -> InjectionSite:
    """Registry construction helper (keeps the table below readable)."""
    return InjectionSite(name=name, mode=mode, default_kind=default,
                         allowed_kinds=frozenset(allowed),
                         description=description, analogue=analogue,
                         recovery=recovery)


#: Every injection site existing in code, keyed by name. Adding a hook
#: without registering it here (or documenting it in docs/FAULTS.md)
#: fails the registry-diff test.
SITES: dict[str, InjectionSite] = {
    site.name: site for site in (
        _site(
            "frames.alloc", SiteMode.RAISE, FaultKind.ENOMEM,
            (FaultKind.ENOMEM,),
            "Machine-frame allocation fails (overhead, special pages, "
            "paging frames, RAM populate).",
            "Xen's domheap allocator returning NULL under memory "
            "pressure while the first stage builds the child's private "
            "pages (paper §4.1/§5.2).",
            "create_domain releases the partial domain; CLONEOP unwinds "
            "the child and resumes the parent (clone() raises ENOMEM, "
            "parent and siblings untouched).",
        ),
        _site(
            "paging.build", SiteMode.RAISE, FaultKind.ENOMEM,
            (FaultKind.ENOMEM, FaultKind.EIO),
            "Page-table/p2m skeleton construction fails for a new "
            "domain or clone.",
            "shadow/HAP pool exhaustion while rebuilding the clone's "
            "page tables and p2m (the private memory of paper §5.2).",
            "Same unwind as frames.alloc: partial domain released, "
            "clone aborted with the parent resumed.",
        ),
        _site(
            "grants.clone", SiteMode.RAISE, FaultKind.ENOMEM,
            (FaultKind.ENOMEM, FaultKind.EIO),
            "Cloning the parent's grant table into the child fails.",
            "gnttab_init/grow failing for the child during the "
            "first-stage grant-table copy (paper §5.2.2).",
            "The first stage destroys the half-built child it created "
            "and CLONEOP unwinds the batch; the parent's grant table "
            "is never mutated.",
        ),
        _site(
            "events.clone", SiteMode.RAISE, FaultKind.ENOMEM,
            (FaultKind.ENOMEM, FaultKind.EIO),
            "Cloning the parent's event channels (incl. IDC wildcard "
            "wiring) into the child fails.",
            "evtchn allocation failure while replicating the parent's "
            "ports and binding the clone to its IDC channels (§5.2.2).",
            "Same unwind; IDC child endpoints are only linked after "
            "success, so siblings keep their fan-out.",
        ),
        _site(
            "grants.map", SiteMode.RAISE, FaultKind.EIO,
            (FaultKind.EIO, FaultKind.ENOMEM),
            "Mapping a foreign grant reference fails (IDC rings, "
            "shared buffers).",
            "GNTTABOP_map_grant_ref returning GNTST_* errors on a "
            "stale or exhausted grant entry.",
            "The error propagates to the mapper; no partial mapping is "
            "recorded, so teardown accounting stays balanced.",
        ),
        _site(
            "xenstore.xs_clone", SiteMode.RAISE, FaultKind.EIO,
            (FaultKind.EIO,),
            "The xs_clone request fails after validation, before any "
            "node is grafted.",
            "oxenstored rejecting the Nephele xs_clone request (quota "
            "exhaustion, OOM) during second-stage device-directory "
            "cloning (paper Fig. 2, §5.2.1).",
            "xencloned aborts that child's second stage: Xenstore "
            "subtrees scrubbed, backends removed, CLONE_FAILED reported "
            "-- the rest of the batch completes.",
        ),
        _site(
            "xenstore.txn_commit", SiteMode.RAISE, FaultKind.EAGAIN,
            (FaultKind.EAGAIN,),
            "A Xenstore transaction commit fails with EAGAIN (forced "
            "conflict).",
            "oxenstored's optimistic concurrency aborting a commit "
            "that raced with another client (the xs_transaction_t of "
            "paper Fig. 2).",
            "XsHandle.run_transaction retries with bounded, "
            "deterministic exponential backoff charged to the virtual "
            "clock; exhaustion re-raises EAGAIN.",
        ),
        _site(
            "notify.ring", SiteMode.RAISE, FaultKind.RING_FULL,
            (FaultKind.RING_FULL,),
            "Pushing a clone notification reports a full ring even "
            "when slots are free.",
            "The shared notification ring's backpressure on the first "
            "stage (paper §5: a full ring stalls cloning until "
            "xencloned drains).",
            "The existing bounded stall loop wakes xencloned and "
            "retries up to BACKPRESSURE_STALL_LIMIT times; exhaustion "
            "aborts the child with a full unwind.",
        ),
        _site(
            "virq.deliver", SiteMode.DROP, FaultKind.DROP,
            (FaultKind.DROP,),
            "A vIRQ dispatch (e.g. the coalesced VIRQ_CLONED wake-up) "
            "is silently lost.",
            "A lost/coalesced-away upcall: the guest or daemon misses "
            "an event because the pending bit was already set or the "
            "handler raced (classic Xen event-channel hazard).",
            "CLONEOP re-raises VIRQ_CLONED with bounded deterministic "
            "backoff; if the second stage still never completes, the "
            "un-plumbed children are unwound and clone() fails cleanly.",
        ),
        _site(
            "device.attach", SiteMode.RAISE, FaultKind.EIO,
            (FaultKind.EIO,),
            "Second-stage device cloning fails for one device class "
            "(console, vif, 9pfs directories, or the 9pfs QMP clone).",
            "A backend driver/QMP error while attaching the clone's "
            "devices in Dom0 (paper §5.2.1: netback shortcut, 9pfs fid "
            "table cloning over QMP).",
            "xencloned aborts that child's second stage (scrub + "
            "CLONE_FAILED); siblings and the parent are untouched.",
        ),
        _site(
            "host.crash", SiteMode.EVENT, FaultKind.HOST_CRASH,
            (FaultKind.HOST_CRASH,),
            "A whole simulated host fail-stops (hypervisor, xenstored, "
            "xencloned and every guest die at once).",
            "A host-level failure beneath anything Xen can recover "
            "from: power loss, hardware fault, hypervisor panic. "
            "Single-host Xen/xl has no answer; HA toolstacks (e.g. "
            "XenServer/xapi pools) detect it by missed heartbeats.",
            "The fleet declares the host dead after a deterministic "
            "heartbeat timeout, unwinds any in-flight clone batch with "
            "the existing whole-batch rollback, accounts the dead "
            "host's resources, and re-places affected clone requests "
            "on surviving hosts with bounded exponential backoff.",
        ),
        _site(
            "host.partition", SiteMode.EVENT, FaultKind.HOST_PARTITION,
            (FaultKind.HOST_PARTITION,),
            "A host becomes unreachable from the fleet control plane "
            "while its guests keep running.",
            "A network partition isolating the host from the "
            "pool master — the classic split-brain hazard that makes "
            "HA toolstacks fence (power-cycle) unreachable hosts "
            "before re-placing their workloads.",
            "Requests routed to the host fail immediately; after the "
            "heartbeat timeout the fleet fences the host (its guests "
            "are destroyed, modelling STONITH) and re-places its "
            "instances, so no family is ever live on two hosts.",
        ),
        _site(
            "migration.source", SiteMode.EVENT, FaultKind.MIGRATION_ABORT,
            (FaultKind.MIGRATION_ABORT,),
            "The source host of an in-flight warm migration fail-stops "
            "mid-round, taking the family's live instances with it.",
            "The migrating host dying while xc_domain_save streams "
            "memory: pre-copy loses the still-running source domain "
            "(the xl migrate sender), so the transfer can never "
            "complete and the family is simply lost with the host.",
            "The fleet declares the source dead through the normal "
            "power-off path: the migration is marked failed "
            "(``source-lost``), its un-streamed pages are accounted "
            "aborted, and the lost instances are re-placed cold on "
            "survivors — the target never activates a half-copied "
            "family, so no instance is ever live on both sides.",
        ),
        _site(
            "migration.target", SiteMode.EVENT, FaultKind.MIGRATION_ABORT,
            (FaultKind.MIGRATION_ABORT,),
            "The target host of an in-flight warm migration fail-stops "
            "mid-round, before (pre-copy) or after (post-copy) the "
            "family switched over to it.",
            "The receiving host dying under xl migrate: pre-copy "
            "restarts harmlessly (the source still runs), but "
            "post-copy's window of vulnerability means a target death "
            "after cutover loses the already-moved guest.",
            "Pre-cutover the migration aborts in place: un-streamed "
            "pages are accounted aborted and the family keeps running "
            "wholly at the source. Post-cutover (post-copy mode) the "
            "moved instances die with the target and are re-placed "
            "cold by the dead-host path — never left split.",
        ),
        _site(
            "migration.stream", SiteMode.EVENT, FaultKind.MIGRATION_ABORT,
            (FaultKind.MIGRATION_ABORT,),
            "The memory stream between source and target breaks "
            "mid-round; both hosts stay up.",
            "A TCP reset / network partition on the migration channel "
            "(the classic xl migrate failure): both hosts survive but "
            "the dirty-page stream is gone.",
            "Pre-cutover the migration aborts cleanly: the family "
            "keeps serving from the source, pages in flight are "
            "accounted aborted (conservation holds), and the planner "
            "may be re-run. Post-cutover (post-copy) the target "
            "cannot satisfy its demand faults, so its instances are "
            "torn down and re-placed cold — wholly at one side.",
        ),
        _site(
            "host.degraded", SiteMode.EVENT, FaultKind.HOST_DEGRADED,
            (FaultKind.HOST_DEGRADED,),
            "A host keeps serving but slowly (failing disk, thermal "
            "throttling, noisy neighbour).",
            "Grey failure: the host answers heartbeats, so timeout "
            "detection never fires, yet every operation on it is "
            "slower — the hardest tier for real fleets to handle.",
            "The fleet drains the host: it is excluded from new "
            "placement, existing instances keep running with a "
            "latency penalty charged to the fleet clock, and "
            "``Fleet.repair_host`` restores it.",
        ),
        _site(
            "frontdoor.admission", SiteMode.EVENT, FaultKind.ADMISSION_DROP,
            (FaultKind.ADMISSION_DROP,),
            "The admission filter sheds a first-try request that the "
            "token bucket and sojourn bound would have admitted.",
            "A load balancer in front of a Xen serving fleet shedding "
            "on a stale utilization signal — an haproxy maxconn or "
            "nginx limit_req tripping on a spike the backends had "
            "already absorbed.",
            "The request is counted shed, resolves immediately (the "
            "caller sees 429 + Retry-After, never a hang), and the "
            "offered == admitted + shed ledger in audit_frontdoor "
            "still balances — a spurious shed can cost goodput but "
            "never conservation.",
        ),
        _site(
            "frontdoor.replica_stall", SiteMode.EVENT,
            FaultKind.REPLICA_STALL, (FaultKind.REPLICA_STALL,),
            "A routed copy is swallowed by its replica: admitted, "
            "never served, immediately lost.",
            "A Unikraft replica wedged after accept() — the vif ring "
            "accepts the request but the guest never schedules the "
            "handler (the paper's §6 OpenFaaS pool with a hung "
            "worker), so the copy blackholes.",
            "The copy is accounted lost (copy conservation holds), "
            "the replica's circuit breaker records a failure — "
            "repeated stalls trip it OPEN and eject the replica from "
            "routing — and the request survives via its sibling "
            "copies or the retry budget.",
        ),
        _site(
            "frontdoor.breaker_flap", SiteMode.EVENT,
            FaultKind.BREAKER_FLAP, (FaultKind.BREAKER_FLAP,),
            "A healthy replica's circuit breaker trips spuriously, "
            "ejecting it from the routing set with no real failure "
            "behind it.",
            "Health-check flapping in a Xen serving fleet: a slow "
            "xenstore read or a dropped probe marks a live backend "
            "down, the classic grey-failure false positive.",
            "The breaker follows its normal lifecycle — OPEN for the "
            "cooldown, HALF_OPEN probes readmit the replica after "
            "frontdoor_breaker_cooldown — so a flap costs at most one "
            "cooldown window of that replica's capacity and the "
            "half-open probe path is exercised end to end.",
        ),
    )
}


def site_names() -> list[str]:
    """All registered site names, sorted."""
    return sorted(SITES)


def raise_sites() -> list[str]:
    """Names of the raise-mode sites (chaos plans target these)."""
    return sorted(name for name, site in SITES.items()
                  if site.mode is SiteMode.RAISE)


def drop_sites() -> list[str]:
    """Names of the drop-mode sites."""
    return sorted(name for name, site in SITES.items()
                  if site.mode is SiteMode.DROP)


def host_sites() -> list[str]:
    """Names of the host-level event-mode sites (the fleet tier)."""
    return sorted(name for name, site in SITES.items()
                  if site.mode is SiteMode.EVENT
                  and name.startswith("host."))


def migration_sites() -> list[str]:
    """Names of the migration-tier event-mode sites."""
    return sorted(name for name in SITES if name.startswith("migration."))


def frontdoor_sites() -> list[str]:
    """Names of the front-door resilience event-mode sites."""
    return sorted(name for name in SITES if name.startswith("frontdoor."))


#: Sites threaded through the KVM backend so far (the parity slice):
#: frame allocation fires from the shared FrameTable, EPT rebuild from
#: KVM_CLONE_VM, the kvmcloned wake-up from the clone loop, and device
#: re-plumbing from kvmcloned's second stage.
KVM_SITES: tuple[str, ...] = ("frames.alloc", "paging.build",
                              "notify.ring", "device.attach")
