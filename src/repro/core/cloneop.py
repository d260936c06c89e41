"""The CLONEOP hypercall.

Nephele extends the hypervisor interface with exactly one hypercall;
every cloning operation is a subcommand of it (paper §5.1): cloning a
guest (from inside, or from Dom0 with an explicit target), signalling
second-stage completion, enabling cloning globally, and — for the
fuzzing use case (§7.2) — ``clone_cow`` (explicit COW of pages about to
receive breakpoints) and ``clone_reset`` (restore a clone's memory to
its recorded baseline between fuzzing iterations).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ReproError
from repro.core import first_stage
from repro.core.notify_ring import CloneNotificationRing, RingFullError
from repro.xen.domain import Domain, DomainState
from repro.xen.domid import DOM0
from repro.xen.errors import XenPermissionError
from repro.xen.frames import Extent, PageType
from repro.xen.hypervisor import Hypervisor
from repro.xen.memory import Segment


class CloneSubOp(enum.Enum):
    """Subcommands of the CLONEOP hypercall."""

    CLONE = "clone"
    CLONE_COMPLETION = "clone_completion"
    CLONE_FAILED = "clone_failed"
    CLONE_COW = "clone_cow"
    CLONE_RESET = "clone_reset"
    SET_GLOBAL_ENABLE = "set_global_enable"


class CloneOpError(ReproError):
    """CLONEOP subcommand failure (policy or protocol violation)."""


#: Bounded backpressure: how many stall + wake-up cycles :meth:`CloneOp._notify`
#: attempts on a full notification ring before declaring xencloned stuck.
BACKPRESSURE_STALL_LIMIT = 8

#: Bounded VIRQ redelivery: how many times :meth:`CloneOp.clone` re-raises
#: VIRQ_CLONED (with exponential virtual backoff) when the batch wake-up
#: was lost before declaring the second stage dead.
VIRQ_RETRY_LIMIT = 4


@dataclass
class SegmentSnapshot:
    """Baseline record of one memory segment (for clone_reset)."""

    pfn_start: int
    npages: int
    extent: Extent
    extent_offset: int
    label: str


class CloneOp:
    """The hypervisor-resident CLONEOP implementation."""

    def __init__(self, hypervisor: Hypervisor,
                 ring_capacity: int = 64) -> None:
        self.hypervisor = hypervisor
        self.globally_enabled = False
        self.ring = CloneNotificationRing(ring_capacity)
        #: child domid -> parent domid, for in-flight second stages.
        self._pending: dict[int, int] = {}
        #: child domid -> reason, for second stages xencloned reported
        #: failed (consumed by the in-flight CLONE subop).
        self._failed: dict[int, str] = {}
        #: clone_reset baselines: domid -> list of segment snapshots.
        self._baselines: dict[int, list[SegmentSnapshot]] = {}
        #: ``ops`` counts completed CLONE subops and ``clones`` the
        #: children that survived them (unwound and failed children are
        #: taken back out); ``pages_shared``/``pages_copied`` sum every
        #: first stage, unwound ones included.
        self.stats = {"ops": 0, "clones": 0, "failed_clones": 0,
                      "pages_shared": 0, "pages_copied": 0, "resets": 0,
                      "explicit_cows": 0}
        hypervisor.set_cloneop(self)

    def _is_privileged(self, domid: int) -> bool:
        """Dom0 (whether or not modelled as a Domain object) and any
        privileged domain may issue control subops."""
        if domid == DOM0:
            return True
        domain = self.hypervisor.domains.get(domid)
        return domain is not None and domain.privileged

    # ------------------------------------------------------------------
    # subop: SET_GLOBAL_ENABLE (called by xencloned)
    # ------------------------------------------------------------------
    def set_global_enable(self, enabled: bool) -> None:
        """Enable/disable cloning host-wide (xencloned's privilege)."""
        self.globally_enabled = enabled

    # ------------------------------------------------------------------
    # subop: CLONE
    # ------------------------------------------------------------------
    def clone(self, caller_domid: int, count: int = 1,
              target_domid: int | None = None) -> list[int]:
        """Clone a guest ``count`` times; returns the children's domids.

        From inside a guest, ``target_domid`` is omitted (the guest
        clones itself). From Dom0 — e.g. for VM fuzzing — the target is
        passed explicitly (paper §5.1).
        """
        hyp = self.hypervisor
        tracer = hyp.tracer
        # The spans below partition the whole operation: every clock
        # charge between clone.op's start and end falls inside exactly
        # one of prepare / first_stage / handoff / resume, so the stage
        # durations sum to the clone's virtual elapsed time.
        with tracer.span("clone.op", caller=caller_domid, count=count):
            with tracer.span("clone.prepare"):
                hyp.clock.charge(hyp.costs.hypercall_base)
                if count < 1:
                    raise CloneOpError(f"non-positive clone count: {count}")
                if not self.globally_enabled:
                    raise CloneOpError("cloning is disabled globally "
                                       "(xencloned not running?)")
                if target_domid is None or target_domid == caller_domid:
                    parent = hyp.get_domain(caller_domid)
                else:
                    if not self._is_privileged(caller_domid):
                        raise XenPermissionError(
                            f"domain {caller_domid} may not clone "
                            f"domain {target_domid}")
                    parent = hyp.get_domain(target_domid)
                if not parent.may_clone(count):
                    raise CloneOpError(
                        f"domain {parent.domid} may not create {count} more "
                        f"clones (max {parent.max_clones}, created "
                        f"{parent.clones_created})")

                # The parent is paused until the completion of the second
                # stage, "to keep its state consistent for all its clones"
                # (paper §5).
                previous_state = parent.state
                hyp.pause_domain(parent.domid)

            children: list[Domain] = []
            for i in range(count):
                child_index = parent.clones_created
                try:
                    with tracer.span("clone.first_stage",
                                     parent=parent.domid) as span:
                        child = first_stage.clone_domain(
                            hyp, parent, child_index, self.stats)
                        span.set(child=child.domid)
                except Exception:
                    # The failed stage destroyed its partial child
                    # (ENOMEM mid-stage, ...); unwind every earlier
                    # sibling whose second stage has not run yet: the
                    # parent must come back runnable and nothing may
                    # leak (domains, ring entries, pending records).
                    hyp.faults.aborted("clone.first_stage")
                    self._abort_unplumbed_children(parent, children)
                    self._restore_parent(parent, previous_state)
                    raise
                parent.clones_created += 1
                self._pending[child.domid] = parent.domid
                try:
                    with tracer.span("clone.handoff", parent=parent.domid,
                                     child=child.domid):
                        self._notify(parent, child)
                except Exception:
                    # Handoff failed (ring stuck, xencloned fatal error):
                    # drop the half-plumbed child plus every earlier
                    # unplumbed sibling, then resume the parent.
                    self._pending.pop(child.domid, None)
                    self._failed.pop(child.domid, None)
                    parent.clones_created -= 1
                    self._abort_unplumbed_children(parent, children)
                    hyp.destroy_domain(child.domid)
                    self._restore_parent(parent, previous_state)
                    raise
                children.append(child)
                self.stats["clones"] += 1

            # Coalesced wake-up: the per-child notifications above were
            # deferred (their event-channel sends are already charged),
            # so the whole batch wakes xencloned exactly once here.
            try:
                with tracer.span("clone.wakeup", count=len(children)):
                    hyp.flush_cloned()
                    # Per-child coordination cost, charged after the
                    # dispatch exactly as the per-child protocol did.
                    for _ in children:
                        hyp.clock.charge(hyp.costs.clone_coordination)
            except Exception:
                # A second stage failed mid-batch: drop every child whose
                # second stage did not complete and resume the parent.
                hyp.faults.aborted("clone.wakeup")
                self._abort_unplumbed_children(parent, children)
                self._restore_parent(parent, previous_state)
                raise

            # The synchronous second stage has signalled completion (or
            # failure) for each child by now. Children whose VIRQ was
            # lost are still pending: re-raise it with exponential
            # virtual backoff before concluding xencloned is absent.
            failed = self._consume_failures(children)
            still_pending = [c.domid for c in children
                             if c.domid in self._pending]
            retries = 0
            while still_pending and retries < VIRQ_RETRY_LIMIT:
                retries += 1
                with tracer.span("clone.virq_retry", attempt=retries):
                    hyp.clock.charge(hyp.costs.clone_virq_retry_backoff
                                     * (2 ** (retries - 1)))
                    hyp.notify_cloned()
                failed.update(self._consume_failures(children))
                still_pending = [c.domid for c in children
                                 if c.domid in self._pending]
            if retries and not still_pending:
                hyp.faults.recovered("virq.deliver")
            if still_pending:
                # The second stage is genuinely dead: unwind every child
                # it never plumbed and hand the caller a clean failure.
                hyp.faults.aborted("virq.deliver")
                self._abort_unplumbed_children(parent, children)
                self._restore_parent(parent, previous_state)
                raise CloneOpError(
                    f"second stage never completed for {still_pending} "
                    "(is xencloned attached?)")
            if failed:
                # Graceful degradation: xencloned cleaned up the failed
                # children (CLONE_FAILED) without aborting the batch;
                # only the survivors are resumed and returned.
                children = [c for c in children if c.domid not in failed]

            with tracer.span("clone.resume"):
                # rax fixups: 0 in the parent (paper §5.2).
                for vcpu in parent.vcpus:
                    vcpu.registers["rax"] = 0
                self._restore_parent(parent, previous_state)
                self._resume_children(parent, children)
        self.stats["ops"] += 1
        return [child.domid for child in children]

    def _consume_failures(self, children: list[Domain]) -> dict[int, str]:
        """Pop and return the CLONE_FAILED reports for ``children``."""
        return {child.domid: self._failed.pop(child.domid)
                for child in children if child.domid in self._failed}

    def _restore_parent(self, parent: Domain,
                        previous_state: DomainState) -> None:
        """Give the parent back the state it had before the clone
        began: unpause it if it was runnable, else restore the state."""
        if previous_state in (DomainState.RUNNING, DomainState.CREATED):
            self.hypervisor.unpause_domain(parent.domid)
        else:
            parent.state = previous_state

    def _notify(self, parent: Domain, child: Domain) -> None:
        """Queue a child's second-stage notification.

        The ring push is backed by a *bounded* stall loop: on a full
        ring the first stage wakes xencloned synchronously (one extra
        event-channel send, exactly what the pre-coalescing protocol
        charged on a full ring) and retries, up to
        :data:`BACKPRESSURE_STALL_LIMIT` times. The per-child wake-up
        itself is deferred; the batch is flushed once by :meth:`clone`.
        """
        entry = first_stage.make_notification(parent, child)
        hyp = self.hypervisor
        stalled = False
        for _ in range(BACKPRESSURE_STALL_LIMIT):
            try:
                if hyp.faults.enabled:
                    hyp.faults.fire("notify.ring", parent=parent.domid,
                                    child=child.domid)
                self.ring.push(entry)
                break
            except RingFullError:
                # Backpressure: stall the first stage until xencloned
                # drains. A wake-up that frees no slot is retried — a
                # daemon draining slowly makes progress eventually; one
                # that never drains hits the bound below.
                stalled = True
                hyp.notify_cloned()
        else:
            hyp.faults.aborted("notify.ring")
            raise CloneOpError(
                f"clone notification ring still full after "
                f"{BACKPRESSURE_STALL_LIMIT} wake-ups "
                "(is xencloned draining?)")
        if stalled:
            hyp.faults.recovered("notify.ring")
        hyp.notify_cloned(defer=True)

    def _abort_unplumbed_children(self, parent: Domain,
                                  children: list[Domain]) -> None:
        """Unwind children whose second stage never completed (their
        domids are still pending) after a failed batch wake-up; children
        already plumbed by xencloned stay alive, like in the per-child
        notification protocol. The caller restores the parent."""
        hyp = self.hypervisor
        aborted: set[int] = set()
        for child in children:
            # Failure reports for this batch die with it.
            self._failed.pop(child.domid, None)
            if self._pending.pop(child.domid, None) is None:
                continue
            aborted.add(child.domid)
            parent.clones_created -= 1
            self.stats["clones"] -= 1
            hyp.destroy_domain(child.domid)
        # Purge their queued notifications: xencloned must never see an
        # entry for a domain that no longer exists.
        if aborted:
            self.ring.discard(lambda entry: entry.child_domid in aborted)

    def _resume_children(self, parent: Domain, children: list[Domain]) -> None:
        start_paused = (parent.config is not None
                        and parent.config.start_clones_paused)
        for child in children:
            if start_paused:
                continue
            self.resume_clone(child.domid)

    def resume_clone(self, child_domid: int) -> None:
        """Unpause a clone and run its post-fork continuation."""
        child = self.hypervisor.get_domain(child_domid)
        self.hypervisor.unpause_domain(child_domid)
        if child.guest is not None:
            rax = child.vcpus[0].registers["rax"]
            child.guest.on_resumed_after_clone(rax - 1)

    # ------------------------------------------------------------------
    # subop: CLONE_COMPLETION (called by xencloned)
    # ------------------------------------------------------------------
    def clone_completion(self, caller_domid: int, parent_domid: int,
                         child_domid: int) -> None:
        """xencloned signals that a child's second stage finished."""
        if not self._is_privileged(caller_domid):
            raise XenPermissionError("clone_completion is Dom0-only")
        self.hypervisor.clock.charge(self.hypervisor.costs.hypercall_base)
        pending_parent = self._pending.pop(child_domid, None)
        if pending_parent != parent_domid:
            raise CloneOpError(
                f"unexpected completion for child {child_domid} "
                f"(parent {parent_domid}, pending {pending_parent})")

    # ------------------------------------------------------------------
    # subop: CLONE_FAILED (called by xencloned)
    # ------------------------------------------------------------------
    def clone_failed(self, caller_domid: int, parent_domid: int,
                     child_domid: int, reason: str = "") -> None:
        """xencloned reports a child whose second stage failed.

        The hypervisor unwinds the half-plumbed child — clone
        accounting here, then ``destroy_domain`` for its family links,
        IDC endpoints and frames — while the rest of the batch proceeds
        (graceful degradation: one bad child must not abort its
        siblings). The in-flight CLONE subop consumes the report and
        drops the child from its result.
        """
        if not self._is_privileged(caller_domid):
            raise XenPermissionError("clone_failed is Dom0-only")
        hyp = self.hypervisor
        hyp.clock.charge(hyp.costs.hypercall_base)
        pending_parent = self._pending.pop(child_domid, None)
        if pending_parent != parent_domid:
            raise CloneOpError(
                f"unexpected failure report for child {child_domid} "
                f"(parent {parent_domid}, pending {pending_parent})")
        parent = hyp.get_domain(parent_domid)
        parent.clones_created -= 1
        self.stats["clones"] -= 1
        self.stats["failed_clones"] += 1
        if child_domid in hyp.domains:
            hyp.clock.charge(hyp.costs.clone_abort_fixed)
            hyp.destroy_domain(child_domid)
        self._failed[child_domid] = reason
        hyp.faults.aborted("clone.second_stage")

    # ------------------------------------------------------------------
    # subop: CLONE_COW (fuzzing: breakpoint insertion, §7.2)
    # ------------------------------------------------------------------
    def clone_cow(self, caller_domid: int, target_domid: int, pfn: int,
                  npages: int = 1):
        """Explicitly trigger COW on a clone's pages so the fuzzer can
        plant breakpoints without touching the shared originals."""
        if not self._is_privileged(caller_domid):
            raise XenPermissionError("clone_cow is Dom0-only")
        target = self.hypervisor.get_domain(target_domid)
        stats = target.memory.write_range(pfn, npages)
        self.hypervisor.clock.charge(
            self.hypervisor.costs.hypercall_base
            + self.hypervisor.costs.clone_cow_per_page * npages)
        self.stats["explicit_cows"] += npages
        return stats

    # ------------------------------------------------------------------
    # subop: CLONE_RESET (fuzzing: restore memory between iterations)
    # ------------------------------------------------------------------
    def snapshot(self, target_domid: int) -> int:
        """Record the reset baseline for ``target_domid``.

        Models KFX keeping the original contents of the pages it will
        restore: the baseline holds its own references on the shared
        extents so resets can re-map them. Returns segments recorded.
        """
        target = self.hypervisor.get_domain(target_domid)
        self.release_baseline(target_domid)
        baseline: list[SegmentSnapshot] = []
        for seg in target.memory.segments:
            if seg.extent.page_type is not PageType.NORMAL:
                continue
            if seg.extent.shared:
                self.hypervisor.frames.add_ref_range(
                    seg.extent, seg.extent_offset, seg.npages)
            baseline.append(SegmentSnapshot(
                pfn_start=seg.pfn_start, npages=seg.npages,
                extent=seg.extent, extent_offset=seg.extent_offset,
                label=seg.label))
        self._baselines[target_domid] = baseline
        target.memory.clear_dirty()
        return len(baseline)

    def clone_reset(self, caller_domid: int, target_domid: int) -> int:
        """Restore a clone's memory to its baseline; returns the number
        of dirty pages that were rolled back."""
        if not self._is_privileged(caller_domid):
            raise XenPermissionError("clone_reset is Dom0-only")
        baseline = self._baselines.get(target_domid)
        if baseline is None:
            raise CloneOpError(
                f"no reset baseline recorded for domain {target_domid}")
        target = self.hypervisor.get_domain(target_domid)
        frames = self.hypervisor.frames
        dirty = target.memory.clear_dirty()

        # A segment identical to its baseline snapshot would be dropped
        # and immediately re-added - skip the pair (pfn_start makes the
        # key unique within a domain; extents hash by identity).
        baseline_keys = {
            (s.pfn_start, s.npages, s.extent, s.extent_offset)
            for s in baseline
        }
        keep_extents = {snap.extent for snap in baseline}
        survivors: list[Segment] = []
        unchanged: set = set()
        for seg in target.memory.segments:
            if seg.extent.page_type is not PageType.NORMAL:
                survivors.append(seg)
                continue
            key = (seg.pfn_start, seg.npages, seg.extent, seg.extent_offset)
            if key in baseline_keys:
                survivors.append(seg)
                unchanged.add(key)
                continue
            if seg.extent.shared:
                frames.drop_ref_range(seg.extent, seg.extent_offset,
                                      seg.npages)
            elif seg.extent not in keep_extents:
                frames.free_extent(seg.extent)
            # Baseline-private extents are kept; they get re-mapped below.

        restored: list[Segment] = []
        for snap in baseline:
            key = (snap.pfn_start, snap.npages, snap.extent,
                   snap.extent_offset)
            if key in unchanged:
                continue
            if snap.extent.shared:
                frames.add_ref_range(snap.extent, snap.extent_offset,
                                     snap.npages)
            restored.append(Segment(snap.pfn_start, snap.npages, snap.extent,
                                    snap.extent_offset, snap.label))
        merged = survivors + restored
        merged.sort(key=lambda s: s.pfn_start)
        target.memory.segments = merged

        self.hypervisor.clock.charge(
            self.hypervisor.costs.hypercall_base
            + self.hypervisor.costs.clone_reset_fixed
            + self.hypervisor.costs.clone_reset_per_page * dirty)
        self.stats["resets"] += 1
        return dirty

    # ------------------------------------------------------------------
    # host fail-stop (the fleet tier)
    # ------------------------------------------------------------------
    def host_shutdown(self) -> dict[str, int]:
        """Purge all in-flight clone state when the host fail-stops.

        The fleet calls this while powering off a crashed or fenced
        host, and :meth:`Platform.close` when a session ends: pending
        second-stage records, queued ring notifications, failure
        reports and reset baselines all die with the host, and the
        hypercall is uninstalled. Nothing is charged to the clock (the
        host is dead); baseline extent references are dropped so the
        frame table balances for the dead-host accounting in
        ``audit_fleet``. Returns the purge counts.
        """
        purged = {"pending": len(self._pending),
                  "failed": len(self._failed),
                  "ring": len(self.ring),
                  "baselines": len(self._baselines)}
        self._pending.clear()
        self._failed.clear()
        self.ring.discard(lambda entry: True)
        for domid in list(self._baselines):
            self.release_baseline(domid)
        self.globally_enabled = False
        self.hypervisor.set_cloneop(None)
        return purged

    def release_baseline(self, domid: int) -> None:
        """Drop a baseline's extent references (on domain teardown)."""
        baseline = self._baselines.pop(domid, None)
        if not baseline:
            return
        for snap in baseline:
            if snap.extent.shared:
                self.hypervisor.frames.drop_ref_range(
                    snap.extent, snap.extent_offset, snap.npages)
