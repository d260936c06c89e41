"""First stage of cloning: the hypervisor's work (paper §4.1, §5.2).

Mirrors instantiation but with copy-semantics: struct domain is copied
and edited, vCPU state is replicated (with the rax fixup), guest memory
is COW-shared through dom_cow, private memory (page tables, p2m,
start_info, console/Xenstore interface pages, I/O rings and buffers) is
rebuilt or duplicated, and the grant table and event channels are
cloned — including the DOMID_CHILD IDC wiring.
"""

from __future__ import annotations

from repro.core.notify_ring import CloneNotification
from repro.xen.domain import Domain, DomainState
from repro.xen.hypervisor import Hypervisor


def clone_domain(hypervisor: Hypervisor, parent: Domain,
                 child_index: int, stats: dict[str, int]) -> Domain:
    """Create one clone of ``parent``; returns the paused child.

    The caller (CLONEOP) is responsible for policy checks, pausing the
    parent, pushing the notification and raising VIRQ_CLONED. The
    pages shared and copied are added to the caller's ``stats``. A
    failing stage destroys the child it created before it re-raises.
    """
    costs = hypervisor.costs
    clock = hypervisor.clock
    tracer = hypervisor.tracer

    child = None
    try:
        with tracer.span("first_stage.domain_copy"):
            clock.charge(costs.clone_first_stage_fixed)

            # struct domain copy + special pages + paging frames. Copying the
            # parent's structures is cheaper than creating them from scratch,
            # so the creation fixed cost is not charged here.
            child = hypervisor.create_domain(
                name="",  # xencloned generates and sets the clone's name
                memory_bytes=parent.memory_bytes,
                vcpus=len(parent.vcpus),
                populate=False,
                overhead_pages=costs.hyp_per_clone_overhead_pages,
                charge_create=False,
            )
            # The clone runs its parent's config; the toolstack names a
            # copy after the clone where it needs one (save, restart).
            child.config = parent.config

            # vCPUs: affinity and user registers, rax fixed up (paper §5.2).
            child.vcpus = tuple(vcpu.clone_for_child(child_index)
                                for vcpu in parent.vcpus)

            # Private Xen pages were freshly allocated by create_domain; their
            # contents are rewritten from the parent's (domid references etc.).
            clock.charge(costs.page_copy * len(child.special))

        # Memory: share every shareable parent segment with the child.
        with tracer.span("first_stage.memory_share") as span:
            shared_pages = 0
            newly_shared = 0
            for segment in parent.memory.shareable_segments():
                extent = segment.extent
                if not extent.shared:
                    hypervisor.frames.share_to_cow(extent)
                    newly_shared += segment.npages
                hypervisor.frames.add_sharer(extent)
                child.memory.adopt_segment(segment)
                shared_pages += segment.npages
            clock.charge(costs.share_page * newly_shared)
            span.set(shared_pages=shared_pages, newly_shared=newly_shared)

        # Page table and p2m cloning: the per-entry work that dominates for
        # large guests (paper §4.1 and Fig 6).
        with tracer.span("first_stage.pt_clone", pages=shared_pages):
            clock.charge((costs.pt_entry_clone + costs.p2m_entry_clone)
                         * shared_pages)

        # Grant table and event channels.
        with tracer.span("first_stage.grants_events"):
            if hypervisor.faults.enabled:
                hypervisor.faults.fire("grants.clone", parent=parent.domid,
                                       child=child.domid)
            child.grants = parent.grants.clone_for_child(child.domid)
            clock.charge(costs.grant_entry_clone * len(parent.grants))
            if hypervisor.faults.enabled:
                hypervisor.faults.fire("events.clone", parent=parent.domid,
                                       child=child.domid)
            child.events = parent.events.clone_for_child(child.domid)
            clock.charge(costs.evtchn_op * len(parent.events))
            hypervisor.connect_idc_child(parent, child)

        # Family bookkeeping.
        child.parent_id = parent.domid
        parent.children.append(child.domid)
        child.enable_cloning(parent.max_clones)

        # Guest-level state: device frontends (rings and RX buffers are
        # copied - the clone's dominant private memory) and the application.
        copied_pages = 0
        if parent.guest is not None:
            with tracer.span("first_stage.guest_copy") as span:
                copied_pages = parent.guest.clone_for_child(child, child_index)
                clock.charge(costs.page_copy * copied_pages)
                span.set(copied_pages=copied_pages)

        stats["pages_shared"] += shared_pages
        stats["pages_copied"] += copied_pages
        child.state = DomainState.PAUSED
        return child
    except Exception:
        # The stage unwinds the one domain it created, through the
        # destroy path, before the error reaches CLONEOP.
        if child is not None:
            hypervisor.destroy_domain(child.domid)
        raise


def make_notification(parent: Domain, child: Domain) -> CloneNotification:
    """Build the ring entry for xencloned (a start_info frame number is
    its extent's number in the simulation)."""
    return CloneNotification(
        parent_domid=parent.domid,
        child_domid=child.domid,
        parent_start_info_mfn=parent.start_info_mfn,
        child_start_info_mfn=child.start_info_mfn,
    )
