"""Platform introspection: host state and event counters.

:func:`snapshot` gathers what an operator would want from ``xl info`` +
``xenstore-ls`` + ``free`` in one call: memory by category, sharing
ratios, family sizes, Xenstore and Dom0 state. Used by the CLI's
``stats`` command and by tests that assert on global state.

:func:`counters` is the one place an event-counter name is spelled.
Each count is a plain int kept by the component that does the work,
whether or not tracing is on; the function only reads them, for the
snapshot and for the ``counters`` section of a run report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.units import MIB, PAGE_SIZE
from repro.xen.domid import DOMID_COW, XEN_OWNER
from repro.xen.frames import Extent


@dataclass
class FamilyStats:
    root_domid: int
    root_name: str
    members: int
    shared_pages: int
    private_pages: int

    @property
    def sharing_ratio(self) -> float:
        total = self.shared_pages + self.private_pages
        return self.shared_pages / total if total else 0.0


@dataclass
class PlatformSnapshot:
    virtual_time_ms: float
    # --- memory (bytes) ---
    guest_pool_total: int
    guest_pool_free: int
    dom0_total: int
    dom0_free: int
    cow_shared_bytes: int
    xen_overhead_bytes: int
    # --- domains ---
    domains: int
    running: int
    paused: int
    clones: int
    families: list[FamilyStats] = field(default_factory=list)
    # --- registries ---
    xenstore_nodes: int = 0
    xenstore_requests: int = 0
    xenstore_rotations: int = 0
    clone_operations: int = 0

    def format(self) -> str:
        """Human-readable multi-line rendering."""
        lines = [
            f"virtual time      {self.virtual_time_ms:.1f} ms",
            f"guest pool        {self.guest_pool_free / MIB:.0f} / "
            f"{self.guest_pool_total / MIB:.0f} MiB free",
            f"dom0              {self.dom0_free / MIB:.0f} / "
            f"{self.dom0_total / MIB:.0f} MiB free",
            f"COW-shared        {self.cow_shared_bytes / MIB:.1f} MiB",
            f"xen overhead      {self.xen_overhead_bytes / MIB:.1f} MiB",
            f"domains           {self.domains} ({self.running} running, "
            f"{self.paused} paused, {self.clones} clones)",
            f"xenstore          {self.xenstore_nodes} nodes, "
            f"{self.xenstore_requests} requests, "
            f"{self.xenstore_rotations} log rotations",
            f"clone operations  {self.clone_operations}",
        ]
        for family in self.families:
            lines.append(
                f"family {family.root_name!r} (domid {family.root_domid}): "
                f"{family.members} members, "
                f"{100 * family.sharing_ratio:.0f}% of pages shared")
        return "\n".join(lines)


def counters(platform) -> dict[str, int]:
    """Every event counter of a Xen ``platform``, by dotted name.

    Reads the component that counts each event; counts nothing itself.
    ``net.bridge.*`` sums over Dom0's bridges.
    """
    cloneop = platform.cloneop.stats
    netback = platform.dom0.netback
    bridges = platform.dom0.bridges.values()
    faults = platform.faults.stats if platform.faults.enabled else {}
    return {
        "boot.creates": platform.xl.creates,
        "clone.children": cloneop["clones"],
        "clone.failed": cloneop["failed_clones"],
        "clone.ops": cloneop["ops"],
        "clone.pages_copied": cloneop["pages_copied"],
        "clone.pages_shared": cloneop["pages_shared"],
        "clone.second_stages": platform.xencloned.clones_completed,
        "faults.aborted": faults.get("aborted", 0),
        "faults.injected": faults.get("injected", 0),
        "faults.recovered": faults.get("recovered", 0),
        "net.bridge.flood_deliveries": sum(b.flood_deliveries
                                           for b in bridges),
        "net.bridge.flood_filtered": sum(b.flood_filtered for b in bridges),
        "net.bridge.flooded": sum(b.flooded for b in bridges),
        "net.bridge.forwarded": sum(b.forwarded for b in bridges),
        "vif.booted": netback.booted,
        "vif.cloned": netback.cloned,
        "xenstore.log_rotations": platform.xenstore.access_log.rotations,
        "xenstore.requests": platform.xenstore.stats["requests"],
    }


def snapshot(platform) -> PlatformSnapshot:
    """Collect a :class:`PlatformSnapshot` from a live platform."""
    hyp = platform.hypervisor
    frames = hyp.frames
    counts = counters(platform)

    states = [d.state.value for d in hyp.domains.values()]
    clones = sum(1 for d in hyp.domains.values() if d.is_clone)

    families: list[FamilyStats] = []
    for domain in sorted(hyp.domains.values(), key=lambda d: d.domid):
        if domain.parent_id is not None or not domain.children:
            continue
        member_ids = {domain.domid} | hyp.descendants(domain.domid)
        shared = private = 0
        seen_extents: set[Extent] = set()
        for member_id in member_ids:
            member = hyp.domains[member_id]
            private += member.memory.private_pages()
            for seg in member.memory.segments:
                extent = seg.extent
                if extent.shared and extent not in seen_extents:
                    seen_extents.add(extent)
                    shared += extent.live_pages
        families.append(FamilyStats(
            root_domid=domain.domid, root_name=domain.name,
            members=len(member_ids), shared_pages=shared,
            private_pages=private))

    return PlatformSnapshot(
        virtual_time_ms=platform.now,
        guest_pool_total=frames.total_frames * PAGE_SIZE,
        guest_pool_free=frames.free_frames * PAGE_SIZE,
        dom0_total=platform.dom0.memory_bytes,
        dom0_free=platform.dom0.free_bytes,
        cow_shared_bytes=frames.pages_owned(DOMID_COW) * PAGE_SIZE,
        xen_overhead_bytes=frames.pages_owned(XEN_OWNER) * PAGE_SIZE,
        domains=len(hyp.domains),
        running=states.count("running"),
        paused=states.count("paused"),
        clones=clones,
        families=families,
        xenstore_nodes=platform.xenstore.node_count,
        xenstore_requests=counts["xenstore.requests"],
        xenstore_rotations=counts["xenstore.log_rotations"],
        clone_operations=counts["clone.ops"],
    )
