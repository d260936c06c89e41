"""KVM cloning: the ``KVM_CLONE_VM`` ioctl and the ``kvmcloned`` daemon.

First stage (host kernel): the VMM process forks, so the guest's
anonymous memory becomes COW-shared by Linux MM ("KVM already supports
page sharing between parent and child domains", paper §5.3); the ioctl
copies the vCPU state (with the same rax fixup as on Xen), rebuilds the
EPT structures and pins fresh virtio queue pages.

Second stage (userspace): ``kvmcloned`` — the xencloned analogue —
creates a tap device for the clone, enslaves it (and, the first time,
the parent's tap) to the family bond, and reconnects vhost. virtio-9p
needs nothing: fork duplicated the fid table's file descriptors.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.guest.app import inherit_udp_handlers
from repro.kvm.host import KvmHost
from repro.kvm.vm import KvmVm, VmState
from repro.sim.units import pages_of
from repro.xen.paging import build_paging


class KvmCloneError(ReproError):
    """KVM_CLONE_VM failure (policy violation)."""


class KvmCloned:
    """The coordination daemon (xencloned's role on KVM)."""

    def __init__(self, host: KvmHost) -> None:
        self.host = host
        self.clones_completed = 0

    def second_stage(self, parent: KvmVm, child: KvmVm) -> None:
        """Userspace re-plumbing: name, tap + bond, vhost reconnect."""
        costs = self.host.costs
        # The kvmcloned wake-up: same site as the Xen notification ring,
        # so one chaos plan storms either backend's clone-notify path.
        if self.host.faults.enabled:
            self.host.faults.fire("notify.ring", parent=parent.pid,
                                  child=child.pid)
        with self.host.tracer.span("clone.second_stage", parent=parent.pid,
                                   child=child.pid):
            child.name = f"{parent.name}-c{child.pid}"
            if parent.net is not None and child.net is not None:
                if self.host.faults.enabled:
                    self.host.faults.fire("device.attach", device="tap",
                                          parent=parent.pid, child=child.pid)
                # Fresh tap for the clone, aggregated behind the
                # family bond.
                self.host.join_family(child.net, lambda: parent.net)
                self.host.clock.charge(costs.switch_attach
                                       + costs.udev_dispatch)
            # virtio-9p: nothing to do (fork inherited the fids).
            self.clones_completed += 1


class KvmCloneOp:
    """The KVM_CLONE_VM ioctl handler."""

    def __init__(self, host: KvmHost, daemon: KvmCloned | None = None) -> None:
        self.host = host
        self.daemon = daemon if daemon is not None else KvmCloned(host)
        self.stats = {"clones": 0, "rollbacks": 0}

    def clone(self, parent_pid: int, count: int = 1) -> list[int]:
        """Clone a VM ``count`` times; returns the children's pids.

        All-or-nothing, matching the Xen CLONEOP semantics: a failure
        on child k (including an injected fault) destroys the k-1
        children already built, restores the parent's clone budget and
        run state, and re-raises — nothing leaks.
        """
        if count < 1:
            raise KvmCloneError(f"non-positive clone count: {count}")
        parent = self.host.get_vm(parent_pid)
        if not parent.may_clone(count):
            raise KvmCloneError(
                f"VM {parent_pid} may not create {count} more clones "
                f"(max {parent.max_clones}, created {parent.clones_created})")
        parent_state = parent.state
        parent.state = VmState.PAUSED
        children = []
        with self.host.tracer.span("clone.op", caller=parent_pid,
                                   count=count):
            try:
                for _ in range(count):
                    children.append(self._clone_one(parent))
                    parent.clones_created += 1
                    self.stats["clones"] += 1
            except ReproError:
                for child in reversed(children):
                    child.destroy()
                    parent.clones_created -= 1
                    self.stats["clones"] -= 1
                self.stats["rollbacks"] += 1
                parent.state = parent_state
                raise
            parent.state = parent_state
            for vcpu in parent.vcpus:
                vcpu.registers["rax"] = 0
            with self.host.tracer.span("clone.resume",
                                       count=len(children)):
                for child in children:
                    child.state = VmState.RUNNING
                    if child.app is not None:
                        rax = child.vcpus[0].registers["rax"]
                        child.app.on_cloned(child.api, rax - 1)
        return [child.pid for child in children]

    def _clone_one(self, parent: KvmVm) -> KvmVm:
        host = self.host
        costs = host.costs

        child = KvmVm.__new__(KvmVm)
        child.init_shell(host, "", parent.memory_bytes)
        child.state = VmState.PAUSED
        child.max_clones = parent.max_clones
        child.heap_cursor = parent.heap_cursor
        tracer = host.tracer
        try:
            with tracer.span("clone.first_stage", parent=parent.pid,
                             child=child.pid) as span:
                # fork(): COW-share the parent's anonymous guest memory.
                # Linux copies the page tables of the resident set (the
                # same ON-DEMAND-FORK cost structure as the process
                # baseline).
                shared_pages = 0
                newly_shared = 0
                for segment in parent.memory.shareable_segments():
                    extent = segment.extent
                    if not extent.shared:
                        host.frames.share_to_cow(extent)
                        newly_shared += segment.npages
                    host.frames.add_sharer(extent)
                    child.memory.adopt_segment(segment)
                    shared_pages += segment.npages
                host.clock.charge(costs.fork_base
                                  + costs.fork_pte_copy * shared_pages
                                  + costs.fork_cow_mark * newly_shared)
                span.set(shared_pages=shared_pages)

                # vCPU fds are recreated, their state copied (rax fixup).
                index = parent.clones_created
                child.vcpus = [vcpu.clone_for_child(index)
                               for vcpu in parent.vcpus]
                host.clock.charge(costs.hyp_vcpu_init * len(child.vcpus))

                # EPT / shadow structures are rebuilt for the child fd.
                guest_pages = pages_of(parent.memory_bytes)
                if host.faults.enabled:
                    host.faults.fire("paging.build", domid=child.pid,
                                     pages=guest_pages)
                child.paging = build_paging(host.frames, child.pid,
                                            guest_pages)
                host.clock.charge((costs.pt_entry_clone
                                   + costs.p2m_entry_clone) * guest_pages)

                # VMM process resident memory: fork shares it COW too,
                # but the runtime dirties most of it immediately;
                # account it private.
                child.vmm_extent = host.frames.alloc(
                    child.pid, parent.vmm_extent.count, label="vmm")

                # Devices.
                if parent.net is not None:
                    parent.net.clone_for(child)
                if parent.p9 is not None:
                    parent.p9.clone_for(child)

                # App state.
                if parent.app is not None and hasattr(parent.app,
                                                      "clone_for_child"):
                    child.app = parent.app.clone_for_child()
                child.udp_handlers = inherit_udp_handlers(
                    parent.udp_handlers, parent.app, child.app)

                child.parent_pid = parent.pid
                parent.children.append(child.pid)
                host.register(child)
            with tracer.span("clone.handoff", parent=parent.pid,
                             child=child.pid):
                self.daemon.second_stage(parent, child)
        except ReproError:
            child.release()
            raise
        return child
