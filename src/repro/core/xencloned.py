"""xencloned: the Nephele second-stage daemon (paper §4.2, §5.2.1).

Runs in Dom0, woken by ``VIRQ_CLONED``. For each notification it
introduces the child to xenstored (passing the parent ID), generates
and sets the clone's name — guaranteed unique, so no xl-style name scan
is needed — clones the device directories (with ``xs_clone`` or, for
the ablation, the pre-Nephele deep copy), reacts to the udev events the
backends emit (enslaving clone vifs to the family's bond or OVS group),
asks the 9pfs backend over QMP to clone fid tables, and finally signals
completion back to the hypervisor via CLONEOP.
"""

from __future__ import annotations

import enum
import weakref

from repro.core.cloneop import CloneOp
from repro.errors import ReproError
from repro.devices.udev import UdevEvent
from repro.toolstack.dom0 import Dom0
from repro.xen.domid import DOM0
from repro.xen.domain import Domain
from repro.xen.events import VIRQ_CLONED
from repro.xen.hypervisor import Hypervisor
from repro.xenstore.client import XsHandle
from repro.xenstore.clone import XsCloneOp


#: The device directories the second stage clones, in this order:
#: (frontend kind, xs_clone op, frontend dir, backend dir), each dir a
#: ``%`` template over the domid.
_DEVICE_DIRS = (
    ("console", XsCloneOp.DEV_CONSOLE, "/local/domain/%d/console",
     "/local/domain/0/backend/console/%d/0"),
    ("vif", XsCloneOp.DEV_VIF, "/local/domain/%d/device/vif",
     "/local/domain/0/backend/vif/%d"),
    ("9pfs", XsCloneOp.DEV_9PFS, "/local/domain/%d/device/9pfs/0",
     "/local/domain/0/backend/9pfs/%d/0"),
)


class CloneSwitchMode(enum.Enum):
    """How clone vifs are aggregated (paper §5.2.1)."""

    BOND = "bond"
    OVS = "ovs"


class Xencloned:
    """The second-stage coordinator."""

    def __init__(self, hypervisor: Hypervisor, dom0: Dom0, cloneop: CloneOp,
                 use_xs_clone: bool = True,
                 switch_mode: CloneSwitchMode = CloneSwitchMode.BOND) -> None:
        self.hypervisor = hypervisor
        self.dom0 = dom0
        self.cloneop = cloneop
        self.use_xs_clone = use_xs_clone
        self.switch_mode = switch_mode
        self.handle = XsHandle(dom0.xenstore, client="xencloned")
        #: Parents whose Xenstore info is cached ("on first cloning the
        #: parent Xenstore information is read and cached by xencloned to
        #: speed up future invocations", paper §6.2). Held weakly: an
        #: entry dies with its domain, so a domain that later gets the
        #: same domid reads its info again.
        self._parent_cache: weakref.WeakSet[Domain] = weakref.WeakSet()
        self.clones_completed = 0

        hypervisor.register_virq_handler(VIRQ_CLONED, self._on_virq)
        dom0.udev.subscribe(self._on_udev)
        # xencloned is responsible for enabling cloning globally (§5.1).
        cloneop.set_global_enable(True)

    # ------------------------------------------------------------------
    # host fail-stop (the fleet tier)
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """The daemon dies with its host (a fleet host's power-off,
        :meth:`Platform.close`).

        Cloning is disabled globally — a fenced host that races its
        power-off can no longer start new clones — the parent-info
        cache is dropped, and the daemon's vIRQ and udev subscriptions
        go with it.
        """
        self.cloneop.set_global_enable(False)
        self._parent_cache.clear()
        self.hypervisor.unregister_virq_handler(VIRQ_CLONED, self._on_virq)
        self.dom0.udev.unsubscribe(self._on_udev)

    # ------------------------------------------------------------------
    # VIRQ_CLONED handling
    # ------------------------------------------------------------------
    def _on_virq(self, virq: int) -> None:
        if virq != VIRQ_CLONED:
            return
        while True:
            entry = self.cloneop.ring.pop()
            if entry is None:
                break
            try:
                self._second_stage(entry.parent_domid, entry.child_domid)
            except ReproError as error:
                # Graceful degradation: one child's second stage failing
                # (backend error, Xenstore trouble) must not abort the
                # rest of the batch. Clean the half-plumbed child up and
                # report it; the remaining ring entries still run.
                self._abort_child(entry.parent_domid, entry.child_domid,
                                  error)

    def _second_stage(self, parent_domid: int, child_domid: int) -> None:
        parent = self.hypervisor.get_domain(parent_domid)
        child = self.hypervisor.get_domain(child_domid)
        tracer = self.hypervisor.tracer

        with tracer.span("clone.second_stage", parent=parent_domid,
                         child=child_domid):
            with tracer.span("clone.second_stage.introduce"):
                # 1. Introduce the child to xenstored, with the parent ID.
                self.handle.introduce_domain(child_domid, parent_domid)

                # 2. Parent-info cache: the first clone of a parent reads
                # the parent's Xenstore info (one extra request); later
                # clones skip it.
                if parent not in self._parent_cache:
                    self.handle.read_maybe(
                        f"/local/domain/{parent_domid}/name")
                    self._parent_cache.add(parent)

            with tracer.span("clone.second_stage.name"):
                # 3. Generate + set the clone's name. xencloned guarantees
                # uniqueness (domid-suffixed), so no name scan is needed.
                name = child.name = f"{parent.name}-c{child_domid}"
                self.handle.write(f"{child.store_path}/name", name)

                # Grant reference and event port for the child's own
                # Xenstore connection (paper §4: "...grant reference and
                # event port for communication with the Xenstore daemon,
                # etc.").
                self.handle.write(f"{child.store_path}/store/ring-ref",
                                  str(child.store_mfn))
                self.handle.write(f"{child.store_path}/store/port", "1")

            # 4. Device cloning (skippable per config: the Fig 6 probe
            # keeps only the mandatory operations of the second stage).
            clone_io = (parent.config is None
                        or parent.config.clone_io_devices)
            if clone_io:
                with tracer.span("clone.second_stage.xenstore",
                                 xs_clone=self.use_xs_clone):
                    self._clone_devices(parent, child)

            # 5. 9pfs backends clone over QMP.
            if clone_io and parent.frontends.get("9pfs"):
                with tracer.span("clone.second_stage.p9"):
                    self.hypervisor.faults.fire(
                        "device.attach", device="9pfs-qmp",
                        parent=parent_domid, child=child_domid)
                    self.dom0.p9.clone(parent_domid, child_domid)
                    self.dom0.p9.connect_clone_frontend(child)

            with tracer.span("clone.second_stage.completion"):
                # 6. Completion: unblocks the parent.
                self.cloneop.clone_completion(DOM0, parent_domid,
                                              child_domid)
        self.clones_completed += 1

    def _abort_child(self, parent_domid: int, child_domid: int,
                     error: ReproError) -> None:
        """Unwind one failed second stage: the Dom0 half of ``xl
        destroy`` removes whatever registry entries and backend state it
        created and releases the child from xenstored, then CLONE_FAILED
        has the hypervisor destroy the domain and the in-flight CLONE
        subop drop it from its result.
        """
        with self.hypervisor.tracer.span(
                "clone.second_stage.abort", parent=parent_domid,
                child=child_domid, error=type(error).__name__):
            self.dom0.remove_guest(self.handle, child_domid)
            self.cloneop.clone_failed(DOM0, parent_domid, child_domid,
                                      reason=str(error))

    # ------------------------------------------------------------------
    # device directory cloning
    # ------------------------------------------------------------------
    def _clone_devices(self, parent: Domain, child: Domain) -> None:
        """Clone the parent's device directories for the child, class by
        class: one ``xs_clone`` request per directory or, for the
        pre-Nephele ablation, one write request per Xenstore entry,
        "similarly to how the Xenstore entries are created on regular
        instantiation" (paper §6.1)."""
        p, c = parent.domid, child.domid
        faults = self.hypervisor.faults
        handle = self.handle
        for device, op, frontend, backend in _DEVICE_DIRS:
            if not parent.frontends.get(device):
                continue
            if faults.enabled:
                faults.fire("device.attach", device=device,
                            parent=p, child=c)
            if self.use_xs_clone:
                handle.clone(p, c, op, frontend % p, frontend % c)
                handle.clone(p, c, op, backend % p, backend % c)
            else:
                handle.deep_copy(p, c, frontend % p, frontend % c)
                handle.deep_copy(p, c, backend % p, backend % c)

    # ------------------------------------------------------------------
    # udev: finish clone vif setup
    # ------------------------------------------------------------------
    def _on_udev(self, event: UdevEvent) -> None:
        if event.subsystem != "net" or event.action != "add":
            return
        if not event.properties.get("cloned"):
            return
        with self.hypervisor.tracer.span("xencloned.vif_aggregate"):
            self.hypervisor.clock.charge(self.hypervisor.costs.udev_dispatch)
            domid = event.properties["domid"]
            index = event.properties["index"]
            backend = self.dom0.netback.backends.get((domid, index))
            if backend is None:
                return
            # Enslave the clone vif (and, the first time, the parent's
            # vif) to the family's bond or OVS group.
            self.dom0.join_family(
                backend, lambda: self._parent_backend(backend),
                ovs=self.switch_mode is CloneSwitchMode.OVS)
            self.hypervisor.clock.charge(self.hypervisor.costs.switch_attach)

    def _parent_backend(self, backend):
        child = self.hypervisor.domains.get(backend.domid)
        if child is None or child.parent_id is None:
            return None
        return self.dom0.netback.backends.get((child.parent_id, backend.index))
