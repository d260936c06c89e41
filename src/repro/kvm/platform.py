"""KVM platform facade, mirroring :class:`repro.platform.Platform`."""

from __future__ import annotations

from repro.devices.hostfs import HostFS
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.faults.plan import FaultPlan
from repro.kvm.clone import KvmCloned, KvmCloneOp
from repro.kvm.host import KvmHost
from repro.kvm.vm import KvmVm
from repro.kvm.virtio import Virtio9p, VirtioNet
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim import CostModel, DeterministicRNG, VirtualClock
from repro.sim.units import GIB


class KvmPlatform:
    """A Linux/KVM host with Nephele's cloning extensions ported."""

    def __init__(self, memory_bytes: int = 16 * GIB, cpus: int = 4,
                 costs: CostModel | None = None, seed: int = 0xC10E,
                 fault_plan: FaultPlan | None = None,
                 trace: bool = False) -> None:
        self.clock = VirtualClock()
        self.costs = costs if costs is not None else CostModel()
        self.rng = DeterministicRNG(seed)
        #: Same off-path contract as the Xen platform: NULL_INJECTOR
        #: unless a non-empty plan was configured.
        self.faults = (FaultInjector(fault_plan, clock=self.clock,
                                     rng=self.rng.fork("faults"))
                       if fault_plan is not None and fault_plan.specs
                       else NULL_INJECTOR)
        #: Same off-path contract for observability: NULL_TRACER unless
        #: tracing was requested, so benchmarks stay unaffected.
        self.tracer = (Tracer(self.clock, host="kvm") if trace
                       else NULL_TRACER)
        self.host = KvmHost(memory_bytes, cpus=cpus, clock=self.clock,
                            costs=self.costs, faults=self.faults,
                            tracer=self.tracer)
        self.hostfs = HostFS()
        self.hostfs.mkdir("/srv")
        self.kvmcloned = KvmCloned(self.host)
        self.cloneop = KvmCloneOp(self.host, self.kvmcloned)
        self.host.cloneop = self.cloneop

    @property
    def now(self) -> float:
        return self.clock.now

    # ------------------------------------------------------------------
    def create_vm(self, name: str, memory_bytes: int, vcpus: int = 1,
                  ip: str = "", p9_export: str = "",
                  max_clones: int = 0, app=None) -> KvmVm:
        """Launch a VMM process with the requested devices and boot it."""
        vm = KvmVm(self.host, name, memory_bytes, vcpus)
        try:
            if ip:
                net = VirtioNet(vm, mac=f"52:54:00:00:{vm.pid % 256:02x}:00",
                                ip=ip)
                self.host.bridge.attach(net)
                net.attach_switch(self.host.bridge)
                self.clock.charge(self.costs.switch_attach)
            if p9_export:
                Virtio9p(vm, p9_export, self.hostfs)
            vm.enable_cloning(max_clones)
            vm.app = app
            vm.boot()
            if app is not None:
                app.main(vm.api)
        except Exception:
            # Roll the half-booted VM back, as xl create does.
            vm.destroy()
            raise
        return vm

    def clone(self, pid: int, count: int = 1) -> list[int]:
        """KVM_CLONE_VM: clone a VM ``count`` times."""
        return self.cloneop.clone(pid, count=count)

    def destroy(self, pid: int) -> None:
        """Kill a VMM process and release its memory."""
        self.host.get_vm(pid).destroy()

    def free_bytes(self) -> int:
        """Host memory still free."""
        return self.host.free_bytes

    def check_invariants(self) -> None:
        """Frame-conservation check."""
        self.host.frames.check_invariants()
