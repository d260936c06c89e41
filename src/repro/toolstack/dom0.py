"""Dom0: the privileged host domain.

Owns the device backends, the software switches, udev and the host
side of the network. Its memory budget is tracked separately from the
hypervisor's guest pool, mirroring the paper's 4 GB Dom0 / 12 GB
hypervisor split (§6.2), and Fig 5 reports both "Dom0 free" and
"Hyp free" series.
"""

from __future__ import annotations

from repro.devices.console import ConsoleBackendDaemon
from repro.devices.hostfs import HostFS
from repro.devices.p9 import P9BackendPolicy, P9Service
from repro.devices.udev import UdevBus, UdevEvent
from repro.devices.vif import NetBackendDriver
from repro.net.bridge import Bridge
from repro.net.host import HostNetwork
from repro.sim.units import MIB
from repro.xen.hypervisor import Hypervisor
from repro.xenstore.client import XsHandle
from repro.xenstore.store import XenstoreDaemon

#: Dom0 kernel + base userspace (Alpine, Xen services) resident set.
BASE_SERVICES_BYTES = 600 * MIB

#: The MAC of Dom0's uplink.
HOST_MAC = "00:16:3e:00:00:01"


class Dom0(HostNetwork):
    """The host domain and its userspace; also the host network, with
    ``xenbr0`` as its default bridge."""

    def __init__(self, hypervisor: Hypervisor, xenstore: XenstoreDaemon,
                 memory_bytes: int,
                 p9_policy: P9BackendPolicy = P9BackendPolicy.SHARED_PROCESS) -> None:
        self.hypervisor = hypervisor
        self.xenstore = xenstore
        self.memory_bytes = memory_bytes
        clock, costs = hypervisor.clock, hypervisor.costs
        self.clock = clock
        self.costs = costs

        self.handle = XsHandle(xenstore, client="dom0")
        self.udev = UdevBus()
        self.hostfs = HostFS()
        self.hostfs.mkdir("/srv")

        # Switching fabric and the uplink the experiments talk to.
        super().__init__("xenbr0", HOST_MAC)

        # Backend drivers.
        self.netback = NetBackendDriver(
            self.handle, clock, costs, self.udev, hypervisor.get_domain,
            tracer=hypervisor.tracer)
        self.console_daemon = ConsoleBackendDaemon(
            self.handle, clock, costs, hostfs=self.hostfs,
            domain_resolver=hypervisor.get_domain)
        self.p9 = P9Service(self.handle, clock, costs, self.hostfs,
                            policy=p9_policy, tracer=hypervisor.tracer)

        # Default hotplug: booted (non-clone) vifs join their bridge.
        self.udev.subscribe(self._hotplug)

    # ------------------------------------------------------------------
    # udev hotplug for regular boots
    # ------------------------------------------------------------------
    def _hotplug(self, event: UdevEvent) -> None:
        if event.subsystem != "net":
            return
        if event.action == "remove":
            self._unplug(event)
            return
        if event.action != "add":
            return
        if event.properties.get("cloned"):
            return  # xencloned owns clone vifs
        key = (event.properties["domid"], event.properties["index"])
        backend = self.netback.backends.get(key)
        if backend is None:
            return
        bridge_name = self._vif_bridge(*key)
        bridge = self.bridges.get(bridge_name)
        if bridge is None:
            bridge = self.bridges[bridge_name] = Bridge(bridge_name)
        bridge.attach(backend.port)
        backend.attach_switch(bridge)
        self.clock.charge(self.costs.switch_attach)

    def _unplug(self, event: UdevEvent) -> None:
        """Release a dead vif's port from its clone-family aggregation
        switch. Bridge detach is handled by the netback driver itself;
        both release paths are idempotent."""
        port = event.properties.get("port")
        if port is not None:
            self.leave_family(port)

    def _vif_bridge(self, domid: int, index: int) -> str:
        path = f"/local/domain/0/backend/vif/{domid}/{index}/bridge"
        try:
            return self.xenstore.read_node(path)
        except Exception:
            return "xenbr0"

    # ------------------------------------------------------------------
    # guest teardown
    # ------------------------------------------------------------------
    def remove_guest(self, handle: XsHandle, domid: int) -> None:
        """Remove a guest's registry entries and backend state, then
        release it from xenstored: the Dom0 half of ``xl destroy``.

        ``handle`` is the caller's own Xenstore connection, so each
        daemon's request counters stay its own.
        """
        for path in (f"/local/domain/{domid}",
                     f"/local/domain/0/backend/vif/{domid}",
                     f"/local/domain/0/backend/console/{domid}",
                     f"/local/domain/0/backend/9pfs/{domid}"):
            if handle.daemon.exists(path):
                handle.rm(path)
        self.netback.remove(domid)
        self.console_daemon.remove(domid)
        self.p9.remove(domid)
        handle.release_domain(domid)

    def shutdown(self) -> None:
        """Dom0's half of taking the host apart: the backend daemons
        drop their Xenstore watches and netback its vifs (their udev
        removes still reach the hotplug handler, which frees family
        bond and OVS slots), then the hotplug handler drops its udev
        subscription and the uplink leaves its switches, so nothing
        refers back into Dom0."""
        self.netback.shutdown()
        self.console_daemon.shutdown()
        self.udev.unsubscribe(self._hotplug)
        for switch in self.host_port.switches:
            switch.detach(self.host_port)

    # ------------------------------------------------------------------
    # memory accounting (Fig 5 "Dom0 free")
    # ------------------------------------------------------------------
    @property
    def guest_count(self) -> int:
        return self.hypervisor.guest_count

    def used_bytes(self) -> int:
        """Dom0 resident memory (services + oxenstored + backends)."""
        used = BASE_SERVICES_BYTES
        used += self.xenstore.resident_bytes()
        used += self.costs.dom0_backend_bytes_per_guest * self.guest_count
        used += self.p9.dom0_resident_bytes()
        return used

    @property
    def free_bytes(self) -> int:
        return max(0, self.memory_bytes - self.used_bytes())
