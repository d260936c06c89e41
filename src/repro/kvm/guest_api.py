"""Guest API adapter for KVM VMs.

The same :class:`~repro.guest.app.GuestApp` protocol the Xen guests use
(``main``/``on_cloned``/``clone_for_child``) works on the KVM port: the
handle serves :class:`~repro.guest.api.CommonGuestAPI`'s calls —
tinyalloc heap, touch/COW, fork(), UDP, files — over the KVM host and
the VM, and supplies only the lookups that name KVM objects: the VMM
pid, the VM as its own kernel, its console buffer, virtio-net and
virtio-9p. Porting an application between the platforms is a config
change, which is the §5.3 "supporting new guests" goal. The Xen-only
calls (``shutdown``, ``crash``, ``read_file``, ``pipe``, ``socketpair``)
are not offered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.guest.api import CommonGuestAPI
from repro.xen.errors import XenInvalidError

if TYPE_CHECKING:  # pragma: no cover
    from repro.kvm.virtio import Virtio9p, VirtioNet
    from repro.kvm.vm import KvmVm


class KvmGuestAPI(CommonGuestAPI):
    """Per-VM handle passed to application code on the KVM port:
    ``platform`` is the KVM host and ``domain`` the VM."""

    __slots__ = ()

    def __init__(self, vm: "KvmVm") -> None:
        self.platform = vm.host
        self.domain = vm

    @property
    def domid(self) -> int:
        """The VMM pid plays the domid role on KVM."""
        return self.domain.pid

    @property
    def _vm(self) -> "KvmVm":
        # The VM is its own guest kernel: heap cursor, UDP handlers.
        return self.domain

    def console(self, line: str) -> None:
        """Print to the VM's console buffer."""
        self.domain.console_output.append(line)

    def vif(self, index: int = 0) -> "VirtioNet":
        """The VM's virtio-net device (a VM has at most one)."""
        net = self.domain.net
        if net is None or index != 0:
            raise XenInvalidError(
                f"VM {self.domid} has no virtio-net {index}")
        return net

    def _p9(self) -> "Virtio9p":
        if self.domain.p9 is None:
            raise XenInvalidError(f"VM {self.domid} has no virtio-9p")
        return self.domain.p9
