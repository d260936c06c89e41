"""Console device.

The console ring is deliberately *not* copied on clone: "duplicating
the parent console output for the child would hinder debugging"
(paper §4.2). Cloning a console only creates the child's Xenstore
entries; the qemu daemon that manages console backends picks them up
from its watch without code changes (paper §5.2.1).
"""

from __future__ import annotations

from repro.sim import CostModel, VirtualClock
from repro.xen.domain import Domain
from repro.xenstore.client import XsHandle


def console_frontend_path(domid: int) -> str:
    """Xenstore directory of a guest's console frontend."""
    return f"/local/domain/{domid}/console"


def console_backend_path(domid: int) -> str:
    """Xenstore directory of a guest's console backend."""
    return f"/local/domain/0/backend/console/{domid}/0"


class ConsoleFrontend:
    """Guest side: writes lines into the console ring."""

    device_class = "console"

    __slots__ = ("domid", "_lines", "sink", "__weakref__")

    def __init__(self, domain: Domain) -> None:
        self.domid = domain.domid
        # The ring lives in the domain's dedicated console page
        # (allocated with the domain's special pages). Its lines are
        # ``None`` until the first: most clones never print.
        self._lines: list[str] | None = None
        #: Backend daemon draining the ring (xenconsoled-style logging).
        self.sink: ConsoleBackendDaemon | None = None
        domain.attach(self)

    @property
    def output(self) -> list[str]:
        """The lines printed so far, oldest first."""
        return self._lines if self._lines is not None else []

    def write_line(self, line: str) -> None:
        """Guest prints a line: ring + xenconsoled sink."""
        if self._lines is None:
            self._lines = [line]
        else:
            self._lines.append(line)
        if self.sink is not None:
            self.sink._drain(self.domid, line)

    def clone_for(self, child: Domain) -> "ConsoleFrontend":
        """Fresh, empty console for the clone: the ring is not copied."""
        return ConsoleFrontend(child)


class ConsoleBackendDaemon:
    """The qemu/xenconsoled process managing console backends in Dom0.

    Drains each guest's console ring into a per-guest log file on the
    Dom0 ramdisk ("critical for logging and debugging", paper §5.2.1).
    """

    LOG_DIR = "/var/log/xen/console"

    def __init__(self, handle: XsHandle, clock: VirtualClock,
                 costs: CostModel, hostfs=None,
                 domain_resolver=None) -> None:
        self.handle = handle
        self.clock = clock
        self.costs = costs
        self.hostfs = hostfs
        self.resolver = domain_resolver
        #: domids with live console backend state.
        self.backends: set[int] = set()
        if hostfs is not None:
            for part in ("/var", "/var/log", "/var/log/xen", self.LOG_DIR):
                if not hostfs.is_dir(part):
                    hostfs.mkdir(part)
        self._watch = handle.watch("/local/domain/0/backend/console",
                                   "console-backend", self._on_watch)

    def shutdown(self) -> None:
        """The daemon dies with its host: its Xenstore watch goes too
        (dropped server-side; the connection is gone, no request)."""
        self.handle.daemon.remove_watch(self._watch)

    def log_path(self, domid: int) -> str:
        """Dom0 path of a guest's console log."""
        return f"{self.LOG_DIR}/guest-{domid}.log"

    def _on_watch(self, path: str, token: str) -> None:
        parts = path.split("/")
        # /local/domain/0/backend/console/<domid>/...
        if len(parts) < 7:
            return
        try:
            domid = int(parts[6])
        except ValueError:
            return
        if domid in self.backends:
            return
        self.backends.add(domid)
        self.clock.charge(self.costs.console_backend_create)
        self._attach_sink(domid)

    def _attach_sink(self, domid: int) -> None:
        if self.hostfs is None or self.resolver is None:
            return
        try:
            domain = self.resolver(domid)
        except Exception:
            return
        self.hostfs.create(self.log_path(domid))
        for console in domain.frontends.get("console", []):
            console.sink = self

    def _drain(self, domid: int, line: str) -> None:
        if self.hostfs is not None:
            self.hostfs.write(self.log_path(domid), len(line) + 1)

    def remove(self, domid: int) -> None:
        """Drop a guest's console state and log."""
        self.backends.discard(domid)
        if self.hostfs is not None and \
                self.hostfs.exists(self.log_path(domid)):
            self.hostfs.unlink(self.log_path(domid))


def write_console_entries(handle: XsHandle, domid: int) -> None:
    """Boot path: the console entries xl writes for a new guest."""
    front = console_frontend_path(domid)
    back = console_backend_path(domid)
    handle.write(f"{front}/ring-ref", f"{domid * 100 + 1}")
    handle.write(f"{front}/port", "2")
    handle.write(f"{front}/backend", back)
    handle.write(f"{front}/type", "xenconsoled")
    handle.write(f"{back}/frontend", front)
    handle.write(f"{back}/frontend-id", str(domid))
    handle.write(f"{back}/online", "1")
    handle.write(f"{back}/state", "4")
