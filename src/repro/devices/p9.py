"""9pfs filesystem device.

The 9pfs backend runs as a qemu process in Dom0 and keeps a table of
fids (file IDs) for all open files, analogous to a process's descriptor
table (paper §5.2.1). For cloning, Nephele extends the QEMU Machine
Protocol (QMP) so xencloned can ask a backend to clone a parent's fid
table. Two policies exist; the paper adopts the shared process:

- ``SHARED_PROCESS``: the parent's backend process serves all clones
  (adopted: launching one process per clone "stresses the limits of the
  host system when reaching a high density of clones").
- ``PROCESS_PER_CLONE``: a fresh backend process per clone, with the
  fid table propagated (kept as an ablation).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from repro.errors import ReproError
from repro.devices.hostfs import HostFS
from repro.devices.xenbus import negotiate
from repro.obs.tracer import NULL_TRACER
from repro.sim import CostModel, VirtualClock
from repro.xen.domain import Domain
from repro.xenstore.client import XsHandle


class P9BackendPolicy(enum.Enum):
    """How 9pfs backends serve clones (paper §5.2.1)."""

    SHARED_PROCESS = "shared-process"
    PROCESS_PER_CLONE = "process-per-clone"


class P9Error(ReproError):
    """9p protocol error (bad fid, unattached guest, ENOENT)."""


def p9_frontend_path(domid: int, index: int = 0) -> str:
    """Xenstore directory of a guest's 9pfs frontend."""
    return f"/local/domain/{domid}/device/9pfs/{index}"


def p9_backend_path(domid: int, index: int = 0) -> str:
    """Xenstore directory of a guest's 9pfs backend."""
    return f"/local/domain/0/backend/9pfs/{domid}/{index}"


@dataclass
class Fid:
    fid: int
    path: str
    mode: str = "rw"
    offset: int = 0


class P9BackendProcess:
    """One qemu 9pfs backend process in Dom0."""

    #: Resident memory of an idle backend process.
    BASE_RESIDENT_BYTES = 6 * 1024 * 1024
    PER_FID_BYTES = 512

    _pids = itertools.count(1000)

    def __init__(self, export_root: str, hostfs: HostFS, clock: VirtualClock,
                 costs: CostModel) -> None:
        self.pid = next(P9BackendProcess._pids)
        self.export_root = export_root
        self.hostfs = hostfs
        self.clock = clock
        self.costs = costs
        #: fid tables per served guest: domid -> {fid -> Fid}.
        self.fids: dict[int, dict[int, Fid]] = {}
        self._next_fid: dict[int, itertools.count] = {}
        self.requests_served = 0

    # ------------------------------------------------------------------
    # 9p protocol (abridged: attach / open / read / write / clunk)
    # ------------------------------------------------------------------
    def attach(self, domid: int) -> None:
        """T_ATTACH: start serving a guest (fresh fid table)."""
        self.fids.setdefault(domid, {})
        self._next_fid.setdefault(domid, itertools.count(1))

    def detach(self, domid: int) -> None:
        """Stop serving a guest; drop its fids."""
        self.fids.pop(domid, None)
        self._next_fid.pop(domid, None)

    def serves(self, domid: int) -> bool:
        """Is ``domid`` attached to this process?"""
        return domid in self.fids

    def _charge(self, nbytes: int = 0) -> None:
        self.requests_served += 1
        self.clock.charge(self.costs.p9_request_base
                          + self.costs.p9_write_per_byte * nbytes)

    def _table(self, domid: int) -> dict[int, Fid]:
        table = self.fids.get(domid)
        if table is None:
            raise P9Error(f"domain {domid} not attached to backend {self.pid}")
        return table

    def open(self, domid: int, path: str, mode: str = "rw",
             create: bool = False) -> int:
        """T_WALK + T_OPEN: returns a fresh fid."""
        self._charge()
        table = self._table(domid)
        full = f"{self.export_root}{path}"
        if not self.hostfs.exists(full):
            if not create:
                raise P9Error(f"ENOENT: {path}")
            self.hostfs.create(full)
        fid = next(self._next_fid[domid])
        table[fid] = Fid(fid=fid, path=full, mode=mode)
        return fid

    def write(self, domid: int, fid: int, nbytes: int) -> int:
        """T_WRITE at the fid's offset; returns the new file size."""
        self._charge(nbytes)
        entry = self._table(domid).get(fid)
        if entry is None:
            raise P9Error(f"bad fid {fid} for domain {domid}")
        if "w" not in entry.mode:
            raise P9Error(f"fid {fid} not open for writing")
        entry.offset += nbytes
        return self.hostfs.write(entry.path, nbytes)

    def read(self, domid: int, fid: int, nbytes: int) -> int:
        """T_READ; returns bytes actually read (EOF-clamped)."""
        self._charge(nbytes)
        entry = self._table(domid).get(fid)
        if entry is None:
            raise P9Error(f"bad fid {fid} for domain {domid}")
        size = self.hostfs.size(entry.path)
        available = max(0, size - entry.offset)
        got = min(nbytes, available)
        entry.offset += got
        return got

    def clunk(self, domid: int, fid: int) -> None:
        """T_CLUNK: close a fid."""
        self._charge()
        self._table(domid).pop(fid, None)

    def open_fids(self, domid: int) -> int:
        """Open fid count for one guest."""
        return len(self.fids.get(domid, {}))

    # ------------------------------------------------------------------
    # QMP extension: cloning
    # ------------------------------------------------------------------
    def qmp_clone(self, parent_domid: int, child_domid: int) -> int:
        """Clone the parent's fid table for the child (same process).

        Returns the number of fids duplicated.
        """
        parent_table = self._table(parent_domid)
        self.attach(child_domid)
        child_table = self.fids[child_domid]
        for fid, entry in parent_table.items():
            child_table[fid] = Fid(fid=entry.fid, path=entry.path,
                                   mode=entry.mode, offset=entry.offset)
        if parent_table:
            top = max(parent_table)
            self._next_fid[child_domid] = itertools.count(top + 1)
        self.clock.charge(self.costs.p9_qmp_clone_fixed
                          + self.costs.p9_clone_per_fid * len(parent_table))
        return len(parent_table)

    def resident_bytes(self) -> int:
        """Dom0 resident memory of this backend process."""
        open_fids = sum(len(t) for t in self.fids.values())
        return self.BASE_RESIDENT_BYTES + self.PER_FID_BYTES * open_fids


class P9Frontend:
    """Guest-side 9pfs mount."""

    device_class = "9pfs"

    def __init__(self, domain: Domain, tag: str, mount_point: str,
                 index: int = 0) -> None:
        self.domid = domain.domid
        self.tag = tag
        self.mount_point = mount_point
        self.index = index
        self.backend_process: P9BackendProcess | None = None
        domain.frontends.setdefault("9pfs", []).append(self)

    def _process(self) -> P9BackendProcess:
        if self.backend_process is None:
            raise P9Error(
                f"9pfs {self.tag} of domain {self.domid} not connected")
        return self.backend_process

    def open(self, path: str, mode: str = "rw", create: bool = False) -> int:
        """Open a file on the share; returns a fid."""
        return self._process().open(self.domid, path, mode, create)

    def write(self, fid: int, nbytes: int) -> int:
        """Write through the mount."""
        return self._process().write(self.domid, fid, nbytes)

    def read(self, fid: int, nbytes: int) -> int:
        """Read through the mount."""
        return self._process().read(self.domid, fid, nbytes)

    def close(self, fid: int) -> None:
        """Close a fid."""
        self._process().clunk(self.domid, fid)

    def clone_for(self, child: Domain) -> "P9Frontend":
        """Child-side mount; the backend process is reattached by the
        9pfs service during second-stage cloning."""
        clone = P9Frontend(child, self.tag, self.mount_point, self.index)
        return clone


class P9Service:
    """Toolstack-side management of 9pfs backends."""

    def __init__(self, handle: XsHandle, clock: VirtualClock, costs: CostModel,
                 hostfs: HostFS,
                 policy: P9BackendPolicy = P9BackendPolicy.SHARED_PROCESS,
                 tracer=None) -> None:
        self.handle = handle
        self.clock = clock
        self.costs = costs
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.hostfs = hostfs
        self.policy = policy
        #: domid -> backend process serving it.
        self.processes: dict[int, P9BackendProcess] = {}

    def process_for(self, domid: int) -> P9BackendProcess:
        """The backend process serving ``domid``."""
        process = self.processes.get(domid)
        if process is None:
            raise P9Error(f"no 9pfs backend serves domain {domid}")
        return process

    def boot_setup(self, domain: Domain, tag: str, export_root: str,
                   mount_point: str) -> P9Frontend:
        """Regular instantiation: xl launches a backend process for the
        guest and the device negotiates (paper §4: "on booting, xl
        launches the 9pfs filesystem backend as a process for each new
        guest")."""
        with self.tracer.span("p9.boot_setup", domid=domain.domid, tag=tag):
            self.clock.charge(self.costs.p9_process_launch)
            if not self.hostfs.is_dir(export_root):
                self.hostfs.mkdir(export_root)
            process = P9BackendProcess(export_root, self.hostfs, self.clock,
                                       self.costs)
            process.attach(domain.domid)
            self.processes[domain.domid] = process
            frontend = P9Frontend(domain, tag, mount_point)
            frontend.backend_process = process
            front = p9_frontend_path(domain.domid)
            back = p9_backend_path(domain.domid)
            self.handle.write(f"{front}/tag", tag)
            self.handle.write(f"{front}/backend", back)
            self.handle.write(f"{back}/frontend", front)
            self.handle.write(f"{back}/path", export_root)
            self.handle.write(f"{back}/security_model", "none")
            negotiate(self.handle, self.clock, self.costs, front, back)
            return frontend

    def clone(self, parent_domid: int, child_domid: int) -> int:
        """Second-stage 9pfs cloning via the QMP extension. Returns the
        number of fids cloned."""
        with self.tracer.span("p9.qmp_clone", parent=parent_domid,
                              child=child_domid) as span:
            parent_process = self.process_for(parent_domid)
            if self.policy is P9BackendPolicy.SHARED_PROCESS:
                cloned = parent_process.qmp_clone(parent_domid, child_domid)
                self.processes[child_domid] = parent_process
            else:
                self.clock.charge(self.costs.p9_process_launch)
                process = P9BackendProcess(parent_process.export_root,
                                           self.hostfs, self.clock, self.costs)
                process.attach(child_domid)
                # Propagate the parent's fid table into the new process.
                parent_table = parent_process.fids.get(parent_domid, {})
                for fid, entry in parent_table.items():
                    process.fids[child_domid][fid] = Fid(
                        fid=entry.fid, path=entry.path, mode=entry.mode,
                        offset=entry.offset)
                self.clock.charge(
                    self.costs.p9_qmp_clone_fixed
                    + self.costs.p9_clone_per_fid * len(parent_table))
                self.processes[child_domid] = process
                cloned = len(parent_table)
            span.set(fids=cloned)
        return cloned

    def connect_clone_frontend(self, child: Domain) -> None:
        """Point the child's 9pfs frontends at their backend process."""
        for frontend in child.frontends.get("9pfs", []):
            frontend.backend_process = self.processes.get(child.domid)

    def remove(self, domid: int) -> None:
        """Detach a (destroyed) guest from its backend."""
        process = self.processes.pop(domid, None)
        if process is not None:
            process.detach(domid)

    def dom0_resident_bytes(self) -> int:
        """Total Dom0 memory of all distinct backend processes."""
        unique = {id(p): p for p in self.processes.values()}
        return sum(p.resident_bytes() for p in unique.values())
