"""xl: the Xen command-line toolstack.

Implements the instantiation path of paper §3 (hypervisor calls,
Xenstore registration, device setup and negotiation, guest boot),
save/restore, destroy, and the Nephele domctl extension that enables
cloning per domain. The optional name-uniqueness check reproduces the
superlinear instantiation growth LightVM reported; the paper disables
it for the Fig 4 baseline, and so do the benchmarks here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.devices.console import write_console_entries
from repro.devices.vif import write_vif_entries
from repro.devices.xenbus import XenbusState
from repro.guest.app import GuestApp
from repro.guest.unikernel import UnikernelVM, default_mac
from repro.toolstack.config import DomainConfig
from repro.xen.domain import Domain, DomainState
from repro.xenstore.client import XsHandle


class ToolstackError(ReproError):
    """xl/libxl failure (bad config, duplicate name, ...)."""


_image_ids = itertools.count(1)


@dataclass
class SavedImage:
    """An xl save image: full memory plus config."""

    config: DomainConfig
    n_pages: int
    app: GuestApp | None
    image_id: int = field(default_factory=lambda: next(_image_ids))
    #: Where the image lives on the Dom0 ramdisk.
    path: str = ""

    @property
    def size_bytes(self) -> int:
        from repro.sim.units import PAGE_SIZE

        return self.n_pages * PAGE_SIZE


class XL:
    """The xl CLI + libxl, as one object."""

    def __init__(self, platform: Any, check_names: bool = True) -> None:
        self.platform = platform
        self.hypervisor = platform.hypervisor
        self.dom0 = platform.dom0
        self.check_names = check_names
        self.handle = XsHandle(platform.xenstore, client="xl")
        #: Domains preserved after a crash (on_crash = "preserve").
        self.preserved: list[int] = []
        from repro.xen.events import VIRQ_DOM_EXC

        self.hypervisor.register_virq_handler(VIRQ_DOM_EXC, self._on_dom_exc)

    # ------------------------------------------------------------------
    # guest-exit handling (VIRQ_DOM_EXC)
    # ------------------------------------------------------------------
    def _on_dom_exc(self, virq: int) -> None:
        while self.hypervisor.pending_exits:
            domid, crashed = self.hypervisor.pending_exits.pop(0)
            domain = self.hypervisor.domains.get(domid)
            if domain is None:
                continue
            config = domain.config
            policy = "destroy"
            if config is not None:
                policy = config.on_crash if crashed else config.on_poweroff
            if policy == "preserve":
                self.preserved.append(domid)
                continue
            app = domain.guest.app if domain.guest is not None else None
            self.destroy(domid)
            if policy == "restart" and config is not None:
                self.create(config, app=app)

    @property
    def _clock(self):
        return self.hypervisor.clock

    @property
    def _costs(self):
        return self.hypervisor.costs

    # ------------------------------------------------------------------
    # create
    # ------------------------------------------------------------------
    def create(self, config: DomainConfig, app: GuestApp | None = None) -> Domain:
        """Boot a new guest; returns the running domain."""
        tracer = self.hypervisor.tracer
        with tracer.span("boot.xl_create", name=config.name):
            config.validate()
            self._clock.charge(self._costs.xl_create_fixed)
            with tracer.span("boot.name_check"):
                self._check_name(config.name)

            with tracer.span("boot.domain_create"):
                domain = self.hypervisor.create_domain(
                    config.name, config.memory_bytes, vcpus=config.vcpus)
                domain.config = config

            try:
                with tracer.span("boot.xenstore_entries"):
                    self.handle.introduce_domain(domain.domid)
                    self._write_base_entries(domain, config)

                with tracer.span("boot.guest_load"):
                    guest = UnikernelVM.from_config(self.platform, domain, app)
                    guest.load()

                with tracer.span("boot.devices"):
                    self._setup_devices(domain, config)
                if config.max_clones:
                    # Nephele domctl: enable cloning for this domain (§5.1).
                    self.platform.domctl.enable_cloning(0, domain.domid,
                                                        config.max_clones)

                with tracer.span("boot.guest_start"):
                    guest.start()
            except Exception:
                # Roll the half-created guest back (e.g. ENOMEM while
                # populating RAM): registry entries, backends, frames.
                self.destroy(domain.domid)
                raise
        tracer.count("boot.creates")
        return domain

    def _check_name(self, name: str) -> None:
        """Vanilla xl iterates all running VM names (paper §6.1)."""
        existing = [d for d in self.hypervisor.domains.values()]
        if self.check_names:
            self._clock.charge(
                self._costs.xl_name_check_per_domain * len(existing))
            if any(d.name == name for d in existing):
                raise ToolstackError(f"domain name already in use: {name!r}")

    def _write_base_entries(self, domain: Domain, config: DomainConfig) -> None:
        base = domain.store_path
        self.handle.write(f"{base}/name", config.name)
        self.handle.write(f"{base}/domid", str(domain.domid))
        self.handle.write(f"{base}/vm", f"/vm/{domain.domid}")
        self.handle.write(f"{base}/memory/target",
                          str(config.memory_bytes // 1024))
        self.handle.write(f"{base}/memory/static-max",
                          str(config.memory_bytes // 1024))
        self.handle.write(f"{base}/cpu/0/availability", "online")
        self.handle.write(f"{base}/control/platform-feature-xs_reset_watches", "1")
        self.handle.write(f"{base}/control/shutdown", "")
        self.handle.write(f"{base}/store/port", "1")
        self.handle.write(f"{base}/store/ring-ref",
                          str(domain.special["xenstore"].extent_id))

    def _setup_devices(self, domain: Domain, config: DomainConfig) -> None:
        write_console_entries(self.handle, domain.domid)
        for index, vif in enumerate(config.vifs):
            mac = vif.mac or default_mac(domain.domid, index)
            write_vif_entries(self.handle, domain.domid, index, mac, vif.ip,
                              XenbusState.INITIALISING, bridge=vif.bridge)
        for p9 in config.p9fs:
            self.dom0.p9.boot_setup(domain, p9.tag, p9.export_root,
                                    p9.mount_point)

    # ------------------------------------------------------------------
    # destroy
    # ------------------------------------------------------------------
    def destroy(self, domid: int) -> None:
        """``xl destroy``: registry entries, backends, then the domain."""
        with self.hypervisor.tracer.span("xl.destroy", domid=domid):
            self.hypervisor.get_domain(domid)  # ENOENT before any teardown
            cloneop = getattr(self.platform, "cloneop", None)
            if cloneop is not None:
                cloneop.release_baseline(domid)
            self.dom0.remove_guest(self.handle, domid)
            self.hypervisor.destroy_domain(domid)

    # ------------------------------------------------------------------
    # save / restore
    # ------------------------------------------------------------------
    def save(self, domid: int, destroy: bool = True) -> SavedImage:
        """xl save: dump the full memory image, then (by default) tear
        the domain down."""
        with self.hypervisor.tracer.span("xl.save", domid=domid):
            domain = self.hypervisor.get_domain(domid)
            n_pages = domain.ram_budget_pages
            self._clock.charge(self._costs.save_per_page * n_pages)
            app = domain.guest.app if domain.guest is not None else None
            config = domain.config
            if config is None:
                raise ToolstackError(f"domain {domid} has no config to save")
            if destroy:
                self.destroy(domid)
            image = SavedImage(config=config, n_pages=n_pages, app=app)
            # The image occupies space on the Dom0 ramdisk.
            hostfs = self.dom0.hostfs
            if not hostfs.is_dir("/srv/images"):
                hostfs.mkdir("/srv/images")
            image.path = f"/srv/images/{config.name}-{image.image_id}.img"
            hostfs.write(image.path, image.size_bytes, append=False)
            return image

    def discard_image(self, image: SavedImage) -> None:
        """Delete a save image from the Dom0 ramdisk."""
        if image.path and self.dom0.hostfs.exists(image.path):
            self.dom0.hostfs.unlink(image.path)

    def restore(self, image: SavedImage, name: str | None = None) -> Domain:
        """xl restore: rebuild the domain and copy every allocated page
        back from the image, then resume."""
        with self.hypervisor.tracer.span("xl.restore"):
            config = (image.config if name is None
                      else image.config.for_clone(name))
            config.validate()
            self._clock.charge(self._costs.xl_create_fixed)
            self._check_name(config.name)

            domain = self.hypervisor.create_domain(
                config.name, config.memory_bytes, vcpus=config.vcpus)
            domain.config = config
            self.handle.introduce_domain(domain.domid)
            self._write_base_entries(domain, config)

            import copy

            app = copy.copy(image.app) if image.app is not None else None
            guest = UnikernelVM.from_config(self.platform, domain, app)
            guest.load(restored=True)
            # "The entire allocated VM memory is copied back from the image
            # ... regardless of the amount of memory that is actually used".
            self._clock.charge(self._costs.restore_fixed
                               + self._costs.restore_per_page * image.n_pages)

            self._setup_devices(domain, config)
            if config.max_clones:
                self.platform.domctl.enable_cloning(0, domain.domid,
                                                    config.max_clones)

            self._clock.charge(self._costs.restore_resume_fixed)
            domain.state = DomainState.RUNNING
            guest.on_resumed_after_restore()
            return domain

    # ------------------------------------------------------------------
    # misc commands
    # ------------------------------------------------------------------
    def clone(self, domid: int, count: int = 1) -> list[int]:
        """``xl clone``: trigger cloning from Dom0 (e.g. for fuzzing);
        passes the target domid explicitly (paper §5.1)."""
        return self.platform.cloneop.clone(0, count=count, target_domid=domid)

    def list_domains(self) -> list[tuple[int, str, str]]:
        """(domid, name, state) of all domains, like ``xl list``."""
        return [(d.domid, d.name, d.state.value)
                for d in sorted(self.hypervisor.domains.values(),
                                key=lambda d: d.domid)]

    def info_free_memory(self) -> int:
        """``xl info``: hypervisor free memory in bytes."""
        return self.hypervisor.free_bytes
