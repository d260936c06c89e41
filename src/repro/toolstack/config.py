"""Domain configuration (the xl.cfg of a guest).

Includes the Nephele addition: ``max_clones`` ("A guest can be cloned
only if its xl configuration file specifies a non-zero value for the
maximum number of clones", paper §5.1) and whether fresh clones resume
or stay paused (paper §5: "The child domains are either resumed or left
in paused state, depending on how they are configured").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.sim.units import MIB


class ConfigError(ReproError):
    """Malformed domain configuration."""


@dataclass(slots=True)
class VifConfig:
    mac: str = ""
    ip: str = ""
    bridge: str = "xenbr0"


@dataclass(slots=True)
class P9Config:
    tag: str = "rootfs"
    export_root: str = "/srv/share"
    mount_point: str = "/"


@dataclass(slots=True)
class DomainConfig:
    name: str
    memory_mb: int = 4
    vcpus: int = 1
    kernel: str = "minios"
    vifs: list[VifConfig] = field(default_factory=list)
    p9fs: list[P9Config] = field(default_factory=list)
    #: Nephele: maximum number of clones (0 disables cloning).
    max_clones: int = 0
    #: Nephele: leave fresh clones paused instead of resuming them.
    start_clones_paused: bool = False
    #: Nephele: clone the I/O devices during the second stage. The Fig 6
    #: microbenchmark disables this to keep "only the mandatory
    #: operations of the second stage" (paper §6.2); Fig 8 uses the
    #: per-device optimization of cloning only what the clones need.
    clone_io_devices: bool = True
    #: What xl does when the guest crashes: "destroy", "restart" or
    #: "preserve" (leave it for debugging).
    on_crash: str = "destroy"
    #: What xl does on a clean guest poweroff.
    on_poweroff: str = "destroy"

    @property
    def memory_bytes(self) -> int:
        return self.memory_mb * MIB

    def validate(self) -> None:
        """Reject malformed configurations (raises ConfigError)."""
        if not self.name:
            raise ConfigError("domain needs a name")
        if self.memory_mb <= 0:
            raise ConfigError(f"non-positive memory: {self.memory_mb} MB")
        if self.vcpus <= 0:
            raise ConfigError(f"non-positive vcpus: {self.vcpus}")
        if self.max_clones < 0:
            raise ConfigError(f"negative max_clones: {self.max_clones}")
        for policy in (self.on_crash, self.on_poweroff):
            if policy not in ("destroy", "restart", "preserve"):
                raise ConfigError(f"unknown exit policy: {policy!r}")

    def for_clone(self, clone_name: str) -> "DomainConfig":
        """A copy named ``clone_name``, same resources: what a clone,
        which runs its parent's config, is saved and restarted with,
        and what a restore under a new name boots."""
        return DomainConfig(
            name=clone_name,
            memory_mb=self.memory_mb,
            vcpus=self.vcpus,
            kernel=self.kernel,
            vifs=[VifConfig(v.mac, v.ip, v.bridge) for v in self.vifs],
            p9fs=[P9Config(p.tag, p.export_root, p.mount_point) for p in self.p9fs],
            max_clones=self.max_clones,
            start_clones_paused=self.start_clones_paused,
            clone_io_devices=self.clone_io_devices,
            on_crash=self.on_crash,
            on_poweroff=self.on_poweroff,
        )


def parse_xl_config(text: str) -> DomainConfig:
    """Parse a minimal xl.cfg-style file.

    Supported keys: ``name``, ``memory``, ``vcpus``, ``kernel``,
    ``vif`` (list of 'mac=..,ip=..,bridge=..' strings), ``p9``
    (list of 'tag=..,path=..,mount=..'), ``max_clones``,
    ``start_clones_paused``.
    """
    values: dict[str, object] = {}
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"malformed line: {raw_line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = _parse_value(value.strip())

    config = DomainConfig(name=str(values.get("name", "")))
    if "memory" in values:
        config.memory_mb = int(values["memory"])  # type: ignore[arg-type]
    if "vcpus" in values:
        config.vcpus = int(values["vcpus"])  # type: ignore[arg-type]
    if "kernel" in values:
        config.kernel = str(values["kernel"])
    if "max_clones" in values:
        config.max_clones = int(values["max_clones"])  # type: ignore[arg-type]
    if "start_clones_paused" in values:
        config.start_clones_paused = bool(int(values["start_clones_paused"]))  # type: ignore[arg-type]
    for spec in values.get("vif", []) or []:
        config.vifs.append(_parse_vif(str(spec)))
    for spec in values.get("p9", []) or []:
        config.p9fs.append(_parse_p9(str(spec)))
    config.validate()
    return config


def _parse_value(value: str):
    if value.startswith("[") and value.endswith("]"):
        inner = value[1:-1].strip()
        if not inner:
            return []
        return [_strip_quotes(part.strip()) for part in inner.split("','")]
    return _strip_quotes(value)


def _strip_quotes(value: str) -> str:
    return value.strip().strip("'\"")


def _kv_pairs(spec: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"malformed device spec: {spec!r}")
        key, _, value = part.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def _parse_vif(spec: str) -> VifConfig:
    pairs = _kv_pairs(spec)
    return VifConfig(
        mac=pairs.get("mac", ""),
        ip=pairs.get("ip", ""),
        bridge=pairs.get("bridge", "xenbr0"),
    )


def _parse_p9(spec: str) -> P9Config:
    pairs = _kv_pairs(spec)
    return P9Config(
        tag=pairs.get("tag", "rootfs"),
        export_root=pairs.get("path", "/srv/share"),
        mount_point=pairs.get("mount", "/"),
    )
