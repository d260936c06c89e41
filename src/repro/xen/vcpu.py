"""Virtual CPUs.

Only the state Nephele's first stage touches is modelled: user registers
(with the ``rax`` hypercall-return fixup on clone, paper §5.2) and CPU
affinity.
"""

from __future__ import annotations

from collections.abc import Iterator, MutableMapping
from types import MappingProxyType


#: Registers replicated on clone; values are symbolic.
USER_REGISTERS = (
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp", "rip",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15", "rflags",
)

#: The register file of a fresh vCPU, less ``rax``: every register 0.
_RESET = MappingProxyType(dict.fromkeys(USER_REGISTERS[1:], 0))


class Registers(MutableMapping):
    """A vCPU's user registers, as a mapping.

    The vCPU keeps ``rax`` on its own and every other register in a
    frozen snapshot that its clones share: a write to ``rax`` (the
    CLONEOP return value) touches only this vCPU, and a write to any
    other register replaces this vCPU's snapshot instead of changing
    it, so a parent's later writes never show through in its children.
    """

    __slots__ = ("_vcpu",)

    def __init__(self, vcpu: "VCPU") -> None:
        self._vcpu = vcpu

    def __getitem__(self, name: str) -> int:
        if name == "rax":
            return self._vcpu._rax
        return self._vcpu._saved[name]

    def __setitem__(self, name: str, value: int) -> None:
        vcpu = self._vcpu
        if name == "rax":
            vcpu._rax = value
            return
        saved = dict(vcpu._saved)
        saved[name] = value
        vcpu._saved = MappingProxyType(saved)

    def __delitem__(self, name: str) -> None:
        raise TypeError(f"cannot delete register {name!r}")

    def __iter__(self) -> Iterator[str]:
        yield "rax"
        yield from self._vcpu._saved

    def __len__(self) -> int:
        return 1 + len(self._vcpu._saved)


class VCPU:
    """One virtual CPU of a domain."""

    __slots__ = ("vcpu_id", "online", "affinity", "_saved", "_rax")

    def __init__(self, vcpu_id: int, online: bool = True,
                 affinity: frozenset[int] = frozenset()) -> None:
        self.vcpu_id = vcpu_id
        self.online = online
        #: Physical CPUs this vCPU may run on; empty means "any".
        self.affinity = affinity
        #: Every user register but ``rax``: a frozen snapshot, shared
        #: with this vCPU's clones (see :class:`Registers`).
        self._saved = _RESET
        self._rax = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"VCPU({self.vcpu_id} online={self.online} "
                f"affinity={sorted(self.affinity)})")

    @property
    def registers(self) -> Registers:
        """The user registers (read and written like a dict)."""
        return Registers(self)

    def clone_for_child(self, child_index: int) -> "VCPU":
        """Replicate for a clone.

        All user registers are shared with the parent except ``rax``,
        which carries the CLONEOP return value: 0 in the parent, 1 +
        child index in the child (paper §5.2: "on success it is zero
        for the parent and one for any child"; the index lets tests
        tell children apart). The child keeps only its own ``rax``;
        the parent's snapshot is frozen, so neither side's later
        writes reach the other.
        """
        child = object.__new__(VCPU)
        child.vcpu_id = self.vcpu_id
        child.online = self.online
        child.affinity = self.affinity
        child._saved = self._saved
        child._rax = 1 + child_index
        return child

    def pin(self, cpus: frozenset[int] | set[int]) -> None:
        """Restrict this vCPU to the given physical CPUs."""
        self.affinity = frozenset(cpus)
