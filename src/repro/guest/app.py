"""Guest application protocol.

A guest app is a Python object driven by the unikernel: ``main`` runs
at boot, ``on_cloned`` runs in a child right after a clone operation
completes — the moral equivalent of the ``fork() == 0`` branch. Apps
must implement ``clone_for_child`` to produce the child's state (the
default shallow-copies, which matches fork's share-then-COW semantics
for immutable state; apps with mutable state override it).
"""

from __future__ import annotations

import copy
from types import MethodType
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.guest.api import GuestAPI


class GuestApp:
    """Base class for guest applications."""

    #: Image the app is built into (key of repro.guest.image.IMAGES).
    image_name = "minios-udp"

    # Slotless, so a subclass that declares ``__slots__`` is slotted;
    # one that does not gets its ``__dict__`` as usual.
    __slots__ = ()

    def main(self, api: "GuestAPI") -> None:
        """Entry point; runs once at boot (or restore). Event-driven
        apps register handlers here and return."""

    def clone_for_child(self) -> "GuestApp":
        """Produce the child's application state at clone time."""
        return copy.copy(self)

    def on_cloned(self, api: "GuestAPI", child_index: int) -> None:
        """Runs in the *child* once it is resumed after cloning.

        ``child_index`` is the CLONEOP return value minus one (the rax
        fixup gives the parent 0 and each child 1 + its index).
        """

    def on_restored(self, api: "GuestAPI") -> None:
        """Runs after an xl restore resumed this guest."""


def inherit_udp_handlers(handlers: dict[int, Any], parent_app: Any,
                         child_app: Any) -> dict[int, Any]:
    """A clone's UDP handlers: its parent's, with each one bound to the
    parent's app rebound to the same method of the child's app, so a
    datagram to the clone runs the clone's app (called once the
    child's app exists, on either backend)."""
    return {port: (MethodType(handler.__func__, child_app)
                   if parent_app is not None
                   and getattr(handler, "__self__", None) is parent_app
                   else handler)
            for port, handler in handlers.items()}
