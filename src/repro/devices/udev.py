"""udev event bus.

When the netback driver creates a virtual interface, the kernel emits a
udev event; Nephele's xencloned subscribes and finishes the userspace
part of device setup (paper §4, step 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class UdevEvent:
    action: str            # "add" / "remove"
    subsystem: str         # "net", ...
    name: str              # device name, e.g. "vif7.0"
    properties: dict = field(default_factory=dict)


UdevHandler = Callable[[UdevEvent], None]


class UdevBus:
    """Dom0 udev: synchronous dispatch to subscribed daemons."""

    def __init__(self) -> None:
        self._handlers: list[UdevHandler] = []
        self.events_emitted = 0

    def subscribe(self, handler: UdevHandler) -> None:
        """Register a daemon for all future events."""
        self._handlers.append(handler)

    def unsubscribe(self, handler: UdevHandler) -> None:
        """Drop a daemon's subscription (the daemon stopped)."""
        if handler in self._handlers:
            self._handlers.remove(handler)

    def emit(self, event: UdevEvent) -> int:
        """Deliver an event to every subscriber; returns the count."""
        self.events_emitted += 1
        for handler in list(self._handlers):
            handler(event)
        return len(self._handlers)
