"""The Mini-OS UDP server of the instantiation benchmark (paper §6.1).

"Once the UDP server is ready it sends a UDP packet to notify the host.
After that, the VM waits for interrupts." For the cloning experiment the
server clones itself after sending the boot notification; each clone
binds a *unique* port so no two <address, port> tuples hash to the same
bond slave (paper §6.1).
"""

from __future__ import annotations

from repro.guest.api import GuestAPI
from repro.guest.app import GuestApp
from repro.net.packets import Packet
from repro.toolstack.dom0 import HOST_IP


class UdpServerApp(GuestApp):
    """UDP echo server with a host boot notification."""

    image_name = "minios-udp"

    def __init__(self, host_ip: str = HOST_IP, notify_port: int = 9999,
                 listen_port: int = 9000) -> None:
        self.host_ip = host_ip
        self.notify_port = notify_port
        self.listen_port = listen_port
        #: Filled in by whoever owns this instance after boot/clone.
        self.requests_served = 0
        #: The guest API the echo handler replies through (set by
        #: ``main``/``on_cloned``).
        self._api: GuestAPI | None = None

    # ------------------------------------------------------------------
    def _serve(self, packet: Packet) -> None:
        self.requests_served += 1
        self._api.reply(packet, payload=packet.payload)

    def _ready(self, api: GuestAPI, port: int) -> None:
        api.udp_send(self.host_ip, self.notify_port,
                     payload=("ready", api.domid), src_port=port)

    def main(self, api: GuestAPI) -> None:
        """Bind the echo port and notify the host we are ready."""
        self._api = api
        api.udp_bind(self.listen_port, self._serve)
        self._ready(api, self.listen_port)

    def clone_for_child(self) -> "UdpServerApp":
        """Child state: same configuration."""
        child = UdpServerApp(self.host_ip, self.notify_port, self.listen_port)
        return child

    def on_cloned(self, api: GuestAPI, child_index: int) -> None:
        """Rebind to a unique port and announce readiness."""
        # Unique port per clone: the bond's layer3+4 hash must be able to
        # address each clone individually (paper §6.1).
        parent_port = self.listen_port
        self.listen_port = unique_clone_port(api.domid)
        api.udp_unbind(parent_port)
        self._api = api
        api.udp_bind(self.listen_port, self._serve)
        self._ready(api, self.listen_port)


def unique_clone_port(domid: int) -> int:
    """Deterministic unique UDP port for a clone."""
    return 10000 + (domid % 50000)
