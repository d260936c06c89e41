"""Xenstore access logging.

oxenstored logs every incoming request to an access log and rotates it
when it grows past a threshold. LightVM and the paper both observe that
these rotations show up as latency spikes in instantiation experiments
(paper §6.1: with xs_clone "the number of spikes drops to only 2").
"""

from __future__ import annotations

from repro.obs.tracer import NULL_TRACER
from repro.sim import CostModel, VirtualClock


class AccessLog:
    """Size-triggered rotating access log."""

    def __init__(self, clock: VirtualClock, costs: CostModel,
                 enabled: bool = True, tracer=None) -> None:
        self.clock = clock
        self.costs = costs
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.enabled = enabled
        self.bytes_written = 0
        self.current_bytes = 0
        self.rotations = 0
        #: Virtual times at which rotations happened (for spike analysis).
        self.rotation_times: list[float] = []

    def record_request(self) -> bool:
        """Log one request; returns True when this triggered a rotation."""
        if not self.enabled:
            return False
        size = self.costs.xs_log_bytes_per_request
        self.bytes_written += size
        self.current_bytes += size
        if self.current_bytes >= self.costs.xs_log_rotate_bytes:
            self._rotate()
            return True
        return False

    def _rotate(self) -> None:
        with self.tracer.span("xenstore.log_rotation",
                              rotation=self.rotations + 1):
            self.clock.charge(self.costs.xs_log_rotate_cost)
        self.rotations += 1
        self.rotation_times.append(self.clock.now)
        self.current_bytes = 0
