"""Outside-in per-layer tracing.

Each ``repro.<package>`` layer is measured at its boundary: every
public method of the layer's boundary classes is replaced, for the
traced pass only, by a wrapper that counts the call and switches the
*current layer*. Host time and virtual time between two switches are
charged to the layer that was current, so ``self_s`` is exclusive:
a layer's time minus the time of the layers it called. Two layers come
from outside the wrappers: ``gc`` (switched to by a ``gc.callbacks``
hook) and ``driver`` (time in no layer: the benchmark's own loop and
the thin session facades).

Engine callbacks are charged to the layer that scheduled them, not to
``sim``: the callback passed to ``Engine.schedule_at`` /
``schedule_after`` / ``every`` is itself wrapped to switch to the
layer that was current at scheduling time.

Untraced passes install nothing; :func:`installed_wrappers` proves it.
"""

from __future__ import annotations

import gc
import importlib
from time import perf_counter
from types import FunctionType

#: The boundary classes of each layer, as ``module:Class``.
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "toolstack": ("repro.toolstack.xl:XL",),
    "core": ("repro.core.cloneop:CloneOp", "repro.core.xencloned:Xencloned"),
    "xenstore": ("repro.xenstore.store:XenstoreDaemon",
                 "repro.xenstore.client:XsHandle"),
    "xen": ("repro.xen.hypervisor:Hypervisor", "repro.xen.frames:FrameTable",
            "repro.xen.memory:GuestMemory"),
    "devices": ("repro.devices.vif:NetFrontend", "repro.devices.vif:NetBackend",
                "repro.devices.vif:NetBackendDriver",
                "repro.devices.p9:P9Frontend",
                "repro.devices.p9:P9BackendProcess",
                "repro.devices.console:ConsoleFrontend",
                "repro.devices.console:ConsoleBackendDaemon"),
    "net": ("repro.net.bridge:Bridge", "repro.net.bond:BondInterface",
            "repro.net.ovs:OvsGroup"),
    "sim": ("repro.sim.engine:Engine",),
    "fleet": ("repro.fleet.fleet:Fleet",
              "repro.fleet.migration:MigrationPlanner"),
    "frontdoor": ("repro.frontdoor.dispatch:FrontDoor",
                  "repro.frontdoor.dispatch:ReplicaServer",
                  "repro.frontdoor.resilience:ResilienceState",
                  "repro.frontdoor.resilience:CircuitBreaker",
                  "repro.frontdoor.resilience:RetryBudget",
                  "repro.frontdoor.resilience:TokenBucket"),
    "obs": ("repro.obs.tracer:Tracer",),
}

#: Every layer, in report order.
LAYERS = (*BOUNDARIES, "gc", "driver")

#: Engine methods whose callback argument (third positional, or
#: ``callback=``) is charged to the scheduling layer.
_SCHEDULERS = {"Engine.schedule_at", "Engine.schedule_after", "Engine.every"}

#: Attribute marking a wrapper, so tests can find installed ones.
MARK = "_e2e_layer"

#: Raw spans are kept for the first ``SPAN_OPS`` ops (timed calls), up
#: to ``SPAN_CAP`` spans (about 16 MB of JSON).
SPAN_OPS = 2000
SPAN_CAP = 200_000


def boundary_classes():
    """Yield ``(layer, class)`` for every boundary class."""
    for layer, paths in BOUNDARIES.items():
        for path in paths:
            module, name = path.split(":")
            yield layer, getattr(importlib.import_module(module), name)


def installed_wrappers() -> int:
    """How many boundary methods are currently wrapped."""
    return sum(1 for _, cls in boundary_classes()
               for attr in vars(cls).values() if hasattr(attr, MARK))


class LayerTrace:
    """Per-layer calls, exclusive host time and virtual time of one pass,
    plus raw spans ``[name, start_s, end_s, parent, op]``."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.virt_ms = dict.fromkeys(LAYERS, 0.0)
        #: ``Class.method`` -> calls.
        self.methods: dict[str, int] = {}
        #: Engine callbacks run.
        self.events = 0
        self.gen2_collections = 0
        self.spans: list[list] = []
        self.current = "driver"
        self._open: list[int] = []
        self._saved: list[tuple[type, str, FunctionType]] = []
        self._gc_prev = "driver"
        self._clock = None
        self._ops = None
        self._t0 = self._t = self._v = 0.0

    # ------------------------------------------------------------------
    def install(self, clock, ops: list) -> None:
        """Wrap every boundary method; ``len(ops)`` is the current op id
        and ``clock.now`` the virtual time charged between switches."""
        self._clock = clock
        self._ops = ops
        for layer, cls in boundary_classes():
            for name, attr in list(vars(cls).items()):
                if name.startswith("_") or type(attr) is not FunctionType:
                    continue
                qualname = f"{cls.__name__}.{name}"
                self._saved.append((cls, name, attr))
                setattr(cls, name, self._wrap(attr, layer, qualname))
        gc.callbacks.append(self._on_gc)
        self._t0 = self._t = perf_counter()
        self._v = clock.now

    def uninstall(self) -> None:
        """Charge the open interval and restore every method."""
        self._switch("driver")
        gc.callbacks.remove(self._on_gc)
        for cls, name, attr in reversed(self._saved):
            setattr(cls, name, attr)
        self._saved.clear()

    # ------------------------------------------------------------------
    def _switch(self, layer: str) -> None:
        now = perf_counter()
        current = self.current
        self.self_s[current] += now - self._t
        self._t = now
        virt = self._clock.now
        self.virt_ms[current] += virt - self._v
        self._v = virt
        self.current = layer

    def _wrap(self, fn, layer: str, qualname: str):
        trace = self
        calls = self.calls
        methods = self.methods
        methods[qualname] = 0
        schedules = qualname in _SCHEDULERS

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            methods[qualname] += 1
            prev = trace.current
            if schedules:
                if "callback" in kwargs:
                    kwargs["callback"] = trace._attribute(
                        kwargs["callback"], prev)
                else:
                    args = (*args[:2], trace._attribute(args[2], prev),
                            *args[3:])
            if prev != layer:
                trace._switch(layer)
            span = trace._open_span(qualname)
            try:
                return fn(*args, **kwargs)
            finally:
                if span is not None:
                    trace._close_span(span)
                if prev != layer:
                    trace._switch(prev)

        setattr(wrapper, MARK, layer)
        wrapper.__wrapped__ = fn
        return wrapper

    def _attribute(self, callback, owner: str):
        """Wrap an engine callback to run as the scheduling layer."""
        if hasattr(callback, MARK):
            return callback
        trace = self

        def scheduled():
            if not trace._saved:  # runs after the traced pass ended
                return callback()
            trace.events += 1
            prev = trace.current
            if prev != owner:
                trace._switch(owner)
            try:
                return callback()
            finally:
                if prev != owner:
                    trace._switch(prev)

        setattr(scheduled, MARK, owner)
        return scheduled

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_prev = self.current
            self._switch("gc")
            return
        self._switch(self._gc_prev)
        self.calls["gc"] += 1
        if info["generation"] == 2:
            self.gen2_collections += 1

    def _open_span(self, name: str):
        spans = self.spans
        op = len(self._ops)
        if op >= SPAN_OPS or len(spans) >= SPAN_CAP:
            return None
        parent = self._open[-1] if self._open else -1
        index = len(spans)
        spans.append([name, perf_counter() - self._t0, None, parent, op])
        self._open.append(index)
        return index

    def _close_span(self, index: int) -> None:
        self.spans[index][2] = perf_counter() - self._t0
        self._open.pop()

    # ------------------------------------------------------------------
    def metrics(self, counts: dict, wall_s: float, untraced_wall_s: float
                ) -> dict[str, float]:
        """The per-layer metrics of this pass (see README.md)."""
        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.virt_ms"] = self.virt_ms[layer]
        # The driver's calls are the timed public calls themselves.
        out["driver.calls"] = counts["calls"]
        out["frontdoor.recomputes_per_copy"] = ratio(
            self.methods.get("ReplicaServer.next_departure_ms", 0),
            counts["copies"])
        out["sim.events_per_request"] = ratio(self.events, counts["requests"])
        out["xenstore.calls_per_clone"] = ratio(self.calls["xenstore"],
                                                counts["clones"])
        out["obs.spans_per_op"] = ratio(
            self.methods.get("Tracer.span", 0)
            + self.methods.get("Tracer.event", 0), counts["ops"])
        out["gc.gen2_collections"] = self.gen2_collections
        out["trace_overhead"] = ratio(wall_s, untraced_wall_s)
        return out
