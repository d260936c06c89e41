"""The packed span ring against a list-of-records reference, and a
golden trace export.

``SpanRing`` keeps each finished span as a packed record and builds a
``Span`` only when it is read. A hypothesis test drives it and a plain
list of ``Span`` records through the same random pushes and clears and
requires every read to agree after every step. A small traced session
whose ring overflows must export the JSON pinned when the ring still
held ``Span`` objects, byte for byte.
"""

from __future__ import annotations

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NepheleSession
from repro.apps.udp_server import UdpServerApp
from repro.obs import Span, SpanRing

#: sha256 of the sorted-key JSON of :func:`_golden_export`.
GOLDEN_EXPORT = (
    "aacf70c2bdf9242526659c74ce72c29579b3489f8e61b857cdac319ef6334954")


class RefRing:
    """The reference: finished spans in a list, the oldest dropped."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.spans: list[Span] = []
        self.pushed = 0

    def push(self, span: Span) -> None:
        self.spans.append(span)
        del self.spans[:-self.capacity]
        self.pushed += 1

    def clear(self) -> None:
        self.spans = []
        self.pushed = 0


KINDS = ("clone.op", "xl.destroy", "tick")

_values = st.one_of(st.integers(), st.text(max_size=3), st.booleans(),
                    st.none(), st.floats(allow_nan=False))
_spans = st.builds(
    Span,
    kind=st.sampled_from(KINDS),
    start_ms=st.floats(allow_nan=False),
    span_id=st.integers(1, 2**63 - 1),
    parent_id=st.none() | st.integers(1, 2**63 - 1),
    depth=st.integers(0, 64),
    end_ms=st.floats(allow_nan=False),
    children_ms=st.floats(allow_nan=False),
    attrs=st.dictionaries(st.sampled_from(("op", "domid", "parent", "child")),
                          _values, max_size=4),
)
_ops = st.lists(st.one_of(_spans, st.just("clear")), max_size=40)


def _assert_reads_agree(ring: SpanRing, ref: RefRing) -> None:
    stored = list(ring)
    assert stored == ref.spans
    # Dict equality ignores order; a rebuilt record keeps it too.
    assert [list(span.attrs.items()) for span in stored] == [
        list(span.attrs.items()) for span in ref.spans]
    assert len(ring) == len(ref.spans)
    assert ring.pushed == ref.pushed
    assert ring.evicted == ref.pushed - len(ref.spans)
    assert ring.kinds() == {span.kind for span in ref.spans}
    for kind in KINDS:
        assert ring.by_kind(kind) == [
            span for span in ref.spans if span.kind == kind]


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 8), ops=_ops)
def test_ring_matches_list_reference(capacity, ops):
    ring, ref = SpanRing(capacity), RefRing(capacity)
    for op in ops:
        if op == "clear":
            ring.clear()
            ref.clear()
        else:
            ring.push(op)
            ref.push(op)
        _assert_reads_agree(ring, ref)


def _golden_export() -> dict:
    """Boot, clone 4 inside a user span, COW-write, cold-boot, destroy,
    with events with and without attrs and a ``span.set``: 101 spans
    through a 64-span ring."""
    with NepheleSession(seed=0xC10E, trace_capacity=64) as session:
        tracer = session.tracer
        parent = session.boot("p", ip="10.0.1.1", max_clones=16,
                              app=UdpServerApp())
        tracer.event("golden.mark")
        with tracer.span("golden.block", step=1) as span:
            children = session.clone(parent, count=4)
            tracer.event("golden.note", children=len(children))
            span.set(cloned=len(children), parent="p")
        for domid in children:
            memory = session.domain(domid).memory
            memory.write_range(memory.segments[0].pfn_start, 2)
        cold = session.boot("cold", memory_mb=8, ip="10.0.1.2",
                            app=UdpServerApp())
        for domid in [*children, cold.domid]:
            session.destroy(domid)
        tracer.event("golden.end")
        return session.trace_export()


def test_small_ring_export_is_golden():
    export = _golden_export()
    assert export["meta"]["spans_recorded"] == 64
    assert export["meta"]["spans_evicted"] == 37
    assert any(span["attrs"] == {} for span in export["spans"])
    payload = json.dumps(export, sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == GOLDEN_EXPORT
