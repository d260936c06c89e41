"""Property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.net.bond import BondInterface, layer34_hash
from repro.net.packets import Flow, Port
from repro.sim.intervals import IntervalSet
from repro.xen.errors import XenError
from repro.xen.frames import FrameTable
from repro.xen.memory import GuestMemory
from repro.xenstore.clone import XsCloneOp, xs_clone
from repro.xenstore.store import XenstoreDaemon
from repro.sim import CostModel, VirtualClock


# ----------------------------------------------------------------------
# IntervalSet vs a reference set implementation
# ----------------------------------------------------------------------
@given(st.lists(st.tuples(st.integers(0, 2000), st.integers(0, 64)),
                max_size=60))
def test_intervalset_matches_reference(ops):
    iv = IntervalSet()
    reference: set[int] = set()
    for start, length in ops:
        added = iv.add(start, length)
        new = set(range(start, start + length)) - reference
        assert added == len(new)
        reference |= set(range(start, start + length))
    assert iv.count == len(reference)
    for start, end in iv:
        assert set(range(start, end)) <= reference
    covered = {x for start, end in iv for x in range(start, end)}
    assert covered == reference


@given(st.lists(st.tuples(st.integers(0, 500), st.integers(1, 32)),
                min_size=1, max_size=30),
       st.integers(0, 500), st.integers(0, 64))
def test_intervalset_overlap_matches_reference(ops, qstart, qlen):
    iv = IntervalSet()
    reference: set[int] = set()
    for start, length in ops:
        iv.add(start, length)
        reference |= set(range(start, start + length))
    expected = len(reference & set(range(qstart, qstart + qlen)))
    assert iv.overlap(qstart, qlen) == expected


@given(st.lists(st.tuples(st.integers(0, 2000), st.integers(1, 64)),
                max_size=40))
def test_intervalset_intervals_sorted_disjoint(ops):
    iv = IntervalSet()
    for start, length in ops:
        iv.add(start, length)
    pairs = list(iv)
    for (s1, e1), (s2, e2) in zip(pairs, pairs[1:]):
        assert e1 < s2  # disjoint AND non-adjacent (coalesced)
    assert all(s < e for s, e in pairs)


# ----------------------------------------------------------------------
# Frame conservation under random share/COW/destroy traffic
# ----------------------------------------------------------------------
class FrameMachine(RuleBasedStateMachine):
    """Random domains populate, share, write and die; frames conserve."""

    def __init__(self) -> None:
        super().__init__()
        self.frames = FrameTable(1 << 16)
        self.domains: dict[int, GuestMemory] = {}
        self.next_domid = 1

    @rule(npages=st.integers(1, 64))
    def create_domain(self, npages: int):
        if len(self.domains) >= 8:
            return
        domid = self.next_domid
        self.next_domid += 1
        memory = GuestMemory(domid, self.frames)
        try:
            memory.populate(npages)
        except XenError:
            return
        self.domains[domid] = memory

    @rule(data=st.data())
    def clone_memory(self, data):
        """Share one domain's memory into a fresh child, Nephele-style."""
        if not self.domains or len(self.domains) >= 8:
            return
        parent_id = data.draw(st.sampled_from(sorted(self.domains)))
        parent = self.domains[parent_id]
        child = GuestMemory(self.next_domid, self.frames)
        self.next_domid += 1
        for seg in parent.shareable_segments():
            if not seg.extent.shared:
                self.frames.share_to_cow(seg.extent)
            self.frames.add_sharer(seg.extent)
            child.adopt_segment(seg)
        self.domains[child.domid] = child

    @rule(data=st.data(), offset=st.integers(0, 63), count=st.integers(1, 16))
    def write(self, data, offset: int, count: int):
        if not self.domains:
            return
        domid = data.draw(st.sampled_from(sorted(self.domains)))
        memory = self.domains[domid]
        total = memory.total_pages
        if total == 0:
            return
        start = offset % total
        span = min(count, total - start)
        if span <= 0:
            return
        memory.write_range(start, span)

    @rule(data=st.data())
    def destroy(self, data):
        if not self.domains:
            return
        domid = data.draw(st.sampled_from(sorted(self.domains)))
        self.domains.pop(domid).release()

    @invariant()
    def frames_conserved(self):
        self.frames.check_invariants()

    @invariant()
    def mapped_pages_alive(self):
        for memory in self.domains.values():
            for seg in memory.segments:
                for i in range(seg.extent_offset,
                               seg.extent_offset + seg.npages):
                    assert not seg.extent.is_dead(i), \
                        f"domain {memory.domid} maps dead page"


TestFrameMachine = FrameMachine.TestCase
TestFrameMachine.settings = settings(max_examples=25,
                                     stateful_step_count=30,
                                     deadline=None)


# ----------------------------------------------------------------------
# Bond hashing
# ----------------------------------------------------------------------
@given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
def test_bond_hash_symmetric_in_ports(src_port, dst_port):
    """XOR of ports: the hash must not depend on flow direction."""
    f1 = Flow("10.0.0.1", "10.0.1.1", src_port, dst_port)
    f2 = Flow("10.0.0.1", "10.0.1.1", dst_port, src_port)
    assert layer34_hash(f1) == layer34_hash(f2)


@given(st.integers(1, 16), st.integers(0, 0xFFFF))
def test_bond_always_selects_a_valid_slave(slaves, src_port):
    bond = BondInterface()
    for i in range(slaves):
        bond.enslave(Port(f"vif{i}", "00:16:3e:00:00:10", lambda p: None))
    flow = Flow("10.0.0.1", "10.0.1.1", src_port, 80)
    assert bond.select_slave(flow) in bond.slaves


# ----------------------------------------------------------------------
# Xenstore clone equivalence
# ----------------------------------------------------------------------
_path_part = st.text(alphabet="abcdefgh", min_size=1, max_size=4)


@given(st.dictionaries(
    st.tuples(_path_part, _path_part),
    st.text(alphabet="xyz0123456789/", max_size=12),
    min_size=1, max_size=10))
@settings(max_examples=50, deadline=None)
def test_xs_clone_copies_every_node(entries):
    clock = VirtualClock()
    daemon = XenstoreDaemon(clock, CostModel())
    parent_root = "/local/domain/5/device/test"
    for (a, b), value in entries.items():
        daemon.write_node(f"{parent_root}/{a}/{b}", value)
    child_root = "/local/domain/9/device/test"
    created = xs_clone(daemon, 5, 9, XsCloneOp.BASIC, parent_root, child_root)
    parent_nodes = daemon.walk(parent_root)
    child_nodes = daemon.walk(child_root)
    assert created == len(parent_nodes)
    stripped_parent = {(p[len(parent_root):], v) for p, v in parent_nodes}
    stripped_child = {(p[len(child_root):], v) for p, v in child_nodes}
    assert stripped_parent == stripped_child


# ----------------------------------------------------------------------
# IDC pipes preserve the byte stream
# ----------------------------------------------------------------------
@given(st.lists(st.binary(min_size=0, max_size=300), max_size=20),
       st.lists(st.integers(1, 400), max_size=20))
@settings(max_examples=30, deadline=None)
def test_pipe_preserves_byte_stream(chunks, read_sizes):
    from repro import Platform
    from repro.apps.udp_server import UdpServerApp
    from repro.idc.pipe import Pipe
    from tests.conftest import udp_config

    platform = Platform.create()
    parent = platform.xl.create(udp_config("p", max_clones=2),
                                app=UdpServerApp())
    pipe = Pipe(platform.hypervisor, parent)
    child_id = platform.cloneop.clone(parent.domid)[0]
    child = platform.hypervisor.get_domain(child_id)
    write_end = pipe.write_end(parent)
    read_end = pipe.read_end(child)

    sent = bytearray()
    received = bytearray()
    reads = iter(read_sizes)
    for chunk in chunks:
        accepted = write_end.write(chunk)
        sent.extend(chunk[:accepted])
        try:
            received.extend(read_end.read(next(reads)))
        except StopIteration:
            pass
    received.extend(read_end.read())
    assert bytes(received) == bytes(sent)


# ----------------------------------------------------------------------
# Scheduler: shares on every core sum to at most 1
# ----------------------------------------------------------------------
@given(st.lists(st.tuples(st.integers(1, 4), st.booleans()),
                min_size=1, max_size=10),
       st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_scheduler_core_shares_sum_to_one(domain_specs, cpus):
    from repro.sim.units import GIB, MIB
    from repro.xen.domain import DomainState
    from repro.xen.hypervisor import Hypervisor
    from repro.xen.scheduler import CreditScheduler

    hyp = Hypervisor(guest_pool_bytes=1 * GIB, cpus=cpus)
    scheduler = CreditScheduler(cpus)
    for i, (vcpus, pinned) in enumerate(domain_specs):
        domain = hyp.create_domain(f"d{i}", 4 * MIB, vcpus=vcpus)
        domain.state = DomainState.RUNNING
        if pinned:
            for vcpu in domain.vcpus:
                vcpu.pin({i % cpus})
        scheduler.add_domain(domain)

    per_core: dict[int, float] = {c: 0.0 for c in range(cpus)}
    assignments = scheduler.place()
    for core, assignment in assignments.items():
        for entry in assignment.entries:
            per_core[core] += scheduler.cpu_share(entry.domain.domid,
                                                  entry.vcpu_index)
    for core, total in per_core.items():
        assert total <= 1.0 + 1e-9
    # Every runnable vCPU is placed exactly once.
    placed = sum(len(a.entries) for a in assignments.values())
    assert placed == scheduler.runnable_vcpus
