"""Unit tests: OVS select groups."""

import pytest

from repro.net.ovs import OvsGroup, sticky_selector
from repro.net.packets import Flow, Packet, Port


def port(name: str) -> Port:
    return Port(name, "00:16:3e:00:00:10", lambda p: None)


def flow(src_port: int) -> Flow:
    return Flow("10.0.0.1", "10.0.1.1", src_port, 80)


def test_empty_group_fails():
    with pytest.raises(RuntimeError):
        OvsGroup().select_bucket(flow(1))


def test_hash_selection_is_stable():
    group = OvsGroup()
    for i in range(4):
        group.add_bucket(port(f"vif{i}"))
    f = flow(777)
    assert group.select_bucket(f) is group.select_bucket(f)


def test_forward_counts_per_bucket():
    group = OvsGroup()
    for i in range(2):
        group.add_bucket(port(f"vif{i}"))
    for p in range(100):
        group.forward(Packet("m", "ff", flow(p)))
    assert sum(group.tx_per_bucket.values()) == 100


def test_remove_bucket_drops_its_flows():
    group = OvsGroup()
    a, b = port("a"), port("b")
    group.add_bucket(a)
    group.add_bucket(b)
    group.pin_flow(flow(1), a)
    group.remove_bucket(a)
    assert group.flow_table == {}
    assert group.select_bucket(flow(1)) is b


def test_sticky_selector_keeps_flows_on_growth():
    """The stateful extension the paper motivates: more information than
    a plain hash when selecting clone interfaces."""
    group = OvsGroup()
    group.selector = sticky_selector(group)
    a = port("a")
    group.add_bucket(a)
    f = flow(1234)
    assert group.select_bucket(f) is a
    group.add_bucket(port("b"))
    # A plain hash might move the flow; the sticky selector must not.
    assert group.select_bucket(f) is a


def test_sticky_selector_spreads_new_flows():
    group = OvsGroup()
    group.selector = sticky_selector(group)
    group.add_bucket(port("a"))
    group.add_bucket(port("b"))
    names = {group.select_bucket(flow(p)).name for p in range(200)}
    assert names == {"a", "b"}


def test_remove_bucket_drops_its_counter():
    group = OvsGroup()
    a, b = port("a"), port("b")
    group.add_bucket(a)
    group.add_bucket(b)
    for p in range(50):
        group.forward(Packet("m", "ff", flow(p)))
    group.remove_bucket(a)
    assert set(group.tx_per_bucket) == {"b"}
