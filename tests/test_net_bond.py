"""Unit tests: Linux bond (balance-xor, layer3+4)."""

import pytest

from repro.net.bond import BondInterface, layer34_hash
from repro.net.packets import Flow, Packet, Port


def make_port(name: str, received: list) -> Port:
    return Port(name, "00:16:3e:00:00:10", received.append)


def flow(src_port: int, dst_port: int = 9000) -> Flow:
    return Flow("10.0.0.1", "10.0.1.1", src_port, dst_port)


def test_hash_is_deterministic():
    f = flow(12345)
    assert layer34_hash(f) == layer34_hash(f)


def test_hash_depends_on_ports():
    values = {layer34_hash(flow(p)) % 4 for p in range(1000, 1100)}
    assert len(values) > 1


def test_forward_without_slaves_fails():
    bond = BondInterface()
    with pytest.raises(RuntimeError):
        bond.select_slave(flow(1))


def test_same_flow_same_slave():
    bond = BondInterface()
    rx = [[] for _ in range(4)]
    for i in range(4):
        bond.enslave(make_port(f"vif{i}", rx[i]))
    f = flow(5555)
    first = bond.select_slave(f)
    for _ in range(10):
        assert bond.select_slave(f) is first


def test_distribution_roughly_uniform():
    bond = BondInterface()
    rx = [[] for _ in range(4)]
    for i in range(4):
        bond.enslave(make_port(f"vif{i}", rx[i]))
    for src_port in range(40000, 42000):
        packet = Packet("m", "ff", flow(src_port), size=64)
        bond.forward(packet)
    counts = list(bond.distribution().values())
    assert sum(counts) == 2000
    assert min(counts) > 2000 / 4 * 0.6  # no starved slave


def test_unique_dst_ports_can_address_each_slave():
    """Paper §6.1: a unique port per clone avoids two <address, port>
    tuples mapping to the same slave."""
    bond = BondInterface()
    for i in range(4):
        bond.enslave(make_port(f"vif{i}", []))
    reachable = set()
    for dst_port in range(10000, 10200):
        reachable.add(bond.select_slave(flow(40000, dst_port)).name)
        if len(reachable) == 4:
            break
    assert len(reachable) == 4


def test_release_removes_slave():
    bond = BondInterface()
    port = make_port("vif0", [])
    bond.enslave(port)
    bond.enslave(make_port("vif1", []))
    bond.release(port)
    assert all(bond.select_slave(flow(p)).name == "vif1"
               for p in range(100, 120))


def test_forward_delivers_to_selected_slave():
    bond = BondInterface()
    rx0, rx1 = [], []
    bond.enslave(make_port("vif0", rx0))
    bond.enslave(make_port("vif1", rx1))
    packet = Packet("m", "ff", flow(4242), size=64)
    bond.forward(packet)
    assert len(rx0) + len(rx1) == 1


def test_release_drops_the_slave_counter():
    bond = BondInterface()
    port = make_port("vif0", [])
    bond.enslave(port)
    bond.enslave(make_port("vif1", []))
    for src_port in range(100):
        bond.forward(Packet("m", "ff", flow(src_port), size=64))
    bond.release(port)
    assert set(bond.distribution()) == {"vif1"}


def test_clone_churn_keeps_the_family_bond_counters_bounded(platform):
    """Destroyed clones leave no counter behind in their family bond."""
    from repro.apps.udp_server import UdpServerApp
    from tests.conftest import udp_config

    parent = platform.xl.create(udp_config("p", max_clones=1000),
                                app=UdpServerApp())
    for _ in range(5):
        for child in platform.cloneop.clone(parent.domid, count=4):
            platform.xl.destroy(child)
    bond = platform.dom0.family_bond("10.0.1.1")
    assert set(bond.distribution()) == {f"vif{parent.domid}.0"}
