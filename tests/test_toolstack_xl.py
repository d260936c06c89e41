"""Unit tests: xl create/destroy/save/restore and Dom0."""

import pytest

from repro import Platform
from repro.apps.udp_server import UdpServerApp
from repro.faults.chaos import audit_platform
from repro.sim.units import MIB
from repro.toolstack.xl import ToolstackError
from repro.xen.domain import DomainState
from repro.xen.errors import XenNoMemoryError
from tests.conftest import udp_config


def test_create_boots_and_connects(platform):
    domain = platform.xl.create(udp_config("udp0"), app=UdpServerApp())
    assert domain.state is DomainState.RUNNING
    vif = domain.frontends["vif"][0]
    assert vif.backend is not None and vif.backend.connected
    assert platform.xenstore.exists(f"{domain.store_path}/name")
    assert platform.xenstore.read_node(f"{domain.store_path}/name") == "udp0"


def test_create_sends_ready_packet(platform):
    ready = []
    platform.dom0.listen(9999, lambda pkt: ready.append(pkt.payload))
    platform.xl.create(udp_config("udp0"), app=UdpServerApp())
    assert ready == [("ready", 1)]


def test_create_charges_realistic_boot_time(platform):
    t0 = platform.now
    platform.xl.create(udp_config("udp0"), app=UdpServerApp())
    boot_ms = platform.now - t0
    # Fig 4: first boot is ~160 ms on the paper's testbed.
    assert 120 <= boot_ms <= 220


def test_name_check_rejects_duplicates():
    platform = Platform.create(xl_check_names=True)
    platform.xl.create(udp_config("dup"))
    with pytest.raises(ToolstackError):
        platform.xl.create(udp_config("dup"))


def test_name_check_cost_grows_with_domains():
    platform = Platform.create(xl_check_names=True)
    costs = []
    for i in range(20):
        t0 = platform.now
        platform.xl.create(udp_config(f"g{i}", ip=f"10.0.1.{i + 1}"))
        costs.append(platform.now - t0)
    # The LightVM superlinear effect: later boots pay the name scan.
    assert costs[-1] > costs[0]


def test_destroy_releases_everything(platform):
    free0 = platform.free_hypervisor_bytes()
    domain = platform.xl.create(udp_config("udp0"), app=UdpServerApp())
    platform.xl.destroy(domain.domid)
    assert platform.free_hypervisor_bytes() == free0
    assert platform.guest_count() == 0
    # Only shared infrastructure directories may remain, and repeated
    # create/destroy cycles must not leak store nodes.
    steady = platform.xenstore.node_count
    domain = platform.xl.create(udp_config("udp0"), app=UdpServerApp())
    platform.xl.destroy(domain.domid)
    assert platform.xenstore.node_count == steady
    platform.check_invariants()


def test_destroy_removes_backends(platform):
    domain = platform.xl.create(udp_config("udp0"), app=UdpServerApp())
    domid = domain.domid
    platform.xl.destroy(domid)
    assert (domid, 0) not in platform.dom0.netback.backends
    assert domid not in platform.dom0.console_daemon.backends


def test_save_then_restore_roundtrip(platform):
    ready = []
    platform.dom0.listen(9999, lambda pkt: ready.append(pkt.payload))
    domain = platform.xl.create(udp_config("udp0"), app=UdpServerApp())
    image = platform.xl.save(domain.domid)
    assert platform.guest_count() == 0
    restored = platform.xl.restore(image)
    assert restored.state is DomainState.RUNNING
    assert restored.name == "udp0"
    vif = restored.frontends["vif"][0]
    assert vif.backend is not None and vif.backend.connected
    platform.check_invariants()


def test_restore_slower_than_boot(platform):
    domain = platform.xl.create(udp_config("udp0"), app=UdpServerApp())
    image = platform.xl.save(domain.domid)
    t0 = platform.now
    platform.xl.restore(image)
    restore_ms = platform.now - t0
    p2 = Platform.create()
    t0 = p2.now
    p2.xl.create(udp_config("udp0"), app=UdpServerApp())
    boot_ms = p2.now - t0
    # Fig 4: restore sits slightly above boot (full memory copy-back).
    assert restore_ms > boot_ms


def test_saved_clones_restore_under_their_own_names(platform):
    """A clone runs its parent's config, and ``xl save`` names the
    image's copy after the clone, so it writes one image per clone and
    ``xl restore`` brings each back under its own name, not a shared
    placeholder."""
    parent = platform.xl.create(udp_config("p", max_clones=4),
                                app=UdpServerApp())
    assert parent.domid == 1
    children = platform.cloneop.clone(parent.domid, count=2)
    for domid in children:
        domain = platform.hypervisor.get_domain(domid)
        assert domain.config is parent.config
    images = [platform.xl.save(domid) for domid in children]
    assert [image.path for image in images] == [
        f"/srv/images/p-c{domid}-{image.image_id}.img"
        for domid, image in zip(children, images)]
    restored = [platform.xl.restore(image) for image in images]
    assert sorted(domain.name for domain in restored) == ["p-c2", "p-c3"]
    assert sorted(name for _, name, _ in platform.xl.list_domains()) == [
        "p", "p-c2", "p-c3"]
    platform.check_invariants()


def test_restore_twice_from_one_image(platform):
    domain = platform.xl.create(udp_config("udp0"), app=UdpServerApp())
    image = platform.xl.save(domain.domid)
    a = platform.xl.restore(image, name="copy-a")
    b = platform.xl.restore(image, name="copy-b")
    assert a.name == "copy-a" and b.name == "copy-b"


def test_failed_restore_unwinds_like_a_failed_create():
    """A restore whose guest cannot be populated (the pool is full of
    other guests) is destroyed as a failed create is: the domain table,
    the free pool, /local/domain and the audit read as before."""
    platform = Platform.create(total_memory_bytes=128 * MIB,
                               dom0_memory_bytes=64 * MIB)
    hyp = platform.hypervisor
    free = hyp.frames.free_frames
    saved = platform.xl.create(udp_config("saved", memory_mb=16),
                               app=UdpServerApp())
    needed = free - hyp.frames.free_frames
    image = platform.xl.save(saved.domid)
    while hyp.frames.free_frames >= needed:
        index = len(hyp.domains) + 1
        platform.xl.create(udp_config(f"g{index}", ip=f"10.0.2.{index}"))

    def host_state():
        return (sorted(hyp.domains), hyp.frames.free_frames,
                platform.xenstore.directory("/local/domain"),
                audit_platform(platform))

    before = host_state()
    assert before[-1] == []
    with pytest.raises(XenNoMemoryError):
        platform.xl.restore(image)
    assert host_state() == before


def test_list_domains(platform):
    platform.xl.create(udp_config("a"))
    platform.xl.create(udp_config("b", ip="10.0.1.2"))
    listing = platform.xl.list_domains()
    assert [name for _, name, _ in listing] == ["a", "b"]


def test_xl_clone_from_dom0(platform):
    parent = platform.xl.create(udp_config("p", max_clones=4),
                                app=UdpServerApp())
    children = platform.xl.clone(parent.domid, count=2)
    assert len(children) == 2
    assert platform.guest_count() == 3


def test_dom0_memory_accounting(platform):
    free0 = platform.free_dom0_bytes()
    platform.xl.create(udp_config("udp0"), app=UdpServerApp())
    assert platform.free_dom0_bytes() < free0


def test_save_image_occupies_dom0_ramdisk(platform):
    domain = platform.xl.create(udp_config("udp0"), app=UdpServerApp())
    free0 = platform.dom0.hostfs.total_bytes
    image = platform.xl.save(domain.domid)
    assert platform.dom0.hostfs.size(image.path) == image.size_bytes
    assert platform.dom0.hostfs.total_bytes == free0 + image.size_bytes
    platform.xl.discard_image(image)
    assert platform.dom0.hostfs.total_bytes == free0


def test_discard_image_idempotent(platform):
    domain = platform.xl.create(udp_config("udp0"), app=UdpServerApp())
    image = platform.xl.save(domain.domid)
    platform.xl.discard_image(image)
    platform.xl.discard_image(image)  # no error
