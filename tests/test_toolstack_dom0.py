"""Tests: Dom0 userspace — hotplug, host networking, memory accounting."""

from repro import DomainConfig, Platform, VifConfig
from repro.apps.udp_server import UdpServerApp
from repro.faults.chaos import audit_platform
from repro.net.bridge import Bridge
from tests.conftest import udp_config


def test_boot_vif_joins_configured_bridge(platform):
    config = DomainConfig(name="g", memory_mb=4, kernel="minios-udp",
                          vifs=[VifConfig(ip="10.0.7.1", bridge="xenbr1")])
    domain = platform.xl.create(config, app=UdpServerApp())
    assert "xenbr1" in platform.dom0.bridges
    backend = platform.dom0.netback.backends[(domain.domid, 0)]
    assert backend.switch is platform.dom0.bridges["xenbr1"]
    assert backend.port in platform.dom0.bridges["xenbr1"].ports


def test_udev_event_emitted_per_vif(platform):
    before = platform.dom0.udev.events_emitted
    platform.xl.create(udp_config("g"), app=UdpServerApp())
    assert platform.dom0.udev.events_emitted == before + 1


def test_udev_remove_event_on_destroy(platform):
    removed = []

    def handler(event):
        if event.action == "remove":
            removed.append(event.name)

    platform.dom0.udev.subscribe(handler)
    domain = platform.xl.create(udp_config("g"), app=UdpServerApp())
    platform.xl.destroy(domain.domid)
    assert removed == [f"vif{domain.domid}.0"]


def test_host_listener_bind_unbind(platform):
    got = []
    platform.dom0.listen(5555, got.append)
    platform.xl.create(udp_config("g"), app=UdpServerApp())
    domain_app = platform.hypervisor.get_domain(1).guest
    domain_app.api.udp_send("10.0.0.1", 5555, payload="x", src_port=1)
    assert len(got) == 1
    platform.dom0.unlisten(5555)
    domain_app.api.udp_send("10.0.0.1", 5555, payload="x", src_port=1)
    assert len(got) == 1


def test_host_ignores_foreign_destination(platform):
    got = []
    platform.dom0.listen(5555, got.append)
    platform.xl.create(udp_config("g"), app=UdpServerApp())
    api = platform.hypervisor.get_domain(1).guest.api
    api.udp_send("10.9.9.9", 5555, payload="x", src_port=1)
    assert got == []


def test_send_to_guest_via_bond_after_cloning(platform):
    parent = platform.xl.create(udp_config("p", max_clones=4),
                                app=UdpServerApp())
    platform.cloneop.clone(parent.domid)
    bond = platform.dom0.family_bond("10.0.1.1")
    sent_before = sum(bond.distribution().values())
    platform.dom0.send_to_guest("10.0.1.1", 9000, payload="hi")
    assert sum(bond.distribution().values()) == sent_before + 1


def test_parent_vif_detached_from_bridge_when_family_forms(platform):
    parent = platform.xl.create(udp_config("p", max_clones=4),
                                app=UdpServerApp())
    backend = platform.dom0.netback.backends[(parent.domid, 0)]
    bridge = platform.dom0.bridges["xenbr0"]
    assert backend.port in bridge.ports
    platform.cloneop.clone(parent.domid)
    assert backend.port not in bridge.ports  # moved to the bond
    assert isinstance(backend.switch, Bridge)  # outbound still via bridge


def test_audit_reports_a_port_left_on_a_bridge_after_its_guest(platform):
    domain = platform.xl.create(udp_config("g"), app=UdpServerApp())
    port = platform.dom0.netback.backends[(domain.domid, 0)]
    platform.xl.destroy(domain.domid)
    assert audit_platform(platform) == []
    # A vif release that forgot its bridge.
    platform.dom0.bridges["xenbr0"].attach(port)
    assert audit_platform(platform) == [
        f"bridge xenbr0 holds dead port {port.name}"]


def test_dom0_used_grows_with_guests_and_store(platform):
    used0 = platform.dom0.used_bytes()
    platform.xl.create(udp_config("a"), app=UdpServerApp())
    used1 = platform.dom0.used_bytes()
    assert used1 > used0
    platform.xl.create(udp_config("b", ip="10.0.1.2"), app=UdpServerApp())
    assert platform.dom0.used_bytes() > used1


def test_dom0_free_never_negative():
    platform = Platform.create(dom0_memory_bytes=700 * 1024 * 1024,
                               total_memory_bytes=4 * 2 ** 30)
    # Base services alone are 600 MB; a few guests push over the budget.
    for i in range(12):
        platform.xl.create(udp_config(f"g{i}", ip=f"10.0.1.{i + 1}"),
                           app=UdpServerApp())
    assert platform.free_dom0_bytes() >= 0


def test_p9_backend_process_per_boot_guest(platform):
    from repro.toolstack.config import P9Config

    configs = [
        DomainConfig(name=f"p9-{i}", memory_mb=8, kernel="unikraft-redis",
                     p9fs=[P9Config(tag="d", export_root=f"/srv/p9-{i}",
                                    mount_point="/")])
        for i in range(2)
    ]
    for config in configs:
        platform.xl.create(config)
    processes = {id(p) for p in platform.dom0.p9.processes.values()}
    # Boot path: one backend process per guest (paper §4).
    assert len(processes) == 2


def test_p9_shared_process_for_clones(platform):
    from repro.apps.redis import RedisApp, redis_unikernel_config

    domain = platform.xl.create(redis_unikernel_config("r"), app=RedisApp())
    domain.config.start_clones_paused = False
    child_id = platform.cloneop.clone(domain.domid)[0]
    assert platform.dom0.p9.processes[child_id] is \
        platform.dom0.p9.processes[domain.domid]


def test_console_daemon_tracks_and_forgets(platform):
    domain = platform.xl.create(udp_config("g"), app=UdpServerApp())
    assert domain.domid in platform.dom0.console_daemon.backends
    platform.xl.destroy(domain.domid)
    assert domain.domid not in platform.dom0.console_daemon.backends


def test_console_output_logged_to_dom0(platform):
    domain = platform.xl.create(udp_config("g"), app=UdpServerApp())
    api = domain.guest.api
    api.console("line one")
    api.console("line two!")
    log = platform.dom0.console_daemon.log_path(domain.domid)
    assert platform.dom0.hostfs.size(log) == len("line one") + 1 \
        + len("line two!") + 1


def test_clone_console_logged_separately(platform):
    parent = platform.xl.create(udp_config("p", max_clones=4),
                                app=UdpServerApp())
    parent.guest.api.console("parent says hi")
    child_id = platform.cloneop.clone(parent.domid)[0]
    child = platform.hypervisor.get_domain(child_id)
    child.guest.api.console("child says hi")
    daemon = platform.dom0.console_daemon
    # Separate log files; the parent's output was NOT duplicated into
    # the child's log (the ring is not copied, paper §4.2).
    assert platform.dom0.hostfs.size(daemon.log_path(parent.domid)) == \
        len("parent says hi") + 1
    assert platform.dom0.hostfs.size(daemon.log_path(child_id)) == \
        len("child says hi") + 1


def test_console_log_removed_on_destroy(platform):
    domain = platform.xl.create(udp_config("g"), app=UdpServerApp())
    log = platform.dom0.console_daemon.log_path(domain.domid)
    assert platform.dom0.hostfs.exists(log)
    platform.xl.destroy(domain.domid)
    assert not platform.dom0.hostfs.exists(log)
