"""Tests: guest exits (shutdown/crash) and the xl exit policies."""

import pytest

from repro.apps.udp_server import UdpServerApp
from repro.toolstack.config import ConfigError, DomainConfig
from tests.conftest import udp_config


def test_poweroff_destroys_by_default(platform):
    domain = platform.xl.create(udp_config("g"), app=UdpServerApp())
    free0 = platform.free_hypervisor_bytes()
    domain.guest.api.shutdown()
    assert platform.guest_count() == 0
    assert platform.free_hypervisor_bytes() > free0
    platform.check_invariants()


def test_crash_destroy_policy(platform):
    config = udp_config("g")
    config.on_crash = "destroy"
    domain = platform.xl.create(config, app=UdpServerApp())
    domain.guest.api.crash()
    assert platform.guest_count() == 0


def test_crash_restart_policy(platform):
    ready = []
    platform.dom0.listen(9999, lambda pkt: ready.append(pkt.payload))
    config = udp_config("phoenix")
    config.on_crash = "restart"
    domain = platform.xl.create(config, app=UdpServerApp())
    old_domid = domain.domid
    domain.guest.api.crash()
    # Restarted under the same name, with a fresh domid, and rebooted
    # (the app re-announced readiness).
    listing = platform.xl.list_domains()
    assert len(listing) == 1
    new_domid, name, state = listing[0]
    assert name == "phoenix"
    assert new_domid != old_domid
    assert state == "running"
    assert len(ready) == 2


def test_crash_preserve_policy(platform):
    config = udp_config("corpse")
    config.on_crash = "preserve"
    domain = platform.xl.create(config, app=UdpServerApp())
    domain.guest.api.crash()
    assert platform.guest_count() == 1
    assert domain.domid in platform.xl.preserved
    assert domain.state.value == "dying"
    # A preserved domain can still be destroyed explicitly.
    platform.xl.destroy(domain.domid)
    assert platform.guest_count() == 0


def test_poweroff_policy_independent_of_crash_policy(platform):
    config = udp_config("g")
    config.on_crash = "restart"
    config.on_poweroff = "destroy"
    domain = platform.xl.create(config, app=UdpServerApp())
    domain.guest.api.shutdown()
    assert platform.guest_count() == 0


def test_clone_inherits_exit_policies(platform):
    config = udp_config("p", max_clones=4)
    config.on_crash = "preserve"
    parent = platform.xl.create(config, app=UdpServerApp())
    child_id = platform.cloneop.clone(parent.domid)[0]
    child = platform.hypervisor.get_domain(child_id)
    assert child.config.on_crash == "preserve"
    child.guest.api.crash()
    assert child_id in platform.xl.preserved
    assert platform.guest_count() == 2


def test_crashed_clone_restarts_under_its_own_name(platform):
    """A clone runs its parent's config; the restart policy boots the
    clone's replacement under the clone's name, not the parent's."""
    config = udp_config("p", max_clones=4)
    config.on_crash = "restart"
    parent = platform.xl.create(config, app=UdpServerApp())
    child_id = platform.cloneop.clone(parent.domid)[0]
    platform.hypervisor.get_domain(child_id).guest.api.crash()
    listing = {name: (domid, state)
               for domid, name, state in platform.xl.list_domains()}
    assert sorted(listing) == ["p", "p-c2"]
    assert listing["p"] == (parent.domid, "running")
    new_domid, state = listing["p-c2"]
    assert new_domid not in (parent.domid, child_id)
    assert state == "running"
    assert platform.hypervisor.get_domain(new_domid).config.name == "p-c2"
    assert parent.config.name == "p"
    platform.check_invariants()


def test_invalid_policy_rejected():
    config = DomainConfig(name="x", on_crash="explode")
    with pytest.raises(ConfigError):
        config.validate()
