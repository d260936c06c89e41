"""Placement policies: determinism, rotation phase, load order."""

from __future__ import annotations

import pytest

from repro.fleet import (
    Fleet,
    FleetConfig,
    LeastLoadedPolicy,
    PlacementError,
    RoundRobinPolicy,
    make_policy,
)
from repro.sim.units import MIB
from repro.toolstack.config import DomainConfig, VifConfig


def small_fleet(hosts: int = 3, policy: str = "round-robin") -> Fleet:
    return Fleet(FleetConfig(hosts=hosts, policy=policy,
                             host_memory_bytes=96 * MIB,
                             host_dom0_bytes=32 * MIB))


def fam(i: int) -> DomainConfig:
    return DomainConfig(name=f"fam{i}", memory_mb=4,
                        vifs=[VifConfig(ip=f"10.9.{i + 1}.1")],
                        max_clones=64)


def test_make_policy_rejects_unknown_names():
    with pytest.raises(PlacementError):
        make_policy("random")


def test_policies_reject_empty_candidate_sets():
    for policy in (RoundRobinPolicy(), LeastLoadedPolicy()):
        with pytest.raises(PlacementError):
            policy.choose([])


def test_round_robin_rotates_family_origins():
    fleet = small_fleet(hosts=3)
    origins = [fleet.create_family(fam(i)).host for i in range(3)]
    assert origins == ["host0", "host1", "host2"]


def test_round_robin_reset_rewinds_the_cursor():
    policy = RoundRobinPolicy()
    fleet = small_fleet(hosts=2)
    first = policy.choose(fleet.hosts)
    policy.reset()
    assert policy.choose(fleet.hosts) is first


def test_least_loaded_prefers_the_emptiest_host():
    fleet = small_fleet(hosts=3, policy="least-loaded")
    # Load host0 by hand, then the next family must avoid it.
    host0 = fleet.create_family(fam(0)).host
    fleet.clone_family("fam0", count=4)
    next_host = fleet.create_family(fam(1)).host
    assert next_host != host0


def test_least_loaded_ties_break_on_lowest_index():
    fleet = small_fleet(hosts=3)
    policy = LeastLoadedPolicy()
    assert policy.choose(fleet.hosts).name == "host0"


def test_clones_stay_on_origin_while_it_has_capacity():
    fleet = small_fleet(hosts=3)
    origin = fleet.create_family(fam(0)).host
    result = fleet.clone_family("fam0", count=3)
    assert result.failed == 0
    assert {host for host, _ in result.placed} == {origin}
    assert fleet.stats["forwards"] == 0
