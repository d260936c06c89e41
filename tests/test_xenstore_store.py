"""Unit tests: Xenstore daemon (tree, watches, accounting)."""

import pytest

from repro.sim import VirtualClock
from repro.xenstore.store import XenstoreDaemon, XenstoreError


@pytest.fixture
def daemon(clock, costs):
    return XenstoreDaemon(clock, costs)


def test_write_read(daemon):
    daemon.write_node("/local/domain/1/name", "guest")
    assert daemon.read_node("/local/domain/1/name") == "guest"


def test_read_missing_raises(daemon):
    with pytest.raises(XenstoreError):
        daemon.read_node("/nope")


def test_relative_path_rejected(daemon):
    with pytest.raises(XenstoreError):
        daemon.write_node("relative/path", "x")


def test_intermediate_nodes_created(daemon):
    daemon.write_node("/a/b/c", "x")
    assert daemon.exists("/a")
    assert daemon.exists("/a/b")
    assert daemon.node_count == 3


def test_directory_listing(daemon):
    daemon.write_node("/d/b", "1")
    daemon.write_node("/d/a", "2")
    assert daemon.directory("/d") == ["a", "b"]


def test_remove_subtree(daemon):
    daemon.write_node("/d/a/x", "1")
    daemon.write_node("/d/a/y", "2")
    daemon.write_node("/d/b", "3")
    removed = daemon.remove_node("/d/a")
    assert removed == 3
    assert not daemon.exists("/d/a")
    assert daemon.exists("/d/b")
    assert daemon.node_count == 2


def test_remove_missing_raises(daemon):
    with pytest.raises(XenstoreError):
        daemon.remove_node("/ghost")


def test_node_count_tracks(daemon):
    daemon.write_node("/a/b", "x")
    n = daemon.node_count
    daemon.write_node("/a/b", "y")  # overwrite: no new node
    assert daemon.node_count == n


def test_walk(daemon):
    daemon.write_node("/dev/vif/0/mac", "aa")
    daemon.write_node("/dev/vif/0/state", "1")
    entries = dict(daemon.walk("/dev/vif"))
    assert entries["/dev/vif/0/mac"] == "aa"
    assert "/dev/vif" in entries


def test_watch_fires_on_write(daemon):
    fired = []
    daemon.add_watch("/local/domain/0/backend",
                     "tok", lambda p, t: fired.append((p, t)))
    daemon.write_node("/local/domain/0/backend/vif/1/0/state", "1")
    assert fired == [("/local/domain/0/backend/vif/1/0/state", "tok")]


def test_watch_exact_path_fires(daemon):
    fired = []
    daemon.add_watch("/a/b", "t", lambda p, t: fired.append(p))
    daemon.write_node("/a/b", "x")
    assert fired == ["/a/b"]


def test_watch_does_not_fire_for_siblings(daemon):
    fired = []
    daemon.add_watch("/a/b", "t", lambda p, t: fired.append(p))
    daemon.write_node("/a/bc", "x")  # prefix string but not path prefix
    assert fired == []


def test_watch_removal(daemon):
    fired = []
    watch_id = daemon.add_watch("/a", "t", lambda p, t: fired.append(p))
    daemon.remove_watch(watch_id)
    daemon.write_node("/a/x", "1")
    assert fired == []


def test_watch_fires_on_remove(daemon):
    fired = []
    daemon.write_node("/a/x", "1")
    daemon.add_watch("/a", "t", lambda p, t: fired.append(p))
    daemon.remove_node("/a/x")
    assert fired == ["/a/x"]


def test_request_cost_grows_with_store_size(costs):
    clock = VirtualClock()
    daemon = XenstoreDaemon(clock, costs)
    daemon.charge_request()
    small = clock.now
    for i in range(10_000):
        daemon.write_node(f"/bulk/{i}", "x")
    before = clock.now
    daemon.charge_request()
    assert clock.now - before > small


def test_introduce_and_release(daemon):
    daemon.introduce_domain(5, parent_domid=None)
    daemon.introduce_domain(7, parent_domid=5)
    assert daemon.introduced[7] == 5
    with pytest.raises(XenstoreError):
        daemon.introduce_domain(5)
    daemon.release_domain(5)
    daemon.introduce_domain(5)


def test_resident_bytes_scale_with_nodes(daemon, costs):
    daemon.write_node("/a/b/c", "x")
    assert daemon.resident_bytes() == 3 * costs.xs_node_resident_bytes


# ----------------------------------------------------------------------
# incremental subtree node counts
# ----------------------------------------------------------------------
def assert_counts_consistent(daemon):
    """Every node's incremental ``count`` matches a from-scratch recount
    (a leaf is its value string and counts 1)."""
    def check(node):
        if isinstance(node, str):
            return
        assert node.count == daemon._count_subtree(node)
        for child in node.children.values():
            check(child)
    check(daemon.root)
    assert daemon.root.count == daemon.node_count + 1  # root not counted


def test_node_counts_track_writes(daemon):
    daemon.write_node("/a/b/c", "1")
    daemon.write_node("/a/b/d", "2")
    daemon.write_node("/a/e", "3")
    assert daemon.subtree_nodes("/a") == 5
    assert daemon.subtree_nodes("/a/b") == 3
    assert daemon.node_count == 5
    assert_counts_consistent(daemon)


def test_node_counts_track_removes(daemon):
    daemon.write_node("/a/b/c", "1")
    daemon.write_node("/a/b/d", "2")
    daemon.write_node("/a/e", "3")
    removed = daemon.remove_node("/a/b")
    assert removed == 3
    assert daemon.subtree_nodes("/a") == 2
    assert daemon.node_count == 2
    assert_counts_consistent(daemon)


def test_node_counts_track_graft(daemon):
    from repro.xenstore.store import Node

    daemon.write_node("/local/domain/1/name", "parent")
    subtree = Node("", {"name": "clone"}, count=2)
    added = daemon.graft("/local/domain/2", subtree)
    assert added == 2
    assert daemon.subtree_nodes("/local/domain/2") == 2
    assert daemon.subtree_nodes("/local") == 6
    assert_counts_consistent(daemon)


def test_graft_refuses_existing_path(daemon):
    from repro.xenstore.store import Node

    daemon.write_node("/a/b", "x")
    with pytest.raises(XenstoreError):
        daemon.graft("/a/b", Node("y"))


def test_node_counts_consistent_after_xs_clone(platform):
    """The bulk-copy path (xs_clone grafting a prebuilt subtree) keeps
    the incremental counts exact."""
    from repro.toolstack.config import DomainConfig, VifConfig
    from repro.apps.udp_server import UdpServerApp

    domain = platform.xl.create(
        DomainConfig(name="xsclone", memory_mb=4,
                     vifs=[VifConfig(ip="10.0.3.1")], max_clones=4),
        app=UdpServerApp())
    platform.cloneop.clone(domain.domid, count=2)
    daemon = platform.xenstore
    assert_counts_consistent(daemon)
