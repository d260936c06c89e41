"""Unit tests: the xs_clone request and the deep-copy ablation."""

import pytest

from repro.xenstore.client import XsHandle
from repro.xenstore.clone import XsCloneOp, xs_clone
from repro.xenstore.store import XenstoreDaemon, XenstoreError


@pytest.fixture
def daemon(clock, costs):
    d = XenstoreDaemon(clock, costs)
    # A parent vif backend directory, as written at boot for domid 5.
    base = "/local/domain/0/backend/vif/5/0"
    d.write_node(f"{base}/frontend", "/local/domain/5/device/vif/0")
    d.write_node(f"{base}/frontend-id", "5")
    d.write_node(f"{base}/mac", "00:16:3e:00:05:00")
    d.write_node(f"{base}/state", "4")
    d.write_node(f"{base}/online", "1")
    return d


def test_clone_copies_subtree(daemon):
    created = xs_clone(daemon, 5, 9, XsCloneOp.DEV_VIF,
                       "/local/domain/0/backend/vif/5",
                       "/local/domain/0/backend/vif/9")
    assert created == 7  # the dir + index dir + 5 leaves
    base = "/local/domain/0/backend/vif/9/0"
    assert daemon.read_node(f"{base}/mac") == "00:16:3e:00:05:00"


def test_clone_rewrites_domid_references(daemon):
    xs_clone(daemon, 5, 9, XsCloneOp.DEV_VIF,
             "/local/domain/0/backend/vif/5",
             "/local/domain/0/backend/vif/9")
    base = "/local/domain/0/backend/vif/9/0"
    assert daemon.read_node(f"{base}/frontend-id") == "9"
    assert daemon.read_node(f"{base}/frontend") == "/local/domain/9/device/vif/0"


def test_clone_preserves_state_value_even_if_it_equals_domid(clock, costs):
    """A state node of '4' must survive cloning a parent whose domid is 4."""
    daemon = XenstoreDaemon(clock, costs)
    base = "/local/domain/0/backend/vif/4/0"
    daemon.write_node(f"{base}/state", "4")
    daemon.write_node(f"{base}/frontend-id", "4")
    xs_clone(daemon, 4, 9, XsCloneOp.DEV_VIF,
             "/local/domain/0/backend/vif/4",
             "/local/domain/0/backend/vif/9")
    cloned = "/local/domain/0/backend/vif/9/0"
    assert daemon.read_node(f"{cloned}/state") == "4"
    assert daemon.read_node(f"{cloned}/frontend-id") == "9"


def test_basic_op_does_not_rewrite(daemon):
    xs_clone(daemon, 5, 9, XsCloneOp.BASIC,
             "/local/domain/0/backend/vif/5",
             "/local/domain/0/backend/vif/9")
    base = "/local/domain/0/backend/vif/9/0"
    assert daemon.read_node(f"{base}/frontend-id") == "5"


def test_clone_missing_source_raises(daemon):
    with pytest.raises(XenstoreError):
        xs_clone(daemon, 5, 9, XsCloneOp.DEV_VIF, "/nope", "/other")


def test_clone_existing_destination_raises(daemon):
    with pytest.raises(XenstoreError):
        xs_clone(daemon, 5, 9, XsCloneOp.DEV_VIF,
                 "/local/domain/0/backend/vif/5",
                 "/local/domain/0/backend/vif/5")


def test_clone_fires_one_watch(daemon):
    fired = []
    daemon.add_watch("/local/domain/0/backend/vif", "t",
                     lambda p, t: fired.append(p))
    xs_clone(daemon, 5, 9, XsCloneOp.DEV_VIF,
             "/local/domain/0/backend/vif/5",
             "/local/domain/0/backend/vif/9")
    assert fired == ["/local/domain/0/backend/vif/9"]


def test_xs_clone_is_one_request_deep_copy_is_many(daemon):
    handle = XsHandle(daemon)
    r0 = daemon.stats["requests"]
    handle.clone(5, 9, XsCloneOp.DEV_VIF,
                 "/local/domain/0/backend/vif/5",
                 "/local/domain/0/backend/vif/9")
    xs_requests = daemon.stats["requests"] - r0

    r0 = daemon.stats["requests"]
    handle.deep_copy(5, 11, "/local/domain/0/backend/vif/5",
                     "/local/domain/0/backend/vif/11")
    deep_requests = daemon.stats["requests"] - r0
    assert xs_requests == 1
    assert deep_requests >= 7  # one write per node + the read


def test_deep_copy_rewrites_like_xs_clone(daemon):
    handle = XsHandle(daemon)
    handle.deep_copy(5, 11, "/local/domain/0/backend/vif/5",
                     "/local/domain/0/backend/vif/11")
    base = "/local/domain/0/backend/vif/11/0"
    assert daemon.read_node(f"{base}/frontend-id") == "11"
    assert daemon.read_node(f"{base}/state") == "4"


def test_xs_clone_faster_than_deep_copy(clock, costs):
    """The whole point of Fig 4's two clone series."""
    daemon = XenstoreDaemon(clock, costs)
    for i in range(40):
        daemon.write_node(f"/local/domain/0/backend/vif/5/0/k{i}", str(i))
    handle = XsHandle(daemon)
    t0 = clock.now
    handle.clone(5, 9, XsCloneOp.DEV_VIF,
                 "/local/domain/0/backend/vif/5",
                 "/local/domain/0/backend/vif/9")
    xs_cost = clock.now - t0
    t0 = clock.now
    handle.deep_copy(5, 11, "/local/domain/0/backend/vif/5",
                     "/local/domain/0/backend/vif/11")
    deep_cost = clock.now - t0
    assert deep_cost > 3 * xs_cost


def test_a_new_rewrite_site_in_the_source_reaches_later_clones(clock, costs):
    """The source of a device clone may be written after it was cloned:
    a value that now names the parent is rewritten in the next clone,
    as a deep copy would rewrite it."""
    daemon = XenstoreDaemon(clock, costs)
    vif = "/local/domain/5/device/vif"
    daemon.write_node(f"{vif}/0/backend", "/local/domain/0/backend/vif/5/0")
    daemon.write_node(f"{vif}/0/backend-id", "0")
    xs_clone(daemon, 5, 9, XsCloneOp.DEV_VIF, vif,
             "/local/domain/9/device/vif")
    daemon.write_node(f"{vif}/0/backend-id", "5")
    xs_clone(daemon, 5, 10, XsCloneOp.DEV_VIF, vif,
             "/local/domain/10/device/vif")
    assert daemon.read_node("/local/domain/9/device/vif/0/backend-id") == "0"
    assert daemon.read_node("/local/domain/10/device/vif/0/backend-id") == "10"
    assert daemon.read_node("/local/domain/10/device/vif/0/backend") == \
        "/local/domain/0/backend/vif/10/0"
