"""Unit tests: Xenstore transactions (the xs_transaction_t of Fig 2)."""

import pytest

from repro.xenstore.client import XsHandle
from repro.xenstore.clone import XsCloneOp
from repro.xenstore.store import XenstoreDaemon, XenstoreError
from repro.xenstore.transactions import TransactionConflict


@pytest.fixture
def daemon(clock, costs):
    return XenstoreDaemon(clock, costs)


@pytest.fixture
def handle(daemon):
    return XsHandle(daemon)


def test_commit_applies_writes(handle, daemon):
    tid = handle.transaction_start()
    handle.t_write(tid, "/a/b", "1")
    handle.t_write(tid, "/a/c", "2")
    assert not daemon.exists("/a/b")  # buffered, not applied
    handle.transaction_end(tid)
    assert daemon.read_node("/a/b") == "1"
    assert daemon.read_node("/a/c") == "2"


def test_abort_discards_writes(handle, daemon):
    tid = handle.transaction_start()
    handle.t_write(tid, "/a/b", "1")
    handle.transaction_end(tid, commit=False)
    assert not daemon.exists("/a/b")
    assert daemon.transactions.stats["aborts"] == 1


def test_read_your_writes(handle):
    tid = handle.transaction_start()
    handle.t_write(tid, "/a/b", "draft")
    assert handle.t_read(tid, "/a/b") == "draft"


def test_read_sees_committed_state(handle, daemon):
    daemon.write_node("/a/b", "old")
    tid = handle.transaction_start()
    assert handle.t_read(tid, "/a/b") == "old"


def test_remove_inside_transaction(handle, daemon):
    daemon.write_node("/a/b", "x")
    tid = handle.transaction_start()
    handle.t_rm(tid, "/a/b")
    with pytest.raises(XenstoreError):
        handle.t_read(tid, "/a/b")
    assert daemon.exists("/a/b")  # still there until commit
    handle.transaction_end(tid)
    assert not daemon.exists("/a/b")


def test_conflicting_write_aborts_with_eagain(handle, daemon):
    daemon.write_node("/a/b", "old")
    tid = handle.transaction_start()
    handle.t_read(tid, "/a/b")
    daemon.write_node("/a/b", "concurrent")  # racing mutation
    with pytest.raises(TransactionConflict):
        handle.transaction_end(tid)
    assert daemon.read_node("/a/b") == "concurrent"
    assert daemon.transactions.stats["conflicts"] == 1


def test_disjoint_transactions_do_not_conflict(handle, daemon):
    t1 = handle.transaction_start()
    t2 = handle.transaction_start()
    handle.t_write(t1, "/a/one", "1")
    handle.t_write(t2, "/b/two", "2")
    handle.transaction_end(t1)
    handle.transaction_end(t2)
    assert daemon.read_node("/a/one") == "1"
    assert daemon.read_node("/b/two") == "2"


def test_overlapping_transactions_conflict(handle, daemon):
    t1 = handle.transaction_start()
    t2 = handle.transaction_start()
    handle.t_write(t1, "/shared", "from-t1")
    handle.t_write(t2, "/shared", "from-t2")
    handle.transaction_end(t1)
    with pytest.raises(TransactionConflict):
        handle.transaction_end(t2)
    assert daemon.read_node("/shared") == "from-t1"


def test_closed_transaction_rejected(handle):
    tid = handle.transaction_start()
    handle.transaction_end(tid)
    with pytest.raises(XenstoreError):
        handle.t_write(tid, "/x", "1")
    with pytest.raises(XenstoreError):
        handle.transaction_end(tid)


def test_retry_after_conflict_succeeds(handle, daemon):
    daemon.write_node("/counter", "0")
    tid = handle.transaction_start()
    value = int(handle.t_read(tid, "/counter"))
    daemon.write_node("/counter", "5")  # race
    handle.t_write(tid, "/counter", str(value + 1))
    with pytest.raises(TransactionConflict):
        handle.transaction_end(tid)
    # Client retry loop, as with real oxenstored.
    tid = handle.transaction_start()
    value = int(handle.t_read(tid, "/counter"))
    handle.t_write(tid, "/counter", str(value + 1))
    handle.transaction_end(tid)
    assert daemon.read_node("/counter") == "6"


def test_transactional_xs_clone(handle, daemon):
    base = "/local/domain/0/backend/vif/5/0"
    daemon.write_node(f"{base}/frontend-id", "5")
    daemon.write_node(f"{base}/state", "4")
    tid = handle.transaction_start()
    created = handle.clone(5, 9, XsCloneOp.DEV_VIF,
                           "/local/domain/0/backend/vif/5",
                           "/local/domain/0/backend/vif/9", tid=tid)
    assert created >= 3
    assert not daemon.exists("/local/domain/0/backend/vif/9")
    handle.transaction_end(tid)
    cloned = "/local/domain/0/backend/vif/9/0"
    assert daemon.read_node(f"{cloned}/frontend-id") == "9"
    assert daemon.read_node(f"{cloned}/state") == "4"


@pytest.mark.parametrize("overlaid", [False, True],
                         ids=["directory", "overlaid-directory"])
@pytest.mark.parametrize("op", list(XsCloneOp), ids=lambda op: op.name)
def test_committed_transactional_xs_clone_matches_an_immediate_one(
        clock, costs, op, overlaid):
    """A transactional xs_clone, once committed, leaves what an
    immediate one grafts: the same tree under the clone and the same
    node count, rewrites included. The source holds a device whose
    index equals the cloning parent's domid, which the rewrite must
    leave alone; the overlaid case clones a clone's directory, so two
    rewrites compose."""
    base = "/local/domain/0/backend/vif"
    results = []
    for transactional in (False, True):
        daemon = XenstoreDaemon(clock, costs)
        handle = XsHandle(daemon)
        for index in ("0", "5", "7"):
            device = f"{base}/5/{index}"
            daemon.write_node(f"{device}/frontend-id", "5")
            daemon.write_node(f"{device}/frontend",
                              f"/local/domain/5/device/vif/{index}")
            daemon.write_node(f"{device}/state", "4")
        parent = 5
        if overlaid:
            handle.clone(5, 7, XsCloneOp.DEV_VIF, f"{base}/5", f"{base}/7")
            parent = 7
        source, dest = f"{base}/{parent}", f"{base}/9"
        if transactional:
            tid = handle.transaction_start()
            created = handle.clone(parent, 9, op, source, dest, tid=tid)
            assert not daemon.exists(dest)
            handle.transaction_end(tid)
        else:
            created = handle.clone(parent, 9, op, source, dest)
        results.append((created, daemon.walk(dest), daemon.node_count))
    assert results[0] == results[1]
    walked = dict(results[0][1])
    if op is not XsCloneOp.BASIC:
        assert walked[f"{base}/9/{parent}/frontend-id"] == "9"
        assert (walked[f"{base}/9/{parent}/frontend"]
                == f"/local/domain/9/device/vif/{parent}")


def test_transactional_xs_clone_leaves_the_source_unshared(handle, daemon):
    """A transactional xs_clone grafts nothing: it reads the source
    through the rewrite, so the parent's device directories stay
    private and its next write below them copies nothing."""
    base = "/local/domain/0/backend/vif/5"
    for index in ("0", "1"):
        daemon.write_node(f"{base}/{index}/frontend-id", "5")
        daemon.write_node(f"{base}/{index}/state", "4")
    source = daemon._lookup(base)
    devices = [source.children[index] for index in ("0", "1")]
    tid = handle.transaction_start()
    handle.clone(5, 9, XsCloneOp.DEV_VIF, base,
                 "/local/domain/0/backend/vif/9", tid=tid)
    handle.transaction_end(tid)
    assert [source.shared, *(device.shared for device in devices)] == [
        False, False, False]
    daemon.write_node(f"{base}/0/state", "5")
    assert daemon._lookup(base) is source
    assert source.children["0"] is devices[0]
    assert daemon.read_node("/local/domain/0/backend/vif/9/0/state") == "4"


def test_open_count(daemon, handle):
    t1 = handle.transaction_start()
    assert daemon.transactions.open_count == 1
    handle.transaction_end(t1)
    assert daemon.transactions.open_count == 0
