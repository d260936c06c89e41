"""Transaction conflict records live only while a transaction is open.

A write at generation g can only conflict with a transaction that
started before g, so with no transaction open no record can ever fire:
the per-path and per-subtree generation maps stay empty, while
``generation`` keeps advancing.
"""

import pytest

from repro.xenstore.client import XsHandle
from repro.xenstore.clone import XsCloneOp
from repro.xenstore.store import XenstoreDaemon
from repro.xenstore.transactions import TransactionConflict


@pytest.fixture
def daemon(clock, costs):
    return XenstoreDaemon(clock, costs)


@pytest.fixture
def handle(daemon):
    return XsHandle(daemon)


def _records(daemon):
    manager = daemon.transactions
    return len(manager._path_generation) + len(manager._prefix_generation)


def test_no_records_without_an_open_transaction(daemon, handle):
    daemon.write_node("/local/domain/5/device/vif/0/state", "4")
    generation = daemon.transactions.generation
    handle.write("/a/b", "1")
    handle.clone(5, 6, XsCloneOp.DEV_VIF, "/local/domain/5/device/vif",
                 "/local/domain/6/device/vif")
    handle.rm("/a/b")
    assert daemon.transactions.generation > generation
    assert _records(daemon) == 0


def test_records_are_cleared_when_the_last_transaction_closes(daemon, handle):
    t1 = handle.transaction_start()
    t2 = handle.transaction_start()
    daemon.write_node("/x", "1")
    handle.transaction_end(t1)
    assert _records(daemon) == 1  # t2 may still conflict with /x
    handle.transaction_end(t2, commit=False)
    assert _records(daemon) == 0


def test_platform_churn_leaves_no_records(platform):
    from repro.apps.udp_server import UdpServerApp
    from tests.conftest import udp_config

    parent = platform.xl.create(udp_config("p", max_clones=100),
                                app=UdpServerApp())
    for _ in range(3):
        for child in platform.cloneop.clone(parent.domid, count=4):
            platform.xl.destroy(child)
    assert platform.xenstore.transactions.open_count == 0
    assert _records(platform.xenstore) == 0


def test_write_during_an_open_transaction_still_conflicts(daemon, handle):
    tid = handle.transaction_start()
    handle.t_write(tid, "/a", "mine")
    daemon.write_node("/a", "racing")
    with pytest.raises(TransactionConflict):
        handle.transaction_end(tid)


def test_write_before_the_transaction_opened_does_not_conflict(daemon,
                                                               handle):
    daemon.write_node("/a", "old")
    tid = handle.transaction_start()
    assert handle.t_read(tid, "/a") == "old"
    handle.t_write(tid, "/a", "new")
    handle.transaction_end(tid)
    assert daemon.read_node("/a") == "new"


def test_xs_clone_graft_under_the_footprint_conflicts(daemon, handle):
    """A bulk graft during the transaction is recorded once, at its
    root, and conflicts through the commit's prefix check."""
    daemon.write_node("/local/domain/5/device/vif/0/state", "4")
    tid = handle.transaction_start()
    handle.t_write(tid, "/local/domain/6/device/vif/0/state", "1")
    handle.clone(5, 6, XsCloneOp.DEV_VIF, "/local/domain/5/device/vif",
                 "/local/domain/6/device/vif")
    with pytest.raises(TransactionConflict):
        handle.transaction_end(tid)
