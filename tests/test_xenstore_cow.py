"""COW isolation tests for the structurally-shared Xenstore tree.

``xs_clone`` grafts the source subtree *by reference* and un-shares
lazily on the first write that touches a shared path. These tests pin
the user-visible contract of that optimization: clones behave exactly
as if the subtree had been deep-copied.

A leaf is its value string, stored in its parent's ``children`` dict;
only directories are ``Node`` objects. Strings are immutable, so the
sharing properties below are stated for nodes, and a leaf counts 1.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import CostModel, VirtualClock
from repro.xenstore.client import XsHandle
from repro.xenstore.clone import DomidRewrite, XsCloneOp, xs_clone
from repro.xenstore.store import Node, Overlay, XenstoreDaemon, XenstoreError

BASE = "/local/domain/0/backend/9pfs"


@pytest.fixture
def daemon(clock, costs):
    d = XenstoreDaemon(clock, costs)
    d.write_node(f"{BASE}/5/0/frontend-id", "5")
    d.write_node(f"{BASE}/5/0/state", "4")
    d.write_node(f"{BASE}/5/0/path", "rootfs")
    d.write_node(f"{BASE}/5/0/tag", "fs0")
    return d


def clone(daemon, child, source_domid=5):
    xs_clone(daemon, source_domid, child, XsCloneOp.DEV_9PFS,
             f"{BASE}/{source_domid}", f"{BASE}/{child}")


def _count(entry) -> int:
    return 1 if isinstance(entry, str) else entry.count


def _nodes_by_path(daemon):
    """Every ``Node`` and ``Overlay`` reachable from the root, once per
    path to it (an overlay's children are its source's)."""
    stack = [daemon.root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in node.children.values()
                     if isinstance(child, (Node, Overlay)))


def assert_counts_consistent(daemon):
    """Every node's ``count`` equals one plus its children's counts,
    even where subtrees are shared between several parents."""
    total = 0
    for node in _nodes_by_path(daemon):
        total += 1 + sum(1 for c in node.children.values()
                         if isinstance(c, str))
        assert node.count == 1 + sum(_count(c)
                                     for c in node.children.values())
    # The reachable-tree total counts shared nodes once per path, so it
    # can only exceed the daemon's (deduplicated) bookkeeping when
    # sharing is in effect -- never undershoot it.
    assert total >= daemon.node_count


def assert_shared_nodes_marked(daemon):
    """Every node referenced from two parents is marked ``shared`` (the
    entry-point half of the COW invariant, and the half a mutating
    descent relies on to know when to copy). Leaf strings are exempt:
    they are immutable, so aliasing one needs no mark."""
    parents: dict[int, int] = {}
    marked: dict[int, bool] = {}
    seen: set[int] = set()
    stack = [daemon.root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for child in node.children.values():
            if isinstance(child, (Node, Overlay)):
                parents[id(child)] = parents.get(id(child), 0) + 1
                marked[id(child)] = child.shared
                stack.append(child)
    for node_id, nparents in parents.items():
        if nparents > 1:
            assert marked[node_id], \
                "multiply-referenced node not marked shared"


# ----------------------------------------------------------------------
# direct write isolation
# ----------------------------------------------------------------------
def test_child_write_invisible_to_parent_and_siblings(daemon):
    clone(daemon, 9)
    clone(daemon, 10)
    daemon.write_node(f"{BASE}/9/0/state", "6")
    assert daemon.read_node(f"{BASE}/5/0/state") == "4"
    assert daemon.read_node(f"{BASE}/10/0/state") == "4"
    assert daemon.read_node(f"{BASE}/9/0/state") == "6"
    assert_counts_consistent(daemon)


def test_parent_write_invisible_to_children(daemon):
    clone(daemon, 9)
    daemon.write_node(f"{BASE}/5/0/state", "1")
    daemon.write_node(f"{BASE}/5/0/extra", "new")
    assert daemon.read_node(f"{BASE}/9/0/state") == "4"
    assert not daemon.exists(f"{BASE}/9/0/extra")
    assert_counts_consistent(daemon)


def test_child_remove_leaves_parent_intact(daemon):
    clone(daemon, 9)
    daemon.remove_node(f"{BASE}/9/0/tag")
    assert daemon.read_node(f"{BASE}/5/0/tag") == "fs0"
    assert not daemon.exists(f"{BASE}/9/0/tag")
    assert daemon.subtree_nodes(f"{BASE}/5") == \
        daemon.subtree_nodes(f"{BASE}/9") + 1
    assert_counts_consistent(daemon)


def test_chain_clone_isolation(daemon):
    """Cloning a clone: each generation mutates independently."""
    clone(daemon, 9)
    clone(daemon, 12, source_domid=9)
    daemon.write_node(f"{BASE}/12/0/state", "2")
    daemon.write_node(f"{BASE}/9/0/path", "snapshot")
    assert daemon.read_node(f"{BASE}/5/0/state") == "4"
    assert daemon.read_node(f"{BASE}/5/0/path") == "rootfs"
    assert daemon.read_node(f"{BASE}/9/0/state") == "4"
    assert daemon.read_node(f"{BASE}/12/0/path") == "rootfs"
    assert_counts_consistent(daemon)


def test_clone_then_remove_parent_subtree(daemon):
    clone(daemon, 9)
    removed = daemon.remove_node(f"{BASE}/5")
    assert removed == daemon.subtree_nodes(f"{BASE}/9")
    assert daemon.read_node(f"{BASE}/9/0/state") == "4"
    assert_counts_consistent(daemon)


# ----------------------------------------------------------------------
# transaction isolation
# ----------------------------------------------------------------------
def test_transaction_commit_into_child_invisible_to_parent(daemon):
    clone(daemon, 9)
    handle = XsHandle(daemon)
    tid = handle.transaction_start()
    handle.t_write(tid, f"{BASE}/9/0/state", "6")
    handle.t_write(tid, f"{BASE}/9/0/ring-ref", "77")
    # Buffered: nobody sees it yet.
    assert daemon.read_node(f"{BASE}/9/0/state") == "4"
    handle.transaction_end(tid)
    assert daemon.read_node(f"{BASE}/9/0/state") == "6"
    assert daemon.read_node(f"{BASE}/9/0/ring-ref") == "77"
    assert daemon.read_node(f"{BASE}/5/0/state") == "4"
    assert not daemon.exists(f"{BASE}/5/0/ring-ref")
    assert_counts_consistent(daemon)


def test_transaction_commit_into_parent_invisible_to_child(daemon):
    clone(daemon, 9)
    handle = XsHandle(daemon)
    tid = handle.transaction_start()
    handle.t_write(tid, f"{BASE}/5/0/state", "1")
    handle.transaction_end(tid)
    assert daemon.read_node(f"{BASE}/9/0/state") == "4"
    assert_counts_consistent(daemon)


# ----------------------------------------------------------------------
# watch targeting
# ----------------------------------------------------------------------
def test_watch_fires_only_for_writers_tree(daemon):
    fired = {"parent": [], "child": []}
    daemon.add_watch(f"{BASE}/5", "p",
                     lambda p, t: fired["parent"].append(p))
    clone(daemon, 9)
    daemon.add_watch(f"{BASE}/9", "c",
                     lambda p, t: fired["child"].append(p))
    daemon.write_node(f"{BASE}/9/0/state", "6")
    assert fired["parent"] == []
    assert fired["child"] == [f"{BASE}/9/0/state"]
    daemon.write_node(f"{BASE}/5/0/state", "5")
    assert fired["parent"] == [f"{BASE}/5/0/state"]
    assert fired["child"] == [f"{BASE}/9/0/state"]


def test_sibling_watch_does_not_fire_on_other_clone(daemon):
    clone(daemon, 9)
    clone(daemon, 10)
    fired = []
    daemon.add_watch(f"{BASE}/10", "s", lambda p, t: fired.append(p))
    daemon.write_node(f"{BASE}/9/0/state", "6")
    daemon.remove_node(f"{BASE}/9/0/tag")
    assert fired == []


# ----------------------------------------------------------------------
# property-style: random write/clone/remove interleavings
# ----------------------------------------------------------------------
def _model_write(model: dict, path: str, value: str) -> None:
    parts = path.strip("/").split("/")
    for i in range(1, len(parts)):
        model.setdefault("/" + "/".join(parts[:i]), "")
    model[path] = value


def _model_remove(model: dict, path: str) -> None:
    prefix = path + "/"
    for p in list(model):
        if p == path or p.startswith(prefix):
            del model[p]


def _model_clone(model: dict, src: str, dst: str,
                 rewrite: tuple[int, int] | None = None) -> None:
    """Deep copy ``src`` to ``dst``; a device op rewrites every value
    with the domid heuristics, keyed by the node's own name (the copy's
    root by the source's name, as ``xs_clone`` does)."""
    def copied(path: str, value: str) -> str:
        if rewrite is None or not value:
            return value
        key = path.rsplit("/", 1)[-1]
        return DomidRewrite(*rewrite)(key, value)

    _model_write(model, dst, copied(src, model[src]))
    prefix = src + "/"
    for p, v in list(model.items()):
        if p.startswith(prefix):
            model[dst + p[len(src):]] = copied(p, v)


#: The frontend device directories xencloned clones for a child, as
#: (xs_clone op, ``%`` template over the domid); their ``backend``
#: values name the owner's backend directory.
FRONTENDS = ((XsCloneOp.DEV_VIF, "/local/domain/%d/device/vif"),
             (XsCloneOp.DEV_CONSOLE, "/local/domain/%d/console"))


def _device_dirs(domid: int) -> list[str]:
    """The directories random writes and removes land in."""
    return [f"{BASE}/{domid}/0", f"/local/domain/{domid}/device/vif/0",
            f"/local/domain/{domid}/console"]


def _domid_sites(domid: int) -> list[tuple[str, str]]:
    """(path, value) writes that point a domid reference at the owner."""
    vif = f"/local/domain/{domid}/device/vif/0"
    return [(f"{BASE}/{domid}/0/frontend-id", str(domid)),
            (f"{vif}/backend-id", str(domid)),
            (f"{vif}/backend", f"/local/domain/0/backend/vif/{domid}/0"),
            (f"/local/domain/{domid}/console/backend",
             f"/local/domain/0/backend/console/{domid}/0")]


def assert_reads_match(daemon, model: dict) -> None:
    """``read_node``, ``exists`` and ``directory`` agree with the model
    at every model path. These go through the ``_lookup`` path memo,
    which ``walk`` does not."""
    listing: dict[str, list[str]] = {path: [] for path in model}
    for path in model:
        parent, _, name = path.rpartition("/")
        if parent in listing:
            listing[parent].append(name)
    for path, value in model.items():
        assert daemon.read_node(path) == value, path
        assert daemon.exists(path), path
        assert daemon.directory(path) == sorted(listing[path]), path
        assert not daemon.exists(f"{path}/absent"), path


def test_random_interleavings_match_deep_copy_model():
    """Random writes, removes and clones over a shared tree must stay
    byte-identical to a flat path->value model with deep-copy clones.

    Each clone copies a backend directory (basic op or a device op) and
    the frontend ``device/vif`` and ``console`` directories (their
    device ops), as xencloned does; the model reproduces the rewrite
    sites with ``DomidRewrite``. Writes land on leaves, below existing
    leaves (turning them into nodes) and on domid-bearing keys; removes
    take leaves and whole interior directories. After every step the
    tree is walked and every model path read back."""
    keys = ["state", "tag", "ring-ref", "path", "mode", "backend"]
    device_ops = [XsCloneOp.DEV_9PFS, XsCloneOp.DEV_VIF,
                  XsCloneOp.DEV_CONSOLE]
    for seed in range(6):
        rng = random.Random(0xC10E + seed)
        daemon = XenstoreDaemon(VirtualClock(), CostModel())
        model: dict[str, str] = {}
        initial = {f"{BASE}/5/0/{key}": key for key in keys}
        # Rewrite sites: a bare domid reference and a path-shaped value
        # with the domid in domid position, in each directory.
        initial[f"{BASE}/5/0/frontend-id"] = "5"
        initial[f"{BASE}/5/0/backend"] = "/local/domain/0/backend/9pfs/5/0"
        vif = "/local/domain/5/device/vif/0"
        initial[f"{vif}/backend"] = "/local/domain/0/backend/vif/5/0"
        initial[f"{vif}/backend-id"] = "0"
        initial[f"{vif}/mac"] = "00:16:3e:00:05:00"
        initial[f"{vif}/state"] = "4"
        console = "/local/domain/5/console"
        initial[f"{console}/backend"] = "/local/domain/0/backend/console/5/0"
        initial[f"{console}/port"] = "2"
        initial[f"{console}/ring-ref"] = "501"
        initial[f"{console}/type"] = "xenconsoled"
        for path, value in initial.items():
            daemon.write_node(path, value)
            _model_write(model, path, value)
        roots = [5]
        next_domid = 20
        for step in range(160):
            op = rng.random()
            root = rng.choice(roots)
            if op < 0.2 and len(roots) < 24:
                dst = next_domid
                next_domid += 1
                clone_op = (XsCloneOp.BASIC if rng.random() < 0.4
                            else rng.choice(device_ops))
                xs_clone(daemon, root, dst, clone_op,
                         f"{BASE}/{root}", f"{BASE}/{dst}")
                _model_clone(model, f"{BASE}/{root}", f"{BASE}/{dst}",
                             None if clone_op is XsCloneOp.BASIC
                             else (root, dst))
                for front_op, template in FRONTENDS:
                    if template % root in model:
                        xs_clone(daemon, root, dst, front_op,
                                 template % root, template % dst)
                        _model_clone(model, template % root,
                                     template % dst, (root, dst))
                roots.append(dst)
            elif op < 0.5:
                path = f"{rng.choice(_device_dirs(root))}/{rng.choice(keys)}"
                value = f"v{step}"
                daemon.write_node(path, value)
                _model_write(model, path, value)
            elif op < 0.6:
                # Re-point a domid reference at the owner: a new site.
                path, value = rng.choice(_domid_sites(root))
                daemon.write_node(path, value)
                _model_write(model, path, value)
            elif op < 0.72:
                # Below a leaf (or a directory made that way earlier).
                path = (f"{rng.choice(_device_dirs(root))}/"
                        f"{rng.choice(keys)}/{rng.choice(keys)}")
                value = f"w{step}"
                daemon.write_node(path, value)
                _model_write(model, path, value)
            elif op < 0.84:
                directory = rng.choice(_device_dirs(root))
                path = f"{directory}/{rng.choice(keys)}"
                if rng.random() < 0.3:
                    path = directory
                if daemon.exists(path):
                    removed = daemon.remove_node(path)
                    before = len(model)
                    _model_remove(model, path)
                    assert removed == before - len(model)
                assert not daemon.exists(path)
            elif len(roots) > 1:
                victim = roots.pop(rng.randrange(1, len(roots)))
                daemon.remove_node(f"{BASE}/{victim}")
                _model_remove(model, f"{BASE}/{victim}")
                if f"/local/domain/{victim}" in model:
                    daemon.remove_node(f"/local/domain/{victim}")
                    _model_remove(model, f"/local/domain/{victim}")
            # Full-state equivalence after every step. The model keeps
            # every intermediate directory as an explicit "" entry, so a
            # straight dict compare covers paths and values both.
            expected = {
                p: v for p, v in model.items()
                if p == BASE or p.startswith(BASE + "/")
            }
            assert dict(daemon.walk(BASE)) == expected, \
                f"seed {seed} step {step}"
            assert dict(daemon.walk("/local")) == model, \
                f"seed {seed} step {step}"
            for domid in roots:
                for top in (f"{BASE}/{domid}", f"/local/domain/{domid}"):
                    count = sum(1 for p in model
                                if p == top or p.startswith(f"{top}/"))
                    assert daemon.subtree_nodes(top) == count
            assert daemon.node_count == len(model)
            assert_shared_nodes_marked(daemon)
            assert_reads_match(daemon, model)
        assert_counts_consistent(daemon)


# ----------------------------------------------------------------------
# sharing is real (not a behavioural accident)
# ----------------------------------------------------------------------
def test_clone_shares_nodes_by_reference(daemon):
    """The graft must alias the source tree, not copy it."""
    source = daemon._lookup(f"{BASE}/5")
    clone_count = daemon.node_count
    clone(daemon, 9)
    child = daemon._lookup(f"{BASE}/9")
    # Device-op rewrites touch frontend-id, so the spine is private but
    # untouched subtrees alias the very same Node objects.
    shared = [
        name for name in source.children
        if name in child.children
        and child.children[name] is source.children[name]
    ]
    assert shared or any(
        child.children["0"].children[k] is source.children["0"].children[k]
        for k in source.children["0"].children
    )
    # Bookkeeping still counts the clone as real nodes.
    assert daemon.node_count == clone_count + daemon.subtree_nodes(f"{BASE}/9")


def test_shared_leaf_unshared_on_write(daemon):
    """A leaf is its value: the clone aliases the very same string, and
    a write replaces the entry in the (un-shared) parent only."""
    clone(daemon, 9)
    source = daemon._lookup(f"{BASE}/5/0")
    child = daemon._lookup(f"{BASE}/9/0")
    assert child.children["tag"] is source.children["tag"]
    daemon.write_node(f"{BASE}/9/0/tag", "fs9")
    child = daemon._lookup(f"{BASE}/9/0")
    assert child.children["tag"] == "fs9"
    assert source.children["tag"] == "fs0"


def test_write_below_shared_leaf_makes_private_node(daemon):
    """A write below a leaf turns the leaf into a node -- in the
    writer's tree only; the parent keeps its leaf string."""
    clone(daemon, 9)
    daemon.write_node(f"{BASE}/9/0/tag/sub", "x")
    assert isinstance(daemon._lookup(f"{BASE}/9/0/tag"), Node)
    assert daemon.read_node(f"{BASE}/9/0/tag") == "fs0"
    assert daemon.directory(f"{BASE}/9/0/tag") == ["sub"]
    assert daemon._lookup(f"{BASE}/5/0/tag") == "fs0"
    assert daemon.directory(f"{BASE}/5/0/tag") == []
    assert not daemon.exists(f"{BASE}/5/0/tag/sub")
    assert daemon.subtree_nodes(f"{BASE}/9") == \
        daemon.subtree_nodes(f"{BASE}/5") + 1
    assert_counts_consistent(daemon)


def test_graft_rejects_cycle_via_nested_destination(clock, costs):
    """Cloning a subtree into itself must not create a literal cycle."""
    daemon = XenstoreDaemon(clock, costs)
    daemon.write_node("/a/b", "1")
    xs_clone(daemon, 5, 9, XsCloneOp.BASIC, "/a", "/a/copy")
    # The destination is an eager copy: no infinite walk, counts sane.
    assert daemon.read_node("/a/copy/b") == "1"
    assert daemon.subtree_nodes("/a") == 4  # a, a/b, a/copy, a/copy/b
    walked = dict(daemon.walk("/a"))
    assert walked["/a/copy/b"] == "1"


def test_unshare_is_path_local(daemon):
    """Writing one leaf un-shares only its ancestors, not siblings."""
    clone(daemon, 9)
    source = daemon._lookup(f"{BASE}/5/0")
    daemon.write_node(f"{BASE}/9/0/state", "6")
    child = daemon._lookup(f"{BASE}/9/0")
    for name in ("tag", "path"):
        assert child.children[name] is source.children[name]


def test_node_identity_never_escapes_to_mutation(daemon):
    """A long clone chain with writes at each generation never lets a
    mutation travel through a shared reference."""
    prev = 5
    for child in range(30, 40):
        clone(daemon, child, source_domid=prev)
        daemon.write_node(f"{BASE}/{child}/0/gen", str(child))
        prev = child
    # Each generation sees its own marker and none of the later ones.
    for child in range(30, 40):
        assert daemon.read_node(f"{BASE}/{child}/0/gen") == str(child)
        assert not daemon.exists(f"{BASE}/{child}/0/gen{child + 1}")
    assert not daemon.exists(f"{BASE}/5/0/gen")
    assert_counts_consistent(daemon)


def test_shared_nodes_marked(daemon):
    """Every multiply-referenced node sits behind a ``shared`` flag on
    each aliased entry point (the COW invariant)."""
    clone(daemon, 9)
    clone(daemon, 10)
    xs_clone(daemon, 5, 11, XsCloneOp.BASIC, f"{BASE}/5", f"{BASE}/11")
    daemon.write_node(f"{BASE}/10/0/state", "6")
    assert_shared_nodes_marked(daemon)
    # Clone leaves are aliased strings, not per-clone objects.
    assert daemon._lookup(f"{BASE}/11/0") is daemon._lookup(f"{BASE}/5/0")
    for name in ("state", "path", "tag"):
        assert daemon._lookup(f"{BASE}/9/0/{name}") is \
            daemon._lookup(f"{BASE}/5/0/{name}")


def test_deep_copy_ablation_unaffected(daemon):
    """The paper's deep-copy baseline still produces private trees:
    every directory is a node of its own, nothing is marked shared,
    and the values match (the domid ones rewritten)."""
    handle = XsHandle(daemon)
    handle.deep_copy(5, 9, f"{BASE}/5", f"{BASE}/9")
    for suffix in ("", "/0"):
        source = daemon._lookup(f"{BASE}/5{suffix}")
        child = daemon._lookup(f"{BASE}/9{suffix}")
        assert isinstance(child, Node) and child is not source
        assert not child.shared and not source.shared
    source = daemon._lookup(f"{BASE}/5/0")
    child = daemon._lookup(f"{BASE}/9/0")
    assert sorted(child.children) == sorted(source.children)
    assert child.children["frontend-id"] == "9"
    assert child.children["state"] == source.children["state"]


def test_clone_missing_source_still_raises(daemon):
    with pytest.raises(XenstoreError):
        xs_clone(daemon, 5, 9, XsCloneOp.DEV_9PFS, f"{BASE}/404",
                 f"{BASE}/9")
