"""The ``xs_clone`` Xenstore request (paper Fig. 2 and Fig. 3).

Clones the entries under ``parent_path`` into a new ``child_path``
directory in a single server-side request. Depending on the op it
either performs a plain in-depth copy or applies per-device heuristics
that rewrite entries referencing the owning guest ID — the only kind of
Xenstore information that has to change for most device types (paper
§5.2.1). This cuts the number of Xenstore requests per clone from one
per node to one per directory, which is what separates the two clone
series in Fig 4.
"""

from __future__ import annotations

import enum
from sys import intern

from repro.xenstore.store import Node, XenstoreDaemon, XenstoreError


class XsCloneOp(enum.Enum):
    """Figure 3 of the paper."""

    BASIC = "xs_clone_op_basic"
    DEV_CONSOLE = "xs_clone_op_dev_console"
    DEV_VIF = "xs_clone_op_dev_vif"
    DEV_9PFS = "xs_clone_op_dev_9pfs"


#: Ops that apply the device heuristics (domid rewriting).
_DEVICE_OPS = frozenset({XsCloneOp.DEV_CONSOLE, XsCloneOp.DEV_VIF,
                         XsCloneOp.DEV_9PFS})

#: ``site_cache`` miss sentinel (``None`` is a valid cached value: it
#: means the scan found no rewrite sites).
_UNSCANNED = object()


#: Keys whose value is a bare domid reference.
DOMID_KEYS = frozenset({"frontend-id", "backend-id", "domid"})

#: Path schema: a component is a domid iff it directly follows
#: ``domain`` (guest directories) or a device class under ``backend``
#: (backend directories are keyed by the owning guest ID).
_DEVICE_CLASSES = frozenset({"vif", "console", "9pfs", "vbd"})


def _is_domid_position(parts: list[str], index: int) -> bool:
    if index == 0:
        return False
    if parts[index - 1] == "domain":
        return True
    return (index >= 2
            and parts[index - 1] in _DEVICE_CLASSES
            and parts[index - 2] == "backend")


def _rewrite_value(key: str, value: str, parent_domid: int,
                   child_domid: int) -> str:
    """Rewrite guest-ID references inside a value.

    Heuristics (paper §5.2.1: "such keys (and values referencing them)
    must be rewritten to reference the new clone ID"):

    - known domid-reference keys (``frontend-id``, ``backend-id``, ...)
      whose value is the parent domid become the child domid;
    - path-shaped values have their *domid-position* components rewritten
      (e.g. ``backend = /local/domain/0/backend/vif/5/0`` -> ``.../9/0``),
      where a component is a domid only if it follows ``domain/`` or a
      device class under ``backend/`` - a device *index* that happens to
      equal the parent's domid is left alone.

    Other numeric values (states, ports, ring refs) are never touched.
    The child domid string is interned: it is the same object as the
    clone's ``"<domid>"`` directory keys.
    """
    parent = str(parent_domid)
    child = intern(str(child_domid))
    if key in DOMID_KEYS and value == parent:
        return child
    if "/" in value:
        parts = value.split("/")
        rewritten = [
            child if part == parent and _is_domid_position(parts, i) else part
            for i, part in enumerate(parts)
        ]
        return "/".join(rewritten)
    return value


def xs_clone(daemon: XenstoreDaemon, parent_domid: int, child_domid: int,
             op: XsCloneOp, parent_path: str, child_path: str) -> int:
    """Serve one xs_clone request; returns the number of nodes created.

    Mirrors the client API of paper Fig. 2 (the transaction handle is
    implicit; the simulation applies the copy atomically). The caller
    (XsHandle) accounts the request; this function performs the
    server-side work and charges the per-node copy cost.

    The copy is structural sharing, not a deep copy: the parent subtree
    is grafted into the child by reference and marked shared, so the
    host-side work is O(#rewrite sites), not O(subtree). For device ops
    the few values the domid heuristics actually change are found once
    per clone source (cached on the source node — shared subtrees are
    immutable, so the scan cannot go stale) and only those paths are
    materialized per child. Virtual cost and store accounting are
    unchanged: the request still charges ``xs_clone_per_node`` per
    logical node, and write stats / conflict generations advance by the
    full subtree size exactly as the per-node copy did.
    """
    if not daemon.exists(parent_path):
        raise XenstoreError(f"xs_clone: ENOENT {parent_path!r}")
    if daemon.exists(child_path):
        raise XenstoreError(f"xs_clone: EEXIST {child_path!r}")
    # Injection after validation, before any mutation: a failing
    # xs_clone request leaves the store untouched.
    if daemon.faults.enabled:
        daemon.faults.fire("xenstore.xs_clone", parent=parent_domid,
                           child=child_domid, path=parent_path)
    source = daemon._lookup(parent_path)
    leaf = source.__class__ is str
    created = 1 if leaf else source.count
    key = parent_path.rstrip("/").rsplit("/", 1)[-1]
    graft_root = source
    if op in _DEVICE_OPS:
        if leaf:
            sites = _scan_sites(key, source, parent_domid)
        else:
            cache = source.site_cache
            if cache is None:
                cache = source.site_cache = {}
            cache_key = (parent_domid, key)
            sites = cache.get(cache_key, _UNSCANNED)
            if sites is _UNSCANNED:
                sites = cache[cache_key] = _scan_sites(key, source,
                                                       parent_domid)
        if sites is not None:
            graft_root = _materialize(source, key, sites, parent_domid,
                                      child_domid)
    parent_norm = parent_path.rstrip("/")
    child_norm = child_path.rstrip("/")
    if not parent_norm or child_norm.startswith(f"{parent_norm}/"):
        # Destination nested inside the source (or the source is the
        # root): sharing would create a cycle, so snapshot eagerly the
        # way the pre-sharing implementation did.
        graft_root = _copy_tree(graft_root)
    elif graft_root is source and not leaf:
        source.shared = True
    daemon.graft(child_path, graft_root)
    daemon.stats["writes"] += created
    daemon.transactions.record_subtree_write(child_path, created)
    daemon.clock.charge(daemon.costs.xs_clone_per_node * created)
    daemon.stats["clones"] += 1
    # One notification for the new directory (backends watch the class
    # directory, not every node).
    daemon.fire_watches(child_path)
    return created


def xs_clone_txn(daemon: XenstoreDaemon, transaction, parent_domid: int,
                 child_domid: int, op: XsCloneOp, parent_path: str,
                 child_path: str) -> int:
    """Transactional xs_clone: buffer the copied nodes into an open
    transaction (the paper's Fig. 2 signature takes ``xs_transaction_t``).
    Applied atomically at commit."""
    if not daemon.exists(parent_path):
        raise XenstoreError(f"xs_clone: ENOENT {parent_path!r}")
    if daemon.exists(child_path):
        raise XenstoreError(f"xs_clone: EEXIST {child_path!r}")
    if daemon.faults.enabled:
        daemon.faults.fire("xenstore.xs_clone", parent=parent_domid,
                           child=child_domid, path=parent_path)
    rewrite = op in _DEVICE_OPS
    manager = daemon.transactions
    created = 0
    for path, value in daemon.walk(parent_path):
        suffix = path[len(parent_path):]
        key = path.rstrip("/").rsplit("/", 1)[-1] or parent_path
        if rewrite and value:
            value = _rewrite_value(key, value, parent_domid, child_domid)
        manager.write(transaction, child_path + suffix, value)
        created += 1
    daemon.clock.charge(daemon.costs.xs_clone_per_node * created)
    daemon.stats["clones"] += 1
    return created


def _needs_rewrite(key: str, value: str, parent: str) -> bool:
    """Would ``_rewrite_value`` change this value for *any* child domid?

    The rewrite condition only compares against the parent domid, so
    the set of rewrite sites in a subtree is a property of the (source,
    parent) pair and can be cached across every clone taken from it.
    """
    if key in DOMID_KEYS and value == parent:
        return True
    if "/" in value:
        parts = value.split("/")
        for i, part in enumerate(parts):
            if part == parent and _is_domid_position(parts, i):
                return True
    return False


def _scan_sites(key: str, entry: Node | str, parent_domid: int):
    """Site tree of ``entry``: ``(is_site, {name: subtree})`` nesting
    that covers every node whose value the device heuristics rewrite.

    Returned pre-nested (rather than as flat relative paths) so
    :func:`_materialize` — which runs once per *clone*, while this scan
    runs once per clone *source* — never regroups paths per call. An
    empty tree is returned as ``None`` branches all the way down;
    callers treat a root of ``(False, {})`` as "no sites".
    """
    parent = str(parent_domid)
    leaf = entry.__class__ is str
    value = entry if leaf else entry.value
    is_site = bool(value) and _needs_rewrite(key, value, parent)
    branches = {}
    if not leaf:
        for name, child in entry.children.items():
            # Node names under a device directory are indices, never
            # domids (the domid sits in the cloned root, chosen by the
            # caller).
            sub = _scan_sites(name, child, parent_domid)
            if sub is not None:
                branches[name] = sub
    if not is_site and not branches:
        return None
    return (is_site, branches)


def _materialize(entry: Node | str, key: str, site_tree, parent_domid: int,
                 child_domid: int) -> Node | str:
    """Copy ``entry`` along the cached rewrite-site tree only.

    Site values are rewritten for this child (a site leaf becomes its
    rewritten string); every child node hanging off the copied spine is
    aliased by reference and marked shared (it is now reachable from
    both the source and the copy), and leaves are aliased as they are.
    """
    if entry.__class__ is str:
        return _rewrite_value(key, entry, parent_domid, child_domid)
    is_site, branches = site_tree
    value = entry.value
    if is_site and value:
        value = _rewrite_value(key, value, parent_domid, child_domid)
    children = dict(entry.children)
    for name, child in children.items():
        sub = branches.get(name)
        if sub is not None:
            children[name] = _materialize(child, name, sub,
                                          parent_domid, child_domid)
        elif child.__class__ is not str:
            child.shared = True
    return Node(value, children, entry.count)


def _copy_tree(entry: Node | str) -> Node | str:
    """Eager private deep copy (the nested-destination slow path); leaf
    strings are immutable and kept as they are."""
    if entry.__class__ is str:
        return entry
    return Node(entry.value,
                {name: _copy_tree(child)
                 for name, child in entry.children.items()},
                entry.count)
