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
from typing import TYPE_CHECKING

from repro.xenstore.store import (
    Node,
    Overlay,
    XenstoreDaemon,
    XenstoreError,
    mark_children_shared,
    walk_entry,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.xenstore.transactions import Transaction


class XsCloneOp(enum.Enum):
    """Figure 3 of the paper."""

    BASIC = "xs_clone_op_basic"
    DEV_CONSOLE = "xs_clone_op_dev_console"
    DEV_VIF = "xs_clone_op_dev_vif"
    DEV_9PFS = "xs_clone_op_dev_9pfs"


#: Ops that apply the device heuristics (domid rewriting).
_DEVICE_OPS = frozenset({XsCloneOp.DEV_CONSOLE, XsCloneOp.DEV_VIF,
                         XsCloneOp.DEV_9PFS})


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


def _rewrite(key: str, value: str, parent: str, child: str) -> str:
    """The heuristics of :class:`DomidRewrite` over domid strings; an
    unchanged value comes back as the same object."""
    if key in DOMID_KEYS and value == parent:
        return child
    if "/" in value and parent in value:
        parts = value.split("/")
        changed = False
        for i, part in enumerate(parts):
            if part == parent and _is_domid_position(parts, i):
                parts[i] = child
                changed = True
        if changed:
            return "/".join(parts)
    return value


class DomidRewrite:
    """One clone's domid rewrite, ``(key, value) -> value``: what every
    :class:`~repro.xenstore.store.Overlay` of that clone's device grafts
    applies on read, and what the pre-Nephele deep copy applies per
    node.

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
    Both domid strings are interned (the child's is the same object as
    the clone's ``"<domid>"`` directory keys), so the record holds no
    string of its own.
    """

    __slots__ = ("parent", "child")

    def __init__(self, parent_domid: int, child_domid: int) -> None:
        self.parent = intern(str(parent_domid))
        self.child = intern(str(child_domid))

    def __call__(self, key: str, value: str) -> str:
        return _rewrite(key, value, self.parent, self.child)


def xs_clone(daemon: XenstoreDaemon, parent_domid: int, child_domid: int,
             op: XsCloneOp, parent_path: str, child_path: str,
             transaction: Transaction | None = None) -> int:
    """Serve one xs_clone request; returns the number of nodes created.

    Mirrors the client API of paper Fig. 2, whose signature takes an
    ``xs_transaction_t``: with ``transaction`` ``None`` the copy is
    applied at once, otherwise its nodes are buffered in that open
    transaction and applied atomically at commit. The caller
    (XsHandle) accounts the request; this function performs the
    server-side work and charges ``xs_clone_per_node`` per logical
    node either way.

    Both forms build the same graft root. A device op wraps the source
    directory in an :class:`~repro.xenstore.store.Overlay` that
    carries the domid rewrite as a rule, one :class:`DomidRewrite` per
    clone shared by all its grafts: values are rewritten when read,
    walked or copied, and a write below the overlay opens it along the
    written path only. Immediately, the copy is structural sharing, not
    a deep copy: the root is grafted into the child by reference and
    marked shared, so the host-side work is one pass over the source
    directory's own entries, not over its subtree; write stats and
    conflict generations still advance by the full subtree size, as a
    per-node copy would. In a transaction, the root's nodes are
    buffered as a read would return them.
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
    # Interned: an overlay keeps the source's name for good.
    key = intern(parent_path.rstrip("/").rsplit("/", 1)[-1])
    graft_root = source
    if op in _DEVICE_OPS:
        # The clone's device directories are cloned back to back, so
        # the last request's record is the one to share.
        rewrite = daemon._clone_rewrite
        if (rewrite is None or rewrite.child != str(child_domid)
                or rewrite.parent != str(parent_domid)):
            rewrite = daemon._clone_rewrite = DomidRewrite(parent_domid,
                                                           child_domid)
        graft_root = (rewrite(key, source) if leaf
                      else Overlay(source, rewrite, key))
    if transaction is not None:
        manager = daemon.transactions
        created = 0
        for path, value in walk_entry(child_path.rstrip("/"), graft_root):
            manager.write(transaction, path, value)
            created += 1
        daemon.clock.charge(daemon.costs.xs_clone_per_node * created)
        daemon.stats["clones"] += 1
        return created
    created = 1 if leaf else source.count
    parent_norm = parent_path.rstrip("/")
    child_norm = child_path.rstrip("/")
    if not parent_norm or child_norm.startswith(f"{parent_norm}/"):
        # Destination nested inside the source (or the source is the
        # root): sharing would create a cycle, so snapshot eagerly the
        # way the pre-sharing implementation did.
        graft_root = _copy_tree(graft_root)
    else:
        if source.__class__ is Node:
            source.shared = True
        if graft_root.__class__ is Overlay:
            # The graft aliases the source's child directories.
            mark_children_shared(graft_root)
    daemon.graft(child_path, graft_root)
    daemon.stats["writes"] += created
    daemon.transactions.record_subtree_write(child_path, created)
    daemon.clock.charge(daemon.costs.xs_clone_per_node * created)
    daemon.stats["clones"] += 1
    # One notification for the new directory (backends watch the class
    # directory, not every node).
    daemon.fire_watches(child_path)
    return created


def _copy_tree(entry: Node | Overlay | str) -> Node | str:
    """Eager private deep copy (the nested-destination slow path), with
    every overlay's rewrite applied; leaf strings are immutable and kept
    as they are."""
    if entry.__class__ is str:
        return entry
    if entry.__class__ is Overlay:
        entry = entry.open()
    return Node(entry.value,
                {name: _copy_tree(child)
                 for name, child in entry.children.items()},
                entry.count)
