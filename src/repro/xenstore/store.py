"""The Xenstore daemon: tree, watches, transactions, request accounting.

Request latency in oxenstored grows with the size of the store (its
working set and log handling scale with node count); the simulation
charges ``xs_request_base + xs_request_per_node * node_count`` per
request, which is what makes boot times in Fig 4 grow from 160 ms to
300 ms across 1000 instances.
"""

from __future__ import annotations

import itertools
from sys import intern
from typing import Callable

from repro.errors import ReproError
from repro.faults.injector import NULL_INJECTOR
from repro.obs.tracer import NULL_TRACER
from repro.sim import CostModel, VirtualClock
from repro.xenstore.logging import AccessLog

WatchCallback = Callable[[str, str], None]  # (fired path, token)

#: Upper bound on the read-path memo in :meth:`XenstoreDaemon._lookup`;
#: reached, the memo is dropped wholesale (paths are cheap to re-walk).
_PATH_CACHE_MAX = 8192


class XenstoreError(ReproError):
    """Xenstore request failure (ENOENT and friends)."""


class Node:
    """A directory of the store tree: a value plus named children.

    A child is a ``Node``, an :class:`Overlay` or a ``str``: a leaf *is*
    its value, stored directly in its parent's ``children`` dict.
    Strings are immutable, so a leaf carries no ``count`` or ``shared``
    flag and never needs un-sharing; a write below a leaf turns it into
    a ``Node``. Every leaf the daemon creates is a string; a node left
    childless by a remove stays a ``Node``. Keys are interned where a
    child is inserted, so the names every domain repeats (``name``,
    ``store``, a clone's ``"<domid>"``, ...) are one object each.

    ``count`` caches the size of the subtree rooted here (this node
    included; a leaf counts 1). It is maintained incrementally by every
    tree mutation, so ``subtree_nodes`` and the per-request store-size
    costing never re-count trees.

    Nodes are copy-on-write: ``xs_clone`` grafts a parent subtree into
    the child by *reference* and marks it ``shared``. The invariant is
    that every path from the root to a multiply-referenced node passes
    through a shared entry (a ``Node`` with ``shared`` set, usually the
    grafted subtree root, or an ``Overlay``); a shared entry is
    immutable. Mutating walks un-share each shared entry they descend
    through — copy the node, alias its child dict entries, and mark the
    aliased child nodes shared — so only the touched path is ever
    duplicated.
    """

    __slots__ = ("value", "children", "count", "shared")

    def __init__(self, value: str = "", children: dict | None = None,
                 count: int = 1) -> None:
        self.value = value
        self.children: dict[str, Node | Overlay | str] = (
            {} if children is None else children)
        self.count = count
        self.shared = False


class Overlay:
    """A shared entry read through one clone's domid rewrite.

    A device ``xs_clone`` grafts ``Overlay(source, rewrite, key)``
    instead of copying the directories whose values name the parent's
    domid: ``source`` (a ``Node`` or another overlay) stays shared, and
    ``rewrite(name, value)`` -- one record per clone, shared by all its
    grafts -- is applied whenever a value is read, walked or copied.
    ``key`` is the name the source had where it was cloned from; the
    rewrite of the overlay's own value is keyed by it, as a deep copy's
    would be. Overlays nest: cloning an overlaid directory wraps the
    overlay, so the rewrites compose innermost first.

    An overlay is always ``shared``: a write below it opens it
    (:meth:`open`) along the written path only. ``children`` and
    ``count`` are the source's -- names and shape, with the values
    *before* the rewrite -- read through, not kept; ``value``,
    :meth:`child` and :meth:`open` read through the rewrite. The
    overlay's subtree counts as nodes of its own, as a deep copy's
    would. Building an overlay marks nothing: whoever links one into
    the tree marks the source's child nodes shared
    (:func:`mark_children_shared`), since the overlay aliases them.
    """

    __slots__ = ("source", "rewrite", "key")

    shared = True

    def __init__(self, source: Node, rewrite, key: str) -> None:
        self.source = source
        self.rewrite = rewrite
        self.key = key

    @property
    def children(self) -> dict[str, Node | Overlay | str]:
        return self.source.children

    @property
    def count(self) -> int:
        return self.source.count

    @property
    def value(self) -> str:
        return self.rewrite(self.key, self.source.value)

    def child(self, name: str) -> "Overlay | str":
        """The entry ``name`` below this overlay, rewritten (KeyError if
        absent): a leaf as its rewritten string, a directory as an
        overlay of its own."""
        source = self.source
        entry = (source.child(name) if source.__class__ is Overlay
                 else source.children[name])
        if entry.__class__ is str:
            return self.rewrite(name, entry)
        return Overlay(entry, self.rewrite, name)

    def open(self) -> Node:
        """A private ``Node`` that reads like this overlay: its value and
        leaves rewritten, its child directories overlays with the same
        rewrite (the un-share of an overlay, one level deep)."""
        source = self.source
        if source.__class__ is Overlay:
            source = source.open()
        rewrite = self.rewrite
        children = {
            name: (rewrite(name, child) if child.__class__ is str
                   else Overlay(child, rewrite, name))
            for name, child in source.children.items()}
        return Node(rewrite(self.key, source.value), children, source.count)


def mark_children_shared(entry: Node | Overlay) -> None:
    """Mark the child nodes of ``entry`` (an overlay's: its source's)
    shared: a new alias of them is about to be linked into the tree."""
    for child in entry.children.values():
        if child.__class__ is Node:
            child.shared = True


def walk_entry(path: str, entry: Node | Overlay | str
               ) -> list[tuple[str, str]]:
    """All (path, value) pairs of the tree ``entry`` as if it stood at
    ``path`` (no trailing slash), itself included, with overlaid values
    rewritten: what reading each node would return.

    Iterative pre-order with children in sorted name order (the same
    visit order the old recursive version produced), so it works on
    arbitrarily deep trees.
    """
    result: list[tuple[str, str]] = []
    stack = [(path, entry)]
    while stack:
        prefix, entry = stack.pop()
        if entry.__class__ is str:
            result.append((prefix or "/", entry))
            continue
        if entry.__class__ is Overlay:
            entry = entry.open()
        result.append((prefix or "/", entry.value))
        children = entry.children
        if children:
            stack.extend((f"{prefix}/{name}", children[name])
                         for name in sorted(children, reverse=True))
    return result


def _nodes(entry: Node | str) -> int:
    """Subtree size of a child entry (a leaf string counts 1)."""
    return 1 if entry.__class__ is str else entry.count


def _split(path: str) -> list[str]:
    # Deliberately uncached: store paths are dominated by per-domain
    # one-shot strings (/local/domain/<domid>/...), so an lru_cache here
    # never amortizes — it just adds a hash probe + unbounded growth.
    if path[:1] != "/":
        raise XenstoreError(f"path must be absolute: {path!r}")
    return [part for part in path.split("/") if part]


class Watch:
    """A registered path-prefix watch."""

    __slots__ = ("path", "token", "callback")

    def __init__(self, path: str, token: str, callback: WatchCallback) -> None:
        self.path = path.rstrip("/") or "/"
        self.token = token
        self.callback = callback


class XenstoreDaemon:
    """oxenstored: the store, its watches and its access log."""

    def __init__(self, clock: VirtualClock, costs: CostModel,
                 log_enabled: bool = True, tracer=None,
                 faults=None) -> None:
        self.clock = clock
        self.costs = costs
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Fault-injection hooks (repro.faults): xs_clone and the
        #: transaction manager fire through this. No-op by default.
        self.faults = faults if faults is not None else NULL_INJECTOR
        self.root = Node()
        self.node_count = 0
        self.access_log = AccessLog(clock, costs, enabled=log_enabled,
                                    tracer=self.tracer)
        #: path -> (parent node, name, write_safe) memo of resolved
        #: entries; see :meth:`_lookup` for the (narrow) invalidation
        #: contract.
        self._path_cache: dict[str, tuple[Node, str, bool]] = {}
        self._watches: dict[int, Watch] = {}
        #: Watch path -> {watch id -> watch}: firing a path consults its
        #: O(depth) prefixes instead of scanning every watch.
        self._watch_index: dict[str, dict[int, Watch]] = {}
        #: Lazily rebuilt [(path, "path/", bucket)] scan list used when
        #: the index is small enough that scanning beats prefix walking.
        self._watch_scan: list[tuple[str, str, dict[int, Watch]]] | None = None
        self._watch_ids = itertools.count(1)
        from repro.xenstore.transactions import TransactionManager

        self.transactions = TransactionManager()
        #: Domains introduced to the daemon (domid -> parent domid or None).
        self.introduced: dict[int, int | None] = {}
        #: The domid rewrite of the last device ``xs_clone``: a clone's
        #: device directories are cloned back to back, so they share it
        #: (see :mod:`repro.xenstore.clone`).
        self._clone_rewrite = None
        self.stats = {"requests": 0, "writes": 0, "reads": 0, "clones": 0}

    # ------------------------------------------------------------------
    # request accounting
    # ------------------------------------------------------------------
    def charge_request(self, extra: float = 0.0) -> None:
        """Account one client request (cost + access log).

        This is the single hottest accounting call in the instantiation
        experiments, so it advances the clock directly (the summed cost
        is non-negative by construction: all cost constants are positive
        and callers only pass non-negative ``extra``) and skips the
        access-log call when the log is disabled.
        """
        self.stats["requests"] += 1
        costs = self.costs
        self.clock._now += (costs.xs_request_base
                            + costs.xs_request_per_node * self.node_count
                            + extra)
        log = self.access_log
        if log.enabled:
            log.record_request()

    def resident_bytes(self) -> int:
        """Approximate oxenstored resident memory (Dom0 accounting)."""
        return self.node_count * self.costs.xs_node_resident_bytes

    # ------------------------------------------------------------------
    # tree primitives (no request accounting; used server-side)
    # ------------------------------------------------------------------
    def _lookup(self, path: str) -> Node | Overlay | str:
        """The entry at ``path``: a ``Node``, an ``Overlay``, or a leaf's
        value string. Below an overlay the entry is rewritten (see
        :meth:`Overlay.child`)."""
        cache = self._path_cache
        hit = cache.get(path)
        if hit is not None:
            return hit[0].children[hit[1]]
        parts = _split(path)
        if not parts:
            return self.root
        node = self.root
        write_safe = True
        try:
            for part in parts:
                # A leaf on the way has no ``shared`` (AttributeError):
                # nothing exists below a leaf.
                if node.shared:
                    write_safe = False
                    if node.__class__ is Overlay:
                        node = node.child(part)
                        parent = None
                        continue
                parent = node
                node = node.children[part]
        except (KeyError, AttributeError):
            raise XenstoreError(f"ENOENT: {path!r}") from None
        if parent is None:
            # Below an overlay: the memo's (parent, name) pair would
            # hand back the unrewritten source entry.
            return node
        # Path memo: path -> (parent node, name, write_safe). Writes
        # replace a leaf in, or set a value on, an entry of a cached
        # parent, so the mapping stays truthful until a node object on
        # some path is *replaced* or newly *shared* — un-share, subtree
        # removal, graft (every xs_clone grafts) — at which point the
        # whole memo is dropped (see ``_unshare`` / ``remove_node`` /
        # ``graft``). ``write_safe`` records whether every node down to
        # the parent is private: only then may a write use the hit
        # without re-walking (see ``_store``).
        if len(cache) >= _PATH_CACHE_MAX:
            cache.clear()
        cache[path] = (parent, part, write_safe)
        return node

    def _unshare(self, node: Node | Overlay) -> Node:
        """Private copy of a shared entry: a node's children aliased
        (the child nodes marked shared so the laziness recurses), an
        overlay opened (its child directories' children marked, since
        the overlays it opens to alias them). The caller re-links it
        into the (already private) parent."""
        if self._path_cache:
            self._path_cache.clear()
        if node.__class__ is Overlay:
            opened = node.open()
            for child in opened.children.values():
                if child.__class__ is Overlay:
                    mark_children_shared(child)
            return opened
        mark_children_shared(node)
        return Node(node.value, dict(node.children), node.count)

    def _store(self, path: str, value: str) -> None:
        """Set the value at ``path``: the mutating walk creates missing
        directories, turns leaves on the way into nodes and un-shares
        every shared node it descends through."""
        cache = self._path_cache
        hit = cache.get(path)
        if hit is not None and hit[2]:
            # Write-safe hit: every node down to the parent is private,
            # so a leaf is replaced, and a private node written in
            # place, without re-walking.
            children, name = hit[0].children, hit[1]
            entry = children[name]
            if entry.__class__ is str:
                children[name] = value
                return
            if not entry.shared:
                entry.value = value
                return
        parts = _split(path)
        if not parts:
            self.root.value = value
            return
        node = self.root
        trail = [node]
        last = len(parts) - 1
        name = parts[last]
        for i in range(last):
            part = parts[i]
            child = node.children.get(part)
            if child is None:
                # Everything from here on is new: create the chain and
                # bump the existing ancestors' subtree counts once.
                created = len(parts) - i
                for ancestor in trail:
                    ancestor.count += created
                for j in range(i, last):
                    child = Node(count=len(parts) - j)
                    node.children[intern(parts[j])] = child
                    node = child
                node.children[intern(name)] = value
                self.node_count += created
                break
            if child.__class__ is str:
                # A write below a leaf: the leaf becomes a node.
                child = node.children[part] = Node(child)
            elif child.shared:
                child = node.children[part] = self._unshare(child)
            trail.append(child)
            node = child
        else:
            children = node.children
            entry = children.get(name)
            if entry is None:
                children[intern(name)] = value
                for ancestor in trail:
                    ancestor.count += 1
                self.node_count += 1
            elif entry.__class__ is str:
                children[name] = value
            else:
                if entry.shared:
                    entry = children[name] = self._unshare(entry)
                entry.value = value
        # The walk above left every node down to the parent private.
        cache = self._path_cache  # _unshare may have cleared it
        if len(cache) >= _PATH_CACHE_MAX:
            cache.clear()
        cache[path] = (node, name, True)

    def exists(self, path: str) -> bool:
        """Does ``path`` exist? (Non-raising: probing for absent nodes
        is the common case during device negotiation, so this walks
        with ``dict.get`` instead of paying exception dispatch.)"""
        if path in self._path_cache:
            return True
        node = self.root
        try:
            for part in _split(path):
                node = node.children.get(part)
                if node is None:
                    return False
        except AttributeError:  # a leaf on the way: nothing below it
            return False
        return True

    def write_node(self, path: str, value: str, fire: bool = True) -> None:
        """Create/overwrite a node (creating intermediate directories)."""
        self._store(path, value)
        self.stats["writes"] += 1
        self.transactions.record_external_write(path)
        if fire:
            self.fire_watches(path)

    def read_node(self, path: str) -> str:
        """The value at ``path`` (ENOENT if absent)."""
        self.stats["reads"] += 1
        entry = self._lookup(path)
        return entry if entry.__class__ is str else entry.value

    def directory(self, path: str) -> list[str]:
        """Sorted child names of ``path``."""
        entry = self._lookup(path)
        return [] if entry.__class__ is str else sorted(entry.children)

    def remove_node(self, path: str, fire: bool = True) -> int:
        """Remove a subtree; returns the number of nodes removed."""
        parts = _split(path)
        if not parts:
            raise XenstoreError("cannot remove the root")
        parent = self.root
        trail = [parent]
        for part in parts[:-1]:
            child = parent.children.get(part)
            if child is None or child.__class__ is str:
                raise XenstoreError(f"ENOENT: {path!r}")
            if child.shared:
                child = parent.children[part] = self._unshare(child)
            trail.append(child)
            parent = child
        target = parent.children.pop(parts[-1], None)
        if target is None:
            raise XenstoreError(f"ENOENT: {path!r}")
        removed = _nodes(target)
        if self._path_cache:
            self._path_cache.clear()
        for ancestor in trail:
            ancestor.count -= removed
        self.node_count -= removed
        self.transactions.record_external_write(path)
        if fire:
            self.fire_watches(path)
        return removed

    def _count_subtree(self, entry: Node | str) -> int:
        """From-scratch recount (consistency checks; the live path uses
        the incrementally maintained ``Node.count``). Iterative, so it
        stays usable on trees deeper than the recursion limit."""
        total = 0
        stack = [entry]
        while stack:
            current = stack.pop()
            total += 1
            if current.__class__ is not str:
                stack.extend(current.children.values())
        return total

    def subtree_nodes(self, path: str) -> int:
        """Node count of the subtree rooted at ``path`` (O(depth))."""
        return _nodes(self._lookup(path))

    def graft(self, path: str, subtree: Node | str) -> int:
        """Attach a prebuilt subtree (or a leaf value) at ``path``
        (server-side bulk create, the fast half of ``xs_clone``);
        returns the number of nodes added from ``subtree``. EEXIST if
        ``path`` is taken."""
        parts = _split(path)
        if not parts:
            raise XenstoreError("cannot graft at the root")
        node = self.root
        trail = [node]
        for part in parts[:-1]:
            child = node.children.get(part)
            if child is None:
                child = node.children[intern(part)] = Node()
                self.node_count += 1
                for ancestor in trail:
                    ancestor.count += 1
            elif child.__class__ is str:
                child = node.children[part] = Node(child)
            elif child.shared:
                child = node.children[part] = self._unshare(child)
            trail.append(child)
            node = child
        if parts[-1] in node.children:
            raise XenstoreError(f"EEXIST: {path!r}")
        if self._path_cache:
            self._path_cache.clear()
        node.children[intern(parts[-1])] = subtree
        added = _nodes(subtree)
        for ancestor in trail:
            ancestor.count += added
        self.node_count += added
        return added

    def walk(self, path: str) -> list[tuple[str, str]]:
        """All (path, value) pairs under ``path``, including it, with
        overlaid values rewritten (:func:`walk_entry`)."""
        return walk_entry(path.rstrip("/"), self._lookup(path))

    # ------------------------------------------------------------------
    # watches
    # ------------------------------------------------------------------
    def add_watch(self, path: str, token: str, callback: WatchCallback) -> int:
        """Register a watch; fires for writes at/under ``path``."""
        watch_id = next(self._watch_ids)
        watch = Watch(path, token, callback)
        self._watches[watch_id] = watch
        self._watch_index.setdefault(watch.path, {})[watch_id] = watch
        self._watch_scan = None
        return watch_id

    def remove_watch(self, watch_id: int) -> None:
        """Unregister a watch."""
        watch = self._watches.pop(watch_id, None)
        if watch is None:
            return
        bucket = self._watch_index.get(watch.path)
        if bucket is not None:
            bucket.pop(watch_id, None)
            if not bucket:
                del self._watch_index[watch.path]
                self._watch_scan = None

    def fire_watches(self, path: str) -> int:
        """Fire all watches whose path is a prefix of ``path``.

        Only the fired path's own prefixes can match, so this consults
        the watch index at each prefix (O(depth + matches)) rather than
        scanning every registered watch. Matches fire in registration
        order, and watches removed by an earlier callback still fire
        (the match list is snapshotted up front).
        """
        index = self._watch_index
        if not index:
            return 0
        normalized = path.rstrip("/") or "/"
        matched: list[tuple[int, Watch]] = []
        if normalized == "/":
            bucket = index.get("/")
            if bucket:
                matched.extend(bucket.items())
        elif len(index) <= 16:
            # Few distinct watch paths: scanning them directly is
            # cheaper than materializing every prefix of the fired path.
            scan = self._watch_scan
            if scan is None:
                scan = self._watch_scan = [
                    (wpath, "/" if wpath == "/" else f"{wpath}/", bucket)
                    for wpath, bucket in index.items()]
            for wpath, wprefix, bucket in scan:
                if normalized == wpath or (wpath != "/"
                                           and normalized.startswith(wprefix)):
                    matched.extend(bucket.items())
            if len(matched) > 1:
                matched.sort()
        else:
            prefix = ""
            for part in normalized[1:].split("/"):
                prefix = f"{prefix}/{part}"
                bucket = index.get(prefix)
                if bucket:
                    matched.extend(bucket.items())
            if len(matched) > 1:
                matched.sort()
        fired = 0
        for _watch_id, watch in matched:
            self.clock.charge(self.costs.xs_watch_fire)
            watch.callback(normalized, watch.token)
            fired += 1
        return fired

    # ------------------------------------------------------------------
    # domain introduction
    # ------------------------------------------------------------------
    def introduce_domain(self, domid: int, parent_domid: int | None = None) -> None:
        """Make the daemon aware of a domain.

        Nephele augments the introduction request with the parent ID
        (paper §5.2.1: "the introduction request being augmented with an
        additional parameter indicating the parent ID").
        """
        if domid in self.introduced:
            raise XenstoreError(f"domain {domid} already introduced")
        self.introduced[domid] = parent_domid

    def release_domain(self, domid: int) -> None:
        """Forget a (destroyed) domain."""
        self.introduced.pop(domid, None)
