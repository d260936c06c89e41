"""Xenstore transactions.

The xs_clone API of paper Fig. 2 takes an ``xs_transaction_t``; this
module provides them. Transactions buffer writes/removes and validate,
at commit time, that no node read or written inside the transaction was
modified concurrently (oxenstored's optimistic concurrency: conflicting
commits fail with EAGAIN and the client retries).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.xenstore.store import XenstoreDaemon, XenstoreError


class TransactionConflict(XenstoreError):
    """EAGAIN: the transaction raced with another commit."""


@dataclass
class _Op:
    kind: str  # "write" | "rm"
    path: str
    value: str = ""


@dataclass
class Transaction:
    tid: int
    #: Store generation when the transaction started.
    start_generation: int
    ops: list[_Op] = field(default_factory=list)
    #: Paths read or written (the conflict footprint).
    footprint: set[str] = field(default_factory=set)
    #: Local view of pending writes, for read-your-writes.
    pending: dict[str, str | None] = field(default_factory=dict)
    closed: bool = False


class TransactionManager:
    """Optimistic transactions over one Xenstore daemon."""

    def __init__(self, daemon: XenstoreDaemon) -> None:
        self.daemon = daemon
        self._tids = itertools.count(1)
        self._open: dict[int, Transaction] = {}
        #: Bumped on every committed mutation; per-path generations are
        #: tracked for precise conflict detection.
        self.generation = 0
        #: A write at generation g can only conflict with a transaction
        #: that started before g, so both maps are kept only while a
        #: transaction is open and cleared when the last one closes.
        self._path_generation: dict[str, int] = {}
        #: Subtree-granularity generations: ``xs_clone`` records one
        #: entry for the grafted root instead of one per copied node;
        #: commits check each footprint path's prefixes against it.
        self._prefix_generation: dict[str, int] = {}
        self.stats = {"commits": 0, "aborts": 0, "conflicts": 0}

    # ------------------------------------------------------------------
    def start(self) -> Transaction:
        """Open a transaction pinned to the current store generation."""
        transaction = Transaction(tid=next(self._tids),
                                  start_generation=self.generation)
        self._open[transaction.tid] = transaction
        return transaction

    def get(self, tid: int) -> Transaction:
        """The open transaction ``tid`` (error if closed/unknown)."""
        transaction = self._open.get(tid)
        if transaction is None or transaction.closed:
            raise XenstoreError(f"no such transaction: {tid}")
        return transaction

    # ------------------------------------------------------------------
    # operations inside a transaction
    # ------------------------------------------------------------------
    def write(self, transaction: Transaction, path: str, value: str) -> None:
        """Buffer a write; applied at commit."""
        transaction.ops.append(_Op("write", path, value))
        transaction.footprint.add(path)
        transaction.pending[path] = value

    def remove(self, transaction: Transaction, path: str) -> None:
        """Buffer a removal; applied at commit."""
        transaction.ops.append(_Op("rm", path))
        transaction.footprint.add(path)
        transaction.pending[path] = None

    def read(self, transaction: Transaction, path: str) -> str:
        """Read-your-writes view over the committed store."""
        transaction.footprint.add(path)
        if path in transaction.pending:
            value = transaction.pending[path]
            if value is None:
                raise XenstoreError(f"ENOENT: {path!r} (removed in txn)")
            return value
        return self.daemon.read_node(path)

    # ------------------------------------------------------------------
    # commit / abort
    # ------------------------------------------------------------------
    def commit(self, transaction: Transaction) -> None:
        """Apply atomically; raises :class:`TransactionConflict` if any
        footprint path changed since the transaction started."""
        if transaction.closed:
            raise XenstoreError(f"transaction {transaction.tid} is closed")
        try:
            # An injected conflict follows the exact EAGAIN contract: it
            # counts as a conflict and closes the transaction, so the
            # client must restart it (which is what run_transaction's
            # bounded retry does).
            self.daemon.faults.fire("xenstore.txn_commit",
                                    tid=transaction.tid)
        except TransactionConflict:
            self.stats["conflicts"] += 1
            self._close(transaction)
            raise
        start = transaction.start_generation
        prefix_generation = self._prefix_generation
        for path in transaction.footprint:
            if self._path_generation.get(path, 0) > start:
                self.stats["conflicts"] += 1
                self._close(transaction)
                raise TransactionConflict(
                    f"EAGAIN: {path!r} changed during transaction "
                    f"{transaction.tid}")
            if prefix_generation:
                # A bulk subtree write conflicts with any footprint
                # path at or under the written root: walk the O(depth)
                # prefixes of the footprint path.
                prefix = path.rstrip("/") or "/"
                while True:
                    if prefix_generation.get(prefix, 0) > start:
                        self.stats["conflicts"] += 1
                        self._close(transaction)
                        raise TransactionConflict(
                            f"EAGAIN: {path!r} changed during transaction "
                            f"{transaction.tid}")
                    if prefix == "/":
                        break
                    cut = prefix.rfind("/")
                    prefix = prefix[:cut] or "/"
        for op in transaction.ops:
            self.generation += 1
            self._path_generation[op.path] = self.generation
            if op.kind == "write":
                self.daemon.write_node(op.path, op.value)
            else:
                if self.daemon.exists(op.path):
                    self.daemon.remove_node(op.path)
        self.stats["commits"] += 1
        self._close(transaction)

    def record_external_write(self, path: str) -> None:
        """Mark a non-transactional mutation (for conflict detection)."""
        self.generation += 1
        if self._open:
            self._path_generation[path] = self.generation

    def record_subtree_write(self, path: str, nodes: int) -> None:
        """Mark a bulk subtree graft of ``nodes`` nodes rooted at
        ``path`` — one O(1) record equivalent to ``nodes`` individual
        :meth:`record_external_write` calls (the generation advances by
        the same amount, and any transaction whose footprint touches
        the subtree conflicts via the prefix check in :meth:`commit`)."""
        self.generation += nodes
        if self._open:
            self._prefix_generation[path.rstrip("/") or "/"] = self.generation

    def abort(self, transaction: Transaction) -> None:
        """Discard the transaction's buffered operations."""
        self.stats["aborts"] += 1
        self._close(transaction)

    def _close(self, transaction: Transaction) -> None:
        transaction.closed = True
        self._open.pop(transaction.tid, None)
        if not self._open:
            self._path_generation.clear()
            self._prefix_generation.clear()

    @property
    def open_count(self) -> int:
        return len(self._open)
