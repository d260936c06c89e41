"""Xenstore client handle (libxenstore's ``xs_handle``).

Every method is one request to the daemon and is charged accordingly;
this is what makes deep-copy cloning expensive and ``xs_clone`` cheap.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.xenstore.clone import DomidRewrite, XsCloneOp, xs_clone
from repro.xenstore.store import WatchCallback, XenstoreDaemon, XenstoreError


class XsHandle:
    """A client connection to the Xenstore daemon."""

    def __init__(self, daemon: XenstoreDaemon, client: str = "dom0") -> None:
        self.daemon = daemon
        self.client = client
        self.requests_issued = 0

    def _request(self, extra: float = 0.0) -> None:
        self.requests_issued += 1
        self.daemon.charge_request(extra)

    # ------------------------------------------------------------------
    # plain operations
    # ------------------------------------------------------------------
    def write(self, path: str, value: str) -> None:
        """XS_WRITE."""
        self._request()
        self.daemon.write_node(path, value)

    def read(self, path: str) -> str:
        """XS_READ (raises on ENOENT)."""
        self._request()
        return self.daemon.read_node(path)

    def read_maybe(self, path: str) -> str | None:
        """XS_READ returning None instead of raising."""
        self._request()
        try:
            return self.daemon.read_node(path)
        except Exception:
            return None

    def mkdir(self, path: str) -> None:
        """XS_MKDIR."""
        self._request()
        self.daemon.write_node(path, "")

    def rm(self, path: str) -> int:
        """XS_RM: remove a subtree; returns nodes removed."""
        self._request()
        return self.daemon.remove_node(path)

    def directory(self, path: str) -> list[str]:
        """XS_DIRECTORY."""
        self._request()
        return self.daemon.directory(path)

    def exists(self, path: str) -> bool:
        """Existence probe (one request)."""
        self._request()
        return self.daemon.exists(path)

    def watch(self, path: str, token: str, callback: WatchCallback) -> int:
        """XS_WATCH; returns the watch id."""
        self._request()
        return self.daemon.add_watch(path, token, callback)

    def unwatch(self, watch_id: int) -> None:
        """XS_UNWATCH."""
        self._request()
        self.daemon.remove_watch(watch_id)

    # ------------------------------------------------------------------
    # transactions (the xs_transaction_t of paper Fig. 2)
    # ------------------------------------------------------------------
    def transaction_start(self) -> int:
        """XS_TRANSACTION_START; returns the transaction id."""
        self._request()
        return self.daemon.transactions.start().tid

    def t_write(self, tid: int, path: str, value: str) -> None:
        """Buffered write inside transaction ``tid``."""
        self._request()
        manager = self.daemon.transactions
        manager.write(manager.get(tid), path, value)

    def t_read(self, tid: int, path: str) -> str:
        """Read inside ``tid`` (sees the transaction's own writes)."""
        self._request()
        manager = self.daemon.transactions
        return manager.read(manager.get(tid), path, self.daemon)

    def t_rm(self, tid: int, path: str) -> None:
        """Buffered removal inside transaction ``tid``."""
        self._request()
        manager = self.daemon.transactions
        manager.remove(manager.get(tid), path)

    def transaction_end(self, tid: int, commit: bool = True) -> None:
        """Commit (or abort). Raises TransactionConflict on EAGAIN."""
        self._request()
        manager = self.daemon.transactions
        transaction = manager.get(tid)
        if commit:
            manager.commit(transaction, self.daemon)
        else:
            manager.abort(transaction)

    def run_transaction(self, build: Callable[["XsHandle", int], Any],
                        max_attempts: int = 8) -> Any:
        """Run ``build(handle, tid)`` inside a transaction, retrying on
        EAGAIN with bounded exponential (virtual-time) backoff.

        This is how real libxenstore clients handle oxenstored's
        optimistic concurrency: a conflicting commit closes the
        transaction, the client backs off and replays its operations
        against a fresh one. Returns ``build``'s result; raises the
        final :class:`TransactionConflict` once ``max_attempts`` commits
        all conflicted.
        """
        from repro.xenstore.transactions import TransactionConflict

        faults = self.daemon.faults
        for attempt in range(max_attempts):
            if attempt:
                # Deterministic exponential backoff, charged to the
                # virtual clock (failure paths only).
                self.daemon.clock.charge(
                    self.daemon.costs.xs_txn_retry_backoff
                    * (2 ** (attempt - 1)))
            tid = self.transaction_start()
            try:
                result = build(self, tid)
                self.transaction_end(tid, commit=True)
            except TransactionConflict:
                if attempt + 1 >= max_attempts:
                    faults.aborted("xenstore.txn_commit")
                    raise
                continue
            except XenstoreError:
                # Non-conflict failure: abort the open transaction (the
                # commit conflict path closes it itself) and propagate.
                manager = self.daemon.transactions
                if tid in manager._open:
                    self.transaction_end(tid, commit=False)
                raise
            if attempt:
                faults.recovered("xenstore.txn_commit")
            return result
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # domain management
    # ------------------------------------------------------------------
    def introduce_domain(self, domid: int, parent_domid: int | None = None) -> None:
        """XS_INTRODUCE, with Nephele's parent-ID augmentation."""
        self._request()
        self.daemon.introduce_domain(domid, parent_domid)

    def release_domain(self, domid: int) -> None:
        """XS_RELEASE."""
        self._request()
        self.daemon.release_domain(domid)

    # ------------------------------------------------------------------
    # Nephele extension
    # ------------------------------------------------------------------
    def clone(self, parent_domid: int, child_domid: int, op: XsCloneOp,
              parent_path: str, child_path: str, tid: int = 0) -> int:
        """The xs_clone request of paper Fig. 2; returns nodes created.

        ``tid`` is the transaction (0 = XBT_NULL, immediate apply).
        """
        with self.daemon.tracer.span("xenstore.xs_clone", op=op.value):
            self._request(extra=self.daemon.costs.xs_clone_base)
            transaction = (self.daemon.transactions.get(tid) if tid
                           else None)
            return xs_clone(self.daemon, parent_domid, child_domid, op,
                            parent_path, child_path, transaction)

    def deep_copy(self, parent_domid: int, child_domid: int,
                  parent_path: str, child_path: str,
                  rewrite: bool = True) -> int:
        """Clone a directory the pre-Nephele way: one read of the parent
        subtree, then one write request per node (paper §6.1, the
        "clone + XS deep copy" series). Returns nodes written."""
        with self.daemon.tracer.span("xenstore.deep_copy") as span:
            self._request()  # the read of the parent subtree
            entries = self.daemon.walk(parent_path)
            # xencloned-side rewriting work, per node.
            self.daemon.clock.charge(
                self.daemon.costs.xencloned_deep_copy_per_node * len(entries))
            domid_rewrite = DomidRewrite(parent_domid, child_domid)
            written = 0
            for path, value in entries:
                suffix = path[len(parent_path):]
                if rewrite and value:
                    key = path.rstrip("/").rsplit("/", 1)[-1]
                    value = domid_rewrite(key, value)
                self._request()
                self.daemon.write_node(child_path + suffix, value,
                                       fire=(written == 0))
                written += 1
            self.daemon.fire_watches(child_path)
            span.set(nodes=written)
        return written
