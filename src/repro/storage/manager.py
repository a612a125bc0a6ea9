""":class:`StorageManager` — the durable session's one storage handle.

Owns the live WAL segment, the background checkpoint thread, and every
counter ``Session.storage_statistics()`` reports. The session calls in
under its own write lock, so nothing here needs locking against
*callers*; the only internal concurrency is the checkpoint writer thread,
which works exclusively on data captured at rotation time (immutable
relations + a copied source list).

Checkpoint rotation protocol (caller holds the session lock):

1. close the live segment (fsync per policy) — it is now frozen;
2. open the next segment; subsequent appends land there;
3. capture the COW state (every program mutator rebinds its base mapping,
   so the captured items never mutate under us);
4. hand (state, through_segment=frozen index) to a daemon thread that
   writes the checkpoint, swaps ``CURRENT``, and deletes covered segments
   and older checkpoints.

A crash at any step loses no committed record: until ``CURRENT`` swaps,
recovery uses the previous checkpoint plus all segments after it — the
frozen segment included.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple, TypeVar)

from repro.model.relation import Relation
from repro.storage import checkpoint as ckpt, codec, wal
from repro.storage.errors import CheckpointError, StorageClosedError
from repro.storage.recovery import RecoveredState, recover_state

_T = TypeVar("_T")

#: Every live manager, so a forked child can poison inherited handles.
_live_managers: "weakref.WeakSet[StorageManager]" = weakref.WeakSet()


def _poison_managers_after_fork() -> None:
    """Neutralize every inherited StorageManager in a forked child.

    The child shares the parent's WAL file descriptors (and their file
    offsets) and inherits the checkpoint daemon thread as a dead husk —
    any write from the child would interleave bytes into the parent's
    segment, and close() would flush buffers the parent still owns. Mark
    each manager fork-poisoned: writes raise
    :class:`~repro.storage.errors.StorageClosedError` and close() becomes
    a no-op that never touches the shared descriptors. The parent's
    manager is untouched. The engine itself never forks; this guard
    protects processes users fork themselves.
    """
    for manager in list(_live_managers):
        manager._poison_after_fork()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX containers
    os.register_at_fork(after_in_child=_poison_managers_after_fork)


class RetryPolicy:
    """Bounded exponential backoff for transient I/O failures.

    ``attempts`` is the *total* number of tries (so ``attempts=4`` means
    one initial try plus up to three retries); delays double from
    ``base_delay`` and saturate at ``max_delay``. Only :class:`OSError`
    is retried — a full disk that stays full exhausts the budget and the
    final error propagates unchanged."""

    __slots__ = ("attempts", "base_delay", "max_delay")

    def __init__(self, attempts: int = 4, base_delay: float = 0.001,
                 max_delay: float = 0.05) -> None:
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        if base_delay < 0 or max_delay < base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return min(self.base_delay * (2 ** (attempt - 1)), self.max_delay)


class StorageManager:
    """Durability engine behind ``connect(path=...)``."""

    def __init__(self, path, *, fsync: str = "batch",
                 checkpoint_every: Optional[int] = 256,
                 retry: Optional[RetryPolicy] = None) -> None:
        self.directory = Path(path)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        #: Auto-checkpoint after this many WAL records (None/0 = manual).
        self.checkpoint_every = checkpoint_every or 0
        self.retry = retry if retry is not None else RetryPolicy()

        self.recovered: RecoveredState = recover_state(self.directory)
        self._repair_torn_tail()

        if self.recovered.tail_segment is not None:
            live_index = self.recovered.tail_segment
        else:
            live_index = self.recovered.through_segment + 1
        self._live_index = live_index
        self._writer = wal.WALWriter(
            wal.segment_path(self.directory, live_index), fsync=fsync)

        self._next_ckpt_index = (self.recovered.checkpoint_index or 0) + 1
        # A reopen that replayed a long tail is checkpoint-hungry: count the
        # replayed records toward the threshold so the tail gets folded in.
        self._records_since_ckpt = self.recovered.replayed_records
        self._ckpt_thread: Optional[threading.Thread] = None
        self._ckpt_error: Optional[BaseException] = None
        #: A failed checkpoint leaves this set so the next rotation retries
        #: as soon as one more record lands (degraded, not dead).
        self._ckpt_retry = False

        self._closed = False
        self._fork_poisoned = False
        self._close_lock = threading.Lock()
        _live_managers.add(self)

        self._stats = {
            "wal_appends": 0,
            "wal_bytes": 0,
            "checkpoints": 0,
            "checkpoint_errors": 0,
            "recoveries": 1 if self.recovered.found_existing else 0,
            "replayed_records": self.recovered.replayed_records,
            "bulk_rows": 0,
            "retries": 0,
        }

    # -- recovery repair ---------------------------------------------------

    def _repair_torn_tail(self) -> None:
        """Truncate the final segment's torn bytes so new appends follow
        the last committed record instead of burying it behind garbage."""
        rec = self.recovered
        if rec.tail_segment is None or rec.torn_bytes == 0:
            return
        path = wal.segment_path(self.directory, rec.tail_segment)
        with open(path, "r+b") as f:
            f.truncate(rec.tail_good_bytes)
            f.flush()
            os.fsync(f.fileno())

    # -- logging -----------------------------------------------------------

    def log_load(self, source: str) -> None:
        self._append({"op": "load", "source": source})

    def log_batch(
        self, updates: Mapping[str, Tuple[Relation, Relation]]
    ) -> None:
        """One record per committed batch: ``{name: (plus, minus)}``."""
        if not updates:
            return
        self._append({
            "op": "batch",
            "updates": {
                name: [codec.encode_relation(plus),
                       codec.encode_relation(minus)]
                for name, (plus, minus) in updates.items()
            },
        })

    def log_bulk(self, name: str, rows: List[tuple]) -> None:
        """One record per bulk load, its rows inline."""
        self._append({"op": "bulk", "name": name,
                      "rows": [codec.encode_row(r) for r in rows]})
        self._stats["bulk_rows"] += len(rows)

    def _retrying(self, what: str, fn: Callable[[], _T]) -> _T:
        """Run ``fn`` under the retry policy: transient :class:`OSError`
        failures back off and retry; the last attempt's error propagates.
        Every retried attempt bumps the ``retries`` counter."""
        policy = self.retry
        attempt = 1
        while True:
            try:
                return fn()
            except OSError:
                if attempt >= policy.attempts:
                    raise
                self._stats["retries"] += 1
                time.sleep(policy.delay(attempt))
                attempt += 1

    def _append(self, payload: Dict[str, Any]) -> None:
        if self._closed:
            raise StorageClosedError(
                "write on a closed durable session — reopen with "
                "connect(path=...)"
            )
        # Safe to retry: a failed append truncates the segment back to its
        # committed prefix (WALWriter._repair), so each attempt starts clean.
        self._stats["wal_bytes"] += self._retrying(
            "wal append", lambda: self._writer.append(payload))
        self._stats["wal_appends"] += 1
        self._records_since_ckpt += 1

    # -- checkpoints -------------------------------------------------------

    @property
    def checkpoint_due(self) -> bool:
        if self._checkpoint_in_flight():
            return False
        if self._ckpt_retry and self._records_since_ckpt >= 1:
            # Degraded: the last checkpoint failed; retry at the first
            # opportunity instead of waiting out a full threshold.
            return True
        return (self.checkpoint_every > 0
                and self._records_since_ckpt >= self.checkpoint_every)

    def _checkpoint_in_flight(self) -> bool:
        return self._ckpt_thread is not None and self._ckpt_thread.is_alive()

    def begin_checkpoint(self, sources: Iterable[str],
                         base: Mapping[str, Relation], *,
                         wait: bool = False) -> bool:
        """Rotate the WAL and snapshot (sources, base) in the background.

        Caller holds the session lock; returns False when a checkpoint is
        already in flight (and ``wait`` is False)."""
        if self._closed:
            raise StorageClosedError("checkpoint on a closed session")
        if self._checkpoint_in_flight():
            if not wait:
                return False
            self.wait_for_checkpoint()
        elif wait:
            # Only the explicit (wait=True) path surfaces an older failure
            # up front; the auto-rotation path is the *retry* of that
            # failure and must not throw into an unrelated write call.
            self._raise_pending_checkpoint_error()

        try:
            # Freezing the old segment can hit a (transient or injected)
            # fsync failure; its records are already flushed to the OS, so
            # degrade — count it against the checkpoint, keep rotating.
            self._writer.close()
        except OSError as exc:
            self._note_checkpoint_failure(exc)
        through = self._live_index
        self._live_index += 1
        self._writer = self._retrying(
            "wal rotate",
            lambda: wal.WALWriter(
                wal.segment_path(self.directory, self._live_index),
                fsync=self.fsync))
        self._records_since_ckpt = 0

        index = self._next_ckpt_index
        self._next_ckpt_index += 1
        captured_sources = list(sources)
        captured_base = list(base.items())
        self._ckpt_thread = threading.Thread(
            target=self._write_checkpoint,
            args=(index, through, captured_sources, captured_base),
            name=f"repro-checkpoint-{index}",
            daemon=True,
        )
        self._ckpt_thread.start()
        if wait:
            self.wait_for_checkpoint()
        return True

    def _write_checkpoint(self, index: int, through: int,
                          sources: List[str],
                          base: List[Tuple[str, Relation]]) -> None:
        try:
            do_fsync = self.fsync != "never"
            path = self._retrying(
                "checkpoint write",
                lambda: ckpt.write_checkpoint(
                    self.directory, index, through_segment=through,
                    sources=sources, base=base, do_fsync=do_fsync))
            self._retrying(
                "checkpoint publish",
                lambda: ckpt.set_current(
                    self.directory, path.name, do_fsync=do_fsync))
            for segment in wal.list_segments(self.directory):
                if wal.segment_index(segment) <= through:
                    segment.unlink(missing_ok=True)
            for old in ckpt.list_checkpoints(self.directory):
                if ckpt.checkpoint_index(old) < index:
                    old.unlink(missing_ok=True)
            self._stats["checkpoints"] += 1
            # Success supersedes any earlier failure: the durable state is
            # now checkpointed, so nothing remains to warn about at close.
            self._ckpt_retry = False
            self._ckpt_error = None
        except BaseException as exc:  # surfaced via stats and on close/sync
            self._note_checkpoint_failure(exc)

    def _note_checkpoint_failure(self, exc: BaseException) -> None:
        """Record a checkpoint failure without interrupting the write path:
        the WAL keeps accepting records (they still recover by replay), the
        failure shows in ``statistics()["checkpoint_errors"]`` immediately,
        close()/sync() re-raise it, and the next rotation retries."""
        self._ckpt_error = exc
        self._ckpt_retry = True
        self._stats["checkpoint_errors"] += 1

    def wait_for_checkpoint(self) -> None:
        if self._ckpt_thread is not None:
            self._ckpt_thread.join()
            self._ckpt_thread = None
        self._raise_pending_checkpoint_error()

    def _raise_pending_checkpoint_error(self) -> None:
        if self._ckpt_error is not None:
            exc, self._ckpt_error = self._ckpt_error, None
            raise CheckpointError(
                f"background checkpoint failed: {exc}") from exc

    # -- lifecycle ---------------------------------------------------------

    def sync(self) -> None:
        """Durability barrier: every logged record is fsync'd (policy
        permitting) when this returns. Re-raises a pending background
        checkpoint failure — the barrier is where degraded state must
        become visible to callers that asked for durability."""
        if not self._closed:
            self._retrying("wal sync", self._writer.sync)
            self._raise_pending_checkpoint_error()

    def _poison_after_fork(self) -> None:
        """Forked-child guard (see :func:`_poison_managers_after_fork`):
        mark closed without touching the descriptors the parent owns."""
        self._fork_poisoned = True
        self._closed = True
        self._ckpt_thread = None
        # The close lock may have been captured mid-acquire; replace it so
        # the child's (no-op) close can never deadlock.
        self._close_lock = threading.Lock()

    def close(self) -> None:
        """Idempotent and safe under concurrent callers: exactly one
        caller tears the manager down; the writer is always closed
        *before* any deferred checkpoint failure is re-raised, so a
        degraded session still releases its resources."""
        if self._fork_poisoned:
            # Forked child: the descriptors belong to the parent; flushing
            # or closing them here would corrupt the parent's WAL.
            return
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            thread = self._ckpt_thread
            self._ckpt_thread = None
        if thread is not None and thread.is_alive():
            thread.join()
        writer_error: Optional[BaseException] = None
        try:
            self._writer.close()
        except OSError as exc:
            writer_error = exc
        self._raise_pending_checkpoint_error()
        if writer_error is not None:
            raise writer_error

    @property
    def closed(self) -> bool:
        return self._closed

    def statistics(self) -> Dict[str, int]:
        return dict(self._stats)
