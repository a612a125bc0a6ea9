"""A threaded query server over one Session: snapshot reads, queued writes.

The paper's system serves a relational knowledge graph to many concurrent
users; :class:`QueryServer` is the in-process shape of that front end:

- **reads** — :meth:`submit` parses each query once (per source text),
  hands it to a thread pool, and evaluates it against the session's
  current :class:`~repro.api.Snapshot`. Readers share the warm plan, trie,
  and hash-index caches read-only and never block on writers: a write in
  flight is simply not yet visible.
- **writes** — :meth:`insert` / :meth:`delete` / :meth:`define` /
  :meth:`load` / :meth:`transact` enqueue onto a single writer thread.
  Consecutive insert/delete requests are **coalesced**: the writer drains
  the queue, folds them into one net ``(plus, minus)`` delta per relation
  (as a direct :meth:`Session.insert`/:meth:`Session.delete` folds its
  own), and commits it through the session's commit step — one
  incremental-maintenance pass and one atomic snapshot publish for the
  entire burst. Every enqueued operation gets a
  :class:`~concurrent.futures.Future` resolved when its batch commits.
  Every write reaches the session's one commit step, so integrity
  constraints hold on all of them: when a coalesced run breaks one, the
  run is re-applied op by op and only the violating ops' futures raise
  :class:`~repro.engine.errors.ConstraintViolation`.

Consistency model: writes are serialized and applied in submission order;
a read observes the latest snapshot *published when the read executes*.
For read-your-writes, wait on the write's future (or :meth:`flush`) before
submitting the read.

Quickstart::

    import repro

    session = repro.connect(threads=4)
    session.load("def Path(x, y) : E(x, y)")
    server = session.server
    server.insert("E", [(1, 2)]).result()     # write barrier
    future = server.submit("Path[1]")         # concurrent snapshot read
    print(future.result())                    # {(2,)}
    session.close()
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, Mapping, Optional

from repro.engine.budget import EvalBudget
from repro.engine.errors import (ConstraintViolation, QueryBudgetError,
                                 QueryTimeoutError)
from repro.lang import ast, parse_expression
from repro.model.relation import Relation


class ServerClosedError(RuntimeError):
    """Raised when submitting to a server that has been shut down."""


class AdmissionError(RuntimeError):
    """A write was refused by the admission policy: the bounded write
    queue was full (``admission="reject"``) or stayed full past the
    admission timeout (``admission="timeout"``). The op was *not*
    enqueued; the caller decides whether to retry, shed, or block."""

_ADMISSION_POLICIES = ("block", "reject", "timeout")


class _WriteOp:
    """One queued write: an op kind, its arguments, and the caller's future."""

    __slots__ = ("kind", "name", "payload", "future")

    def __init__(self, kind: str, name: Optional[str], payload: Any) -> None:
        self.kind = kind
        self.name = name
        self.payload = payload
        self.future: Future = Future()


_CLOSE = object()


class QueryServer:
    """A thread-pool front end over one :class:`~repro.api.Session`."""

    def __init__(self, session, threads: int = 4,
                 name: str = "repro-server",
                 queue_limit: Optional[int] = None,
                 admission: str = "block",
                 admission_timeout: float = 1.0) -> None:
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        if queue_limit is not None and queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if admission not in _ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {admission!r}; expected one of "
                + ", ".join(repr(p) for p in _ADMISSION_POLICIES))
        if admission_timeout <= 0:
            raise ValueError(
                f"admission_timeout must be positive, got {admission_timeout}")
        self.session = session
        self.threads = threads
        self.queue_limit = queue_limit
        self.admission = admission
        self.admission_timeout = admission_timeout
        self._closed = False
        # drain=False close: the writer resolves remaining queued futures
        # with ServerClosedError instead of applying them.
        self._abort = False
        self._readers = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix=f"{name}-read")
        # Bounded when queue_limit is set: admission control happens at
        # the enqueue site, under the write gate. maxsize=0 = unbounded,
        # the PR-5 behavior.
        self._writes: "queue.Queue[Any]" = queue.Queue(
            maxsize=queue_limit or 0)
        # Guards the closed-flag/enqueue pair: once close() has queued the
        # _CLOSE sentinel, no write op can slip in behind it (an op that
        # lost that race would never resolve its future).
        self._write_gate = threading.Lock()
        self._prepared: Dict[str, ast.Node] = {}
        self._prepared_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._stats = {"queries": 0, "write_ops": 0, "write_batches": 0,
                       "coalesced_ops": 0, "timeouts": 0, "budget_aborts": 0,
                       "rejected": 0, "queue_depth_max": 0}
        self._writer = threading.Thread(
            target=self._write_loop, name=f"{name}-write", daemon=True)
        self._writer.start()

    # -- reads -------------------------------------------------------------

    #: Cap for the per-source parse cache (evicts oldest half on overflow,
    #: like every other long-lived cache in the engine).
    PREPARED_LIMIT = 1024

    def _node(self, source: str) -> ast.Node:
        node = self._prepared.get(source)
        if node is None:
            parsed = parse_expression(source)
            with self._prepared_lock:
                if len(self._prepared) >= self.PREPARED_LIMIT:
                    for old_key in list(self._prepared)[
                            : self.PREPARED_LIMIT // 2]:
                        self._prepared.pop(old_key, None)
                node = self._prepared.setdefault(source, parsed)
        return node

    def submit(self, query: str,
               params: Optional[Mapping[str, Any]] = None,
               on_result: Optional[Callable[[Relation], Any]] = None,
               *,
               deadline: Optional[float] = None,
               budget: Optional[EvalBudget] = None,
               max_rows: Optional[int] = None,
               max_iterations: Optional[int] = None) -> Future:
        """Evaluate ``query`` on the pool against the current snapshot.

        ``params`` are per-call environment bindings (Relations, scalars,
        or iterables of tuples) — they persist nowhere, so one prepared
        query serves many concurrent parameterizations. ``on_result``, if
        given, runs in the worker thread with the result before the future
        resolves (the hook for response serialization / streaming the
        result back to a client).

        ``deadline`` / ``max_rows`` / ``max_iterations`` (or an explicit
        ``budget=`` :class:`~repro.engine.budget.EvalBudget`) bound the
        evaluation. The deadline clock starts *now*, at submission, so
        pool queue wait counts against it — a saturated server times out
        rather than silently growing its backlog. Exceeding a budget
        *cancels the underlying evaluation* cooperatively (the worker
        aborts at its next budget check and discards partial state) and
        the future raises the typed error. The budget rides on the future
        as ``future.eval_budget``; calling its ``cancel()`` aborts a
        running evaluation from any thread (see :meth:`cancel`)."""
        if self._closed:
            raise ServerClosedError("submit on a closed QueryServer")
        node = self._node(query)
        if budget is not None:
            if (deadline is not None or max_rows is not None
                    or max_iterations is not None):
                raise ValueError(
                    "pass either budget= or deadline=/max_rows="
                    "/max_iterations=, not both")
        elif (deadline is not None or max_rows is not None
                or max_iterations is not None):
            budget = EvalBudget(deadline=deadline, max_rows=max_rows,
                                max_iterations=max_iterations)
        frozen = dict(params) if params else None
        try:
            future = self._readers.submit(
                self._read, node, frozen, on_result, budget)
        except RuntimeError as exc:
            # Lost the race against close(): the pool refused the task.
            raise ServerClosedError("submit on a closed QueryServer") from exc
        if budget is not None:
            future.eval_budget = budget
        return future

    def cancel(self, future: Future) -> None:
        """Best-effort cancellation of a submitted read: cancels the
        future if it has not started, and cancels its budget (if the read
        was submitted with one) so a *running* evaluation aborts at its
        next cooperative check with
        :class:`~repro.engine.errors.QueryCancelledError`."""
        future.cancel()
        budget = getattr(future, "eval_budget", None)
        if budget is not None:
            budget.cancel()

    def _read(self, node: ast.Node, params, on_result,
              budget: Optional[EvalBudget] = None) -> Relation:
        snapshot = self.session.snapshot()
        try:
            result = snapshot.execute_node(node, params, budget)
        except QueryTimeoutError:
            with self._stats_lock:
                self._stats["timeouts"] += 1
            raise
        except QueryBudgetError:
            # Row/iteration limits and cross-thread cancels both land
            # here (QueryCancelledError subclasses QueryBudgetError).
            with self._stats_lock:
                self._stats["budget_aborts"] += 1
            raise
        with self._stats_lock:
            self._stats["queries"] += 1
        if on_result is not None:
            on_result(result)
        return result

    def execute(self, query: str,
                params: Optional[Mapping[str, Any]] = None,
                **limits: Any) -> Relation:
        """Synchronous :meth:`submit` (accepts the same budget knobs)."""
        return self.submit(query, params, **limits).result()

    # -- writes ------------------------------------------------------------

    def _enqueue(self, op: _WriteOp) -> Future:
        """Admission-controlled enqueue. With a bounded queue, a full
        queue either blocks the producer (``"block"`` — backpressure
        propagates to the caller), refuses immediately (``"reject"``), or
        blocks up to ``admission_timeout`` seconds (``"timeout"``); the
        refused op raises :class:`AdmissionError` and is never queued.
        Blocking happens while holding the write gate, so later producers
        queue up behind the gate in arrival order — the writer thread
        never takes the gate and keeps draining, which is what guarantees
        a blocked producer (and a close() behind it) always makes
        progress."""
        with self._write_gate:
            if self._closed:
                raise ServerClosedError("write on a closed QueryServer")
            try:
                if self.queue_limit is None or self.admission == "block":
                    self._writes.put(op)
                elif self.admission == "reject":
                    self._writes.put_nowait(op)
                else:  # "timeout"
                    self._writes.put(op, timeout=self.admission_timeout)
            except queue.Full:
                with self._stats_lock:
                    self._stats["rejected"] += 1
                raise AdmissionError(
                    f"write queue full ({self.queue_limit} ops, "
                    f"admission={self.admission!r})") from None
            depth = self._writes.qsize()
        with self._stats_lock:
            if depth > self._stats["queue_depth_max"]:
                self._stats["queue_depth_max"] = depth
        return op.future

    def insert(self, name: str, tuples) -> Future:
        """Queue an insert; resolves (with the session) after its batch
        commits. Consecutive inserts/deletes coalesce into one
        maintenance pass."""
        return self._enqueue(_WriteOp("insert", name, Relation(tuples)))

    def delete(self, name: str, tuples) -> Future:
        """Queue a delete (same batching as :meth:`insert`)."""
        return self._enqueue(_WriteOp("delete", name, Relation(tuples)))

    def define(self, name: str, relation) -> Future:
        """Queue a full base-relation replacement."""
        return self._enqueue(_WriteOp("define", name, relation))

    def load(self, source: str) -> Future:
        """Queue Rel declarations (rules / integrity constraints)."""
        return self._enqueue(_WriteOp("load", None, source))

    def transact(self, source: str) -> Future:
        """Queue a control-relation transaction; the future resolves with
        its :class:`~repro.db.transaction.TransactionResult`."""
        return self._enqueue(_WriteOp("transact", None, source))

    def flush(self) -> None:
        """Barrier: block until every write queued so far has committed —
        and, on a durable session, been fsync'd to the write-ahead log
        (under the ``"always"``/``"batch"`` policies)."""
        self._enqueue(_WriteOp("barrier", None, None)).result()

    # -- the writer thread -------------------------------------------------

    def _write_loop(self) -> None:
        while True:
            op = self._writes.get()
            if op is _CLOSE:
                return
            batch = [op]
            while True:
                try:
                    nxt = self._writes.get_nowait()
                except queue.Empty:
                    break
                if nxt is _CLOSE:
                    self._finish(batch)
                    return
                batch.append(nxt)
            self._finish(batch)

    def _finish(self, batch) -> None:
        """Apply the batch — or, after close(drain=False), resolve every
        queued future with ServerClosedError instead. Either way no
        accepted op's future is left pending."""
        if self._abort:
            for op in batch:
                if op.future.set_running_or_notify_cancel():
                    op.future.set_exception(ServerClosedError(
                        "QueryServer closed without draining; "
                        "queued write abandoned"))
            return
        self._apply(batch)

    def _apply(self, batch) -> None:
        """Apply one drained batch in submission order, coalescing runs of
        insert/delete into single atomic commits."""
        with self._stats_lock:
            self._stats["write_ops"] += len(batch)
            self._stats["write_batches"] += 1
        i = 0
        while i < len(batch):
            if batch[i].kind in ("insert", "delete"):
                j = i
                while j < len(batch) and batch[j].kind in ("insert", "delete"):
                    j += 1
                self._apply_deltas(batch[i:j])
                i = j
            else:
                self._apply_one(batch[i])
                i += 1

    def _apply_deltas(self, group) -> None:
        """Fold one run of insert/delete ops into one net delta, as a direct
        :meth:`Session.insert`/:meth:`~Session.delete` folds its own, and
        commit it as a single batch (one maintenance pass and publish)."""
        # Claim every future first: a cancelled op (pending Future) must be
        # skipped — not applied — and completing it later would raise
        # InvalidStateError out of the writer thread, killing the queue.
        group = [op for op in group
                 if op.future.set_running_or_notify_cancel()]
        if not group:
            return
        session = self.session
        with session._lock:
            try:
                session._write_rows((op.kind, op.name, op.payload)
                                    for op in group)
            except BaseException as exc:
                if isinstance(exc, ConstraintViolation) and len(group) > 1:
                    # Some op breaks a constraint: re-apply the run op by
                    # op, in submission order, so only the violating fail.
                    for op in group:
                        self._settle(op, getattr(session, op.kind),
                                     op.name, op.payload)
                else:
                    for op in group:
                        op.future.set_exception(exc)
                return
        if len(group) > 1:
            with self._stats_lock:
                self._stats["coalesced_ops"] += len(group) - 1
        for op in group:
            op.future.set_result(None)

    def _apply_one(self, op: _WriteOp) -> None:
        if not op.future.set_running_or_notify_cancel():
            return  # cancelled while queued: skip, don't apply
        session = self.session
        if op.kind == "define":
            self._settle(op, session.define, op.name, op.payload)
        elif op.kind == "load":
            self._settle(op, session.load, op.payload)
        elif op.kind == "transact":
            self._settle(op, session.transact, op.payload, keep=True)
        else:
            # flush() doubles as the durability barrier: on a durable
            # session, every write committed before the barrier is
            # fsync'd (policy permitting) by the time the caller's future
            # resolves. Non-durable sessions: sync() is a no-op.
            self._settle(op, session.sync)

    @staticmethod
    def _settle(op: _WriteOp, call: Callable[..., Any], *args: Any,
                keep: bool = False) -> None:
        """Run one write and resolve its (already claimed) future: with the
        call's result when ``keep``, else with ``None``."""
        try:
            result = call(*args)
        except BaseException as exc:
            op.future.set_exception(exc)
        else:
            op.future.set_result(result if keep else None)

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; the session discards closed
        servers and builds a fresh one on the next :meth:`Session.serve`."""
        return self._closed

    def statistics(self) -> Dict[str, int]:
        """Server counters: queries served, write ops/batches, and how many
        write ops were absorbed into an earlier batch ("coalesced_ops").

        On a durable session the storage counters ride along under a
        ``storage_`` prefix (``storage_wal_appends``, …), so one poll of
        the serving surface answers both "how busy" and "how durable"."""
        with self._stats_lock:
            stats = dict(self._stats)
        for key, value in self.session.storage_statistics().items():
            stats[f"storage_{key}"] = value
        return stats

    def robustness_statistics(self) -> Dict[str, int]:
        """The resource-governance counters: ``timeouts`` (reads that hit
        their deadline), ``budget_aborts`` (row/iteration limits and
        cancels), ``rejected`` (writes refused by admission control),
        ``queue_depth_max`` (high-water mark of the write queue), and
        ``retries`` (storage-layer retried I/O operations — 0 on a
        non-durable session)."""
        with self._stats_lock:
            stats = {key: self._stats[key]
                     for key in ("timeouts", "budget_aborts", "rejected",
                                 "queue_depth_max")}
        stats["retries"] = \
            self.session.storage_statistics().get("retries", 0)
        return stats

    def close(self, wait: bool = True, drain: bool = True) -> None:
        """Stop the writer and shut the pool down; every accepted write's
        future resolves, with its result (``drain=True``, the default —
        queued batches still commit and reach the WAL) or with
        :class:`ServerClosedError` (``drain=False`` — queued-but-unapplied
        writes are abandoned; the op the writer is mid-apply still
        completes). In-flight reads always run to completion.

        Ordering is guaranteed by the write gate: every accepted write
        precedes the close sentinel in the queue, so its future resolves
        before the writer exits — no accepted op is ever dropped.
        Idempotent and safe under concurrent callers: one caller queues
        the sentinel, and every ``wait=True`` caller blocks until the
        writer has exited and the pool is down."""
        with self._write_gate:
            if not self._closed:
                self._closed = True
                if not drain:
                    self._abort = True
                # Blocking put: on a full bounded queue the writer is
                # still draining, so the sentinel always lands.
                self._writes.put(_CLOSE)
        if wait:
            self._writer.join()
        self._readers.shutdown(wait=wait)

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"QueryServer({self.threads} threads, {state})"
