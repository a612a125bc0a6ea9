"""The Session API: the canonical way to use the system.

The paper presents Rel as one coherent stack — the language, a GNF
database with transactional semantics, and libraries layered on top.  A
:class:`Session` is the corresponding programmatic object: it owns one
program — its base relations (the one store of base data, read through
:attr:`Session.database`), its rule catalog and its long-lived evaluation
state — and it is the unit that can be pooled, snapshotted, and served
from.

Separation of *definition* from *execution* is the core design:

- :meth:`Session.query` returns a :class:`PreparedQuery` — parsed and
  compiled once, executable many times, parameterizable by swapping bound
  base relations;
- :meth:`Session.define` / :meth:`insert` / :meth:`delete` update base
  data with **stratum-level invalidation**: only the SCC strata that
  (transitively) depend on the touched relation are recomputed on the
  next execution, everything else keeps its extents and instance memos;
- :meth:`Session.transact` routes through the control-relation
  transaction semantics of Section 3.4 (``output`` / ``insert`` /
  ``delete``), with the session's rules and integrity constraints in
  scope;
- every write — those above, :meth:`~Session.load`,
  :meth:`~Session.apply_batch`, :meth:`~Session.bulk_load` — is a
  transaction in the paper's sense (Sections 3.4–3.5) and ends in one
  commit step: a write that breaks an ``ic`` raises
  :class:`~repro.engine.errors.ConstraintViolation` and changes nothing.

Quickstart::

    import repro

    session = repro.connect()
    session.define("Edge", [(1, 2), (2, 3)])
    session.load('''
        def Path(x, y) : Edge(x, y)
        def Path(x, y) : exists((z) | Edge(x, z) and Path(z, y))
    ''')
    reachable = session.query("Path[1]")     # a PreparedQuery
    print(reachable.run())                   # {(2,), (3,)}
    session.insert("Edge", [(3, 4)])         # dirties only Path's stratum
    print(reachable.run())                   # {(2,), (3,), (4,)}
"""

from __future__ import annotations

import threading
import types
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple, Union)

from repro.db.gnf import check_gnf, check_gnf_changes
from repro.db.transaction import (Changes, Transaction, TransactionResult,
                                  check_constraints, fold)
from repro.engine import budget as _budget
from repro.engine.budget import EvalBudget
from repro.engine.errors import ConstraintViolation
from repro.engine.program import EngineOptions, RelProgram
from repro.lang import ast, parse_expression, parse_program
from repro.model import columns as _columns
from repro.model.relation import Relation, replacements

RelationLike = Union[Relation, Iterable[Tuple[Any, ...]]]

#: Scalar parameter types accepted by snapshot query bindings.
_SCALARS = (bool, int, float, str)

def _relation_statistics(name: str, rel: Relation) -> Dict[str, int]:
    """Per-relation size statistics: row count, approximate resident
    bytes, and how many columns the typed columnar plane covers (0 when
    the relation falls back to dict-of-tuples storage)."""
    cols = rel.columns()
    return {
        "rows": len(rel),
        "approx_bytes": rel.approx_bytes(),
        "columnar_columns": cols.arity if cols is not None else 0,
    }


def _resolve_budget(budget: Optional[EvalBudget],
                    deadline: Optional[float]) -> Optional[EvalBudget]:
    """One budget per call: an explicit :class:`EvalBudget` wins, a bare
    ``deadline`` is shorthand for ``EvalBudget(deadline=...)``."""
    if budget is not None:
        if deadline is not None:
            raise ValueError("pass either budget= or deadline=, not both")
        return budget
    if deadline is not None:
        return EvalBudget(deadline=deadline)
    return None


def _as_relation(value: RelationLike) -> Relation:
    if isinstance(value, Relation):
        return value
    try:
        return Relation(value)
    except TypeError as exc:
        raise TypeError(
            f"expected a Relation or an iterable of tuples, got {value!r}"
        ) from exc


def coerce_rows(rows: Iterable) -> list:
    """Normalize a caller's row stream to a list of tuples (a bare scalar
    row becomes a 1-tuple, matching ``Relation``'s constructor)."""
    out = []
    for row in rows:
        if isinstance(row, tuple):
            out.append(row)
        elif isinstance(row, list):
            out.append(tuple(row))
        else:
            out.append((row,))
    return out


class PreparedQuery:
    """A parsed, compiled Rel expression bound to a session.

    Parsing happens once, at preparation time; every :meth:`run` evaluates
    the stored AST against the session's current state.  Keyword arguments
    to :meth:`run` (re)bind base relations before execution, so one
    prepared query serves a family of inputs::

        tc = session.query("TC[E]")
        tc.run(E=[(1, 2), (2, 3)])
        tc.run(E=[(5, 6)])          # same compiled query, new data
    """

    __slots__ = ("session", "source", "_node")

    def __init__(self, session: "Session", source: str) -> None:
        self.session = session
        self.source = source
        self._node: ast.Node = parse_expression(source)

    def run(self, **relations: RelationLike) -> Relation:
        """Execute against the session, optionally swapping base relations.

        Bindings persist in the session (they are ordinary base-relation
        updates, applied as one batch: one maintenance pass, one snapshot
        publish, the same stratum-level invalidation)."""
        session = self.session
        with session._lock:
            if relations:
                session.apply_batch(relations)
            return session.program.query_node(self._node)

    __call__ = run

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedQuery({self.source!r})"


def _as_binding(name: str, value: Any) -> Any:
    """Convert one snapshot-query parameter: Relations pass through,
    scalars bind as values, anything iterable becomes a Relation."""
    if isinstance(value, Relation) or isinstance(value, _SCALARS):
        return value
    try:
        return Relation(value)
    except TypeError as exc:
        raise TypeError(
            f"parameter {name!r} must be a Relation, a scalar, or an "
            f"iterable of tuples, got {value!r}"
        ) from exc


class SnapshotQuery:
    """A parsed query bound to one :class:`Snapshot` — parse once, run
    many times, each run against the same frozen state.

    Unlike :meth:`PreparedQuery.run`, keyword parameters do **not**
    persist anywhere: they are environment bindings for that run only, so
    concurrent runs with different parameters never interfere. Parameters
    bind names the query expression references directly — the idiomatic
    parameterization is second-order application (``TC[P]``,
    ``count[P]``), exactly the paper's style."""

    __slots__ = ("snapshot", "source", "_node")

    def __init__(self, snapshot: "Snapshot", source: str) -> None:
        self.snapshot = snapshot
        self.source = source
        self._node: ast.Node = parse_expression(source)

    def run(self, **params: Any) -> Relation:
        return self.snapshot.execute_node(self._node, params)

    __call__ = run

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SnapshotQuery({self.source!r})"


class Snapshot:
    """A read-only, snapshot-isolated view of a :class:`Session`.

    Obtained from :meth:`Session.snapshot`. The snapshot captures the
    session's base relations, rules, and per-name generation vector at one
    instant (cheap: relations are immutable values and the engine's state
    containers are copy-on-write) and keeps serving exactly that state no
    matter what writers do afterwards — readers never block on writers and
    never observe a half-applied transaction. The warm plan, trie, and
    hash-index caches of the parent session are shared read-only, so a
    snapshot query is as fast as a warm session query.

    Any number of threads may query one snapshot concurrently; all
    mutators are absent from this surface (and raise on the underlying
    program). Statistics reported here are snapshot-local: reading them
    never creates or bumps counters in the parent session.
    """

    __slots__ = ("program", "version")

    def __init__(self, program: RelProgram, version: int) -> None:
        self.program = program  # a repro.engine.snapshot.ProgramSnapshot
        self.version = version  #: the session write-version captured

    # -- execution ---------------------------------------------------------

    def execute(self, source: str, **params: Any) -> Relation:
        """Evaluate a Rel expression against the frozen state. Keyword
        parameters are per-call environment bindings (see
        :class:`SnapshotQuery`)."""
        return self.execute_node(parse_expression(source), params)

    def execute_node(self, node: ast.Node,
                     params: Optional[Mapping[str, Any]] = None,
                     budget: Optional[EvalBudget] = None) -> Relation:
        """Evaluate an already-parsed expression (the server fast path).

        ``budget`` installs an :class:`EvalBudget` for this evaluation
        only; budgets are thread-local, so concurrent readers of the same
        snapshot each carry their own deadline."""
        bindings = {name: _as_binding(name, value)
                    for name, value in (params or {}).items()}
        if budget is None:
            return self.program.query_node(node, bindings or None)
        with _budget.scoped(budget):
            return self.program.query_node(node, bindings or None)

    def query(self, source: str) -> SnapshotQuery:
        """Prepare a query against this snapshot (parse once, run many)."""
        return SnapshotQuery(self, source)

    def relation(self, name: str) -> Relation:
        """The full extent of a defined or base relation, as of capture."""
        return self.program.relation(name)

    def ask(self, source: str) -> bool:
        return bool(self.execute(source))

    def output(self) -> Relation:
        return self.program.output()

    # -- introspection -----------------------------------------------------

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self.program.closures)
                            | set(self.program.base_relations)))

    @property
    def generations(self) -> Dict[str, int]:
        """The captured per-name generation vector: the identity of this
        snapshot's state. Two snapshots with equal vectors observe
        identical extents for every name."""
        return dict(self.program._state.name_gen)

    def statistics(self) -> Dict[str, Dict[str, int]]:
        """Per-base-relation size statistics as of capture (same shape as
        :meth:`Session.statistics`, including the ``"interner"`` key —
        the interning table is process-wide and append-only, so the live
        reading is the honest one even for a frozen view)."""
        stats = {name: _relation_statistics(name, rel)
                 for name, rel in self.program.base_relations.items()}
        stats["interner"] = _columns.interner_statistics()
        return stats

    def evaluation_counts(self) -> Dict[str, int]:
        """Snapshot-local rule-evaluation counters (start at zero)."""
        return self.program.evaluation_counts()

    def join_statistics(self) -> Dict[str, int]:
        return self.program.join_statistics()

    def plan_statistics(self) -> Dict[str, int]:
        return self.program.plan_statistics()

    def maintenance_statistics(self) -> Dict[str, int]:
        return self.program.maintenance_statistics()

    def columnar_statistics(self) -> Dict[str, int]:
        return self.program.columnar_statistics()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Snapshot(version={self.version}, "
                f"{len(self.program.base_relations)} base relations)")


class Session:
    """One program — base relations, rule catalog and long-lived
    evaluation state — behind one write lock and one commit step.

    >>> session = Session()
    >>> _ = session.define("E", [(1, 2), (2, 3)])
    >>> sorted(session.execute("TC[E]").tuples)
    [(1, 2), (1, 3), (2, 3)]
    """

    def __init__(self, database: Optional[Mapping[str, RelationLike]] = None,
                 schema: Optional[str] = None, *,
                 source: Optional[str] = None,
                 load_stdlib: bool = True,
                 enforce_gnf: bool = False,
                 options: Optional[EngineOptions] = None,
                 threads: Optional[int] = None,
                 queue_limit: Optional[int] = None,
                 admission: str = "block",
                 admission_timeout: float = 1.0,
                 path: Optional[Union[str, Path]] = None,
                 fsync: str = "batch",
                 checkpoint_every: Optional[int] = 256) -> None:
        if database is not None and path is not None:
            raise ValueError(
                "pass a mapping or a path, not both: rows in the mapping "
                "would be served but never logged; open the path and use "
                "define() or bulk_load() to make them durable")
        # Concurrency model: one re-entrant lock serializes every state
        # mutation (and direct session reads, which share the live
        # evaluation state); concurrent readers go through snapshot(),
        # which is lock-free once a snapshot has been published. The lock
        # is created first so __init__'s own load() calls go through it.
        self._lock = threading.RLock()
        self.enforce_gnf = enforce_gnf
        self._version = 0
        self._published: Optional[Snapshot] = None
        self._eager_publish = False
        self._server = None
        self._server_threads = int(threads) if threads else 0
        # Admission-control knobs for the attached QueryServer (validated
        # there, at serve() time): bounded write queue + backpressure.
        self._server_queue_limit = queue_limit
        self._server_admission = admission
        self._server_admission_timeout = admission_timeout
        self._close_started = False
        # Source texts in load order, kept with storage attached: the
        # checkpointable half of the logical state (the other half is the
        # base extents) and the dedup key that makes
        # connect(path=..., schema=...) idempotent across reopens.
        self._sources: List[str] = []
        self._storage = None
        sources: List[str] = []
        if path is not None:
            from repro.storage import StorageManager

            # Recovery happens here: latest valid checkpoint + WAL-tail
            # replay, torn final record repaired. Raises WALCorruptionError
            # on mid-log damage rather than open a state that silently
            # lost committed writes.
            self._storage = StorageManager(path, fsync=fsync,
                                           checkpoint_every=checkpoint_every)
            database = self._storage.recovered.base
            sources = self._storage.recovered.sources
        # The initial or recovered base goes in at construction time: a
        # bulk install then costs nothing, while define() per name on a
        # live program would pay one dependency invalidation each.
        self.program = RelProgram(
            database=database,
            load_stdlib=load_stdlib,
            options=options,
        )
        if enforce_gnf:
            for name, rel in self.program.durable_state().items():
                check_gnf(name, rel)
        # Replay recovered sources directly: they are already durable (in
        # the checkpoint or the WAL), so no logging and no version bumps —
        # a reopened session starts at version 0 like a fresh one, with
        # its committed state as the baseline.
        for src in sources:
            self.program.add_source(src)
            self._sources.append(src)
        if schema:
            self.load(schema)
        if source:
            self.load(source)

    @property
    def database(self) -> Mapping[str, Relation]:
        """The base relations as a read-only mapping, name → relation.

        A frozen capture of the program's base, the one store of base data:
        every write rebinds the base rather than mutating it, so a mapping
        read here never changes and is safe to iterate without the lock;
        read again to see later writes."""
        return types.MappingProxyType(self.program.durable_state())

    # -- definition --------------------------------------------------------

    def load(self, source: str) -> "Session":
        """Add Rel declarations (``def`` rules and ``ic`` constraints).

        Only the strata depending on the (re)defined names are dirtied. A
        source under which some constraint fails on the current data
        raises :class:`ConstraintViolation` and is neither logged nor
        added. On a durable session, a source text already loaded (this
        session or a recovered one) is skipped — that is what lets callers
        pass the same ``schema=`` to every ``connect(path=...)`` without
        duplicating rules on each reopen."""
        with self._lock:
            parsed = None
            if self._storage is None or source not in self._sources:
                parsed = parse_program(source)

            def log(_: Changes) -> None:
                self._storage.log_load(source)
                self._sources.append(source)

            self._commit({}, log=log, parsed=parsed)
        return self

    def define(self, name: str, relation: RelationLike) -> "Session":
        """Install or replace a base relation (GNF-checked if enforced)."""
        self.apply_batch({name: relation})
        return self

    def insert(self, name: str, tuples: RelationLike) -> "Session":
        """Insert tuples into a base relation (created on the spot).

        Dependent materialized extents are maintained incrementally (delta
        propagation through the stratified fixpoint) when the delta size
        and the occurrence analysis allow it. An empty or
        fully-duplicate delta is a true no-op: nothing is re-evaluated."""
        self._write_rows([("insert", name, _as_relation(tuples))])
        return self

    def delete(self, name: str, tuples: RelationLike) -> "Session":
        """Delete tuples from a base relation (DRed delete-rederive on
        dependent materialized extents where eligible). Deleting from a
        missing relation, or a delta that hits nothing, is a true no-op."""
        self._write_rows([("delete", name, _as_relation(tuples))])
        return self

    def apply_batch(self, updates: Mapping[str, RelationLike]) -> Changes:
        """Replace several base relations in one atomic batch.

        ``updates`` maps names to their complete new contents. The batch
        is applied under the write lock through one incremental-maintenance
        pass and published as one snapshot step — readers observe either
        none or all of it. Returns the applied net deltas, ``name →
        (plus, minus)`` (:data:`~repro.model.relation.Changes`;
        value-unchanged names are left out)."""
        converted = {name: _as_relation(value)
                     for name, value in updates.items()}
        with self._lock:
            changed = replacements(converted, self.program.durable_state())
            self._commit(changed)
            return changed

    # -- the commit step ---------------------------------------------------

    def _write_rows(self, ops: Iterable[Tuple[str, str, Relation]]) -> None:
        """Commit ``(kind, name, rows)`` inserts and deletes as one write:
        folded in order into one net delta against the base."""
        with self._lock:
            changed: Changes = {}
            base = self.program.durable_state()
            for kind, name, rows in ops:
                fold(changed, kind, name, rows, base)
            self._commit(changed)

    def _commit(self, changed: Changes,
                log: Optional[Callable[[Changes], None]] = None,
                parsed: Optional[ast.Program] = None,
                check: bool = True) -> None:
        """The one commit step every write ends in (caller holds the lock).

        ``changed`` is the write's net delta
        (:data:`~repro.model.relation.Changes`), taken once by the writer;
        ``parsed`` holds the declarations a :meth:`load` adds. In order:
        refuse a closed storage; GNF-check the delta; check the integrity
        constraints on a fork with it applied (only when some ``ic``
        exists, and not when a transaction already has); log it (``log``,
        by default as one batch record); apply it to the program in one
        maintenance pass; publish, then maybe checkpoint. A write refused
        before the WAL append leaves no trace, as an aborted transaction
        does (Section 3.5)."""
        self._check_storage()
        if not changed and parsed is None:
            return
        if self.enforce_gnf:
            check_gnf_changes(changed, self.program.durable_state())
        if check:
            self._check_constraints(changed, parsed)
        if self._storage is not None:
            (log or self._storage.log_batch)(changed)
        with _budget.scoped(None):
            if parsed is not None:
                self.program._ingest(parsed)
            if changed:
                self.program.apply_updates(changed)
        self._mutated()
        self._maybe_checkpoint()

    def _check_constraints(self, changed: Changes,
                           parsed: Optional[ast.Program]) -> None:
        """Raise :class:`ConstraintViolation` — the first failing ``ic``
        and its witnesses — if the write breaks a constraint, checked on one
        fork with ``parsed`` ingested and ``changed`` applied (none while
        no ``ic`` exists)."""
        if not self.program.constraints and not (parsed is not None and any(
                isinstance(decl, ast.ICDef) for decl in parsed.declarations)):
            return
        program = self.program.fork()
        if parsed is not None:
            program._ingest(parsed)
        program.apply_updates(changed)
        failed = {name: rel for name, rel
                  in check_constraints(program).items() if rel}
        if failed:
            first = min(failed)
            raise ConstraintViolation(first, failed[first])

    # -- execution ---------------------------------------------------------

    def query(self, source: str) -> PreparedQuery:
        """Prepare a query: parse/compile once, execute many."""
        return PreparedQuery(self, source)

    def execute(self, source: str, *,
                budget: Optional[EvalBudget] = None,
                deadline: Optional[float] = None) -> Relation:
        """One-shot: prepare and run.

        ``deadline`` (seconds) or an explicit ``budget=``
        :class:`EvalBudget` bounds the evaluation; exceeding it raises
        :class:`~repro.engine.errors.QueryTimeoutError` /
        :class:`~repro.engine.errors.QueryBudgetError` and is safe to
        retry — the abort discards partial fixpoint state rather than
        installing it."""
        resolved = _resolve_budget(budget, deadline)
        with self._lock:
            node = parse_expression(source)
            if resolved is None:
                return self.program.query_node(node)
            with _budget.scoped(resolved):
                return self.program.query_node(node)

    def relation(self, name: str) -> Relation:
        """The full extent of a defined or base relation."""
        with self._lock:
            return self.program.relation(name)

    def ask(self, source: str) -> bool:
        """Boolean query: is the result non-empty?"""
        return bool(self.execute(source))

    def output(self) -> Relation:
        """The ``output`` control relation of the session's rules."""
        with self._lock:
            return self.program.output()

    # -- snapshots and serving ---------------------------------------------

    @property
    def version(self) -> int:
        """Monotone write-version: bumped once per completed mutation."""
        return self._version

    def _mutated(self) -> None:
        """Record a completed write (caller holds the lock): bump the
        version and atomically publish a fresh snapshot (or invalidate the
        stale one when nobody has asked for snapshots yet).

        Publication is deliberately *eager* once snapshots are in use:
        the capture cost (shallow dict copies) is paid by the writer so
        that ``snapshot()`` stays a lock-free attribute read — rebuilding
        lazily would be cheaper for write-only bursts but would make the
        first reader after a write block behind any in-flight writer,
        breaking the readers-never-block-on-writers guarantee."""
        self._version += 1
        if self._eager_publish:
            self._published = Snapshot(self.program.snapshot(), self._version)
        else:
            self._published = None

    def snapshot(self) -> Snapshot:
        """The current :class:`Snapshot`: an immutable view of all writes
        completed so far.

        After the first call, every completed write republishes eagerly,
        so this read is a single lock-free attribute load — readers never
        block on writers (a writer that is mid-transaction is simply not
        yet visible). Successive calls between writes return the *same*
        snapshot object, so its warm extents and caches are shared."""
        snap = self._published
        if snap is None:
            with self._lock:
                if self._published is None:
                    self._eager_publish = True
                    self._published = Snapshot(self.program.snapshot(),
                                               self._version)
                snap = self._published
        return snap

    def serve(self, threads: Optional[int] = None,
              queue_limit: Optional[int] = None,
              admission: Optional[str] = None,
              admission_timeout: Optional[float] = None):
        """The session's :class:`~repro.server.QueryServer` (started on
        first use): a thread pool evaluating prepared queries against
        snapshots, plus a serialized, coalescing write queue.

        With no argument, returns whatever server is attached (creating
        one sized by ``connect(threads=N)``, else 4). With an explicit
        ``threads``, asking for a *different* count than the running
        server's raises (close() it first) rather than silently handing
        back a pool of the wrong size. A server that was closed directly
        (e.g. by its context manager) is discarded and replaced.

        ``queue_limit`` / ``admission`` / ``admission_timeout`` override
        the session-level knobs from :func:`connect` when a *new* server
        is created here (they are ignored when one is already attached):
        a bounded write queue whose full-queue policy is ``"block"``
        (backpressure the producer), ``"reject"`` (raise
        :class:`~repro.server.AdmissionError` immediately), or
        ``"timeout"`` (block up to ``admission_timeout`` seconds, then
        raise)."""
        from repro.server import QueryServer

        with self._lock:
            if self._server is not None and self._server.closed:
                self._server = None
            if self._server is None:
                self._server = QueryServer(
                    self,
                    threads=(threads if threads is not None
                             else self._server_threads or 4),
                    queue_limit=(queue_limit if queue_limit is not None
                                 else self._server_queue_limit),
                    admission=(admission if admission is not None
                               else self._server_admission),
                    admission_timeout=(
                        admission_timeout if admission_timeout is not None
                        else self._server_admission_timeout))
            elif threads is not None and self._server.threads != threads:
                raise ValueError(
                    f"session already serves with "
                    f"{self._server.threads} threads; close() it before "
                    f"requesting {threads}"
                )
            return self._server

    @property
    def server(self):
        """The attached :class:`~repro.server.QueryServer` (created on
        first access): shorthand for :meth:`serve` with no argument."""
        return self.serve()

    def close(self) -> None:
        """Shut down the attached query server (draining its write queue —
        pending batches still reach the WAL), then seal durable storage.
        After close, reads keep working; mutations on a durable session
        raise :class:`~repro.storage.StorageClosedError`.

        Idempotent and safe under concurrent callers: exactly one caller
        detaches the server (the others see it already gone), the server
        and storage close protocols are themselves reentrant, and a
        deferred background-checkpoint error is raised by whichever
        caller reaches storage first — once, after resources are
        released."""
        with self._lock:
            self._close_started = True
            server, self._server = self._server, None
        # Outside the session lock: draining the write queue re-enters
        # apply_batch, which needs the lock (close-during-flush must not
        # deadlock).
        if server is not None:
            server.close()
        storage = self._storage
        if storage is not None:
            storage.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun. Reads keep working on a
        closed session; durable mutations raise
        :class:`~repro.storage.StorageClosedError`."""
        return self._close_started

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- durable storage ---------------------------------------------------

    def _check_storage(self) -> None:
        """Refuse mutations once durable storage is sealed — called before
        any state is touched, so a closed session never diverges from its
        log."""
        if self._storage is not None and self._storage.closed:
            from repro.storage import StorageClosedError

            raise StorageClosedError(
                "session storage is closed; reopen with connect(path=...)"
            )

    def _maybe_checkpoint(self) -> None:
        """Kick off a background checkpoint when the WAL has grown past
        the ``checkpoint_every`` record threshold (caller holds the lock;
        at most one checkpoint is in flight)."""
        if self._storage is not None and self._storage.checkpoint_due:
            self._storage.begin_checkpoint(self._sources,
                                           self.program.durable_state())

    def checkpoint(self) -> "Session":
        """Write a snapshot checkpoint *now* and wait for it.

        Afterwards the WAL tail is empty: reopening replays zero records
        (the fast path :mod:`benchmarks.bench_storage` measures). No-op
        guard: raises on a session without storage."""
        with self._lock:
            if self._storage is None:
                raise ValueError(
                    "checkpoint() requires a durable session — open one "
                    "with connect(path=...)"
                )
            self._check_storage()
            self._storage.begin_checkpoint(self._sources,
                                           self.program.durable_state(),
                                           wait=True)
        return self

    def sync(self) -> "Session":
        """Durability barrier: every committed write is fsync'd (under the
        ``"always"``/``"batch"`` policies) when this returns. A no-op on
        non-durable sessions, so callers can sprinkle it unconditionally."""
        with self._lock:
            if self._storage is not None and not self._storage.closed:
                self._storage.sync()
        return self

    def bulk_load(self, name: str, rows: Iterable) -> int:
        """Stream many rows into a base relation as *one* committed batch.

        This is the high-throughput ingest path: however many rows arrive,
        the cost is one relation union, one incremental-maintenance pass,
        one snapshot publish, and (durable sessions) one WAL record that
        carries the rows inline — versus one of each *per call* on the
        :meth:`insert` path. Returns the number of rows that were actually
        new."""
        coerced = coerce_rows(rows)
        with self._lock:
            changed = fold({}, "insert", name, Relation(coerced),
                           self.program.durable_state())
            self._commit(changed, log=lambda _: self._storage.log_bulk(
                name, coerced))
            return len(changed[name][0]) if name in changed else 0

    def storage_statistics(self) -> Dict[str, int]:
        """Durability counters (``wal_appends``, ``wal_bytes``,
        ``checkpoints``, ``recoveries``, ``replayed_records``,
        ``bulk_rows``); ``{}`` on a session without storage. Reading this
        never creates state."""
        if self._storage is None:
            return {}
        return self._storage.statistics()

    # -- transactions ------------------------------------------------------

    def transact(self, source: str) -> TransactionResult:
        """Run a transaction (Section 3.4) with the session's rules and
        constraints in scope.

        Control relations drive it: ``output`` is returned, ``insert`` /
        ``delete`` requests are applied atomically unless an integrity
        constraint is violated, in which case nothing changes — including
        the session's computed extents.

        The transaction evaluates and checks on a private fork of the warm
        session program (see :mod:`repro.db.transaction`) and hands its net
        changes to the session's commit step, which does not check them
        again."""
        with self._lock:
            return Transaction(
                self.program,
                lambda changed: self._commit(changed, check=False),
            ).execute(source)

    # -- introspection -----------------------------------------------------

    def names(self) -> Tuple[str, ...]:
        """All defined names: base relations and rule-defined relations."""
        return tuple(sorted(set(self.program.closures)
                            | set(self.program.durable_state())))

    def evaluation_counts(self) -> Dict[str, int]:
        """Per-relation rule-evaluation counters (incremental-reuse hook):
        an unchanged stratum keeps its count across updates and queries."""
        return self.program.evaluation_counts()

    def join_statistics(self) -> Dict[str, int]:
        """How many conjunctions were evaluated by the multiway-join path,
        per strategy ("leapfrog" / "binary") — the explain counter for
        checking that a query hit the worst-case-optimal path."""
        return self.program.join_statistics()

    def plan_statistics(self) -> Dict[str, int]:
        """Plan-cache explain counters ("compiled", "hits", "fallbacks",
        "invalidated"): rule bodies and query conjunctions are compiled
        once into executable plans and replayed across fixpoint
        iterations, incremental maintenance, and prepared-query re-runs —
        a warm session shows "hits" far above "compiled". Rule changes
        drop exactly the dependent plans (stratum-level invalidation);
        data updates leave plans warm."""
        return self.program.plan_statistics()

    def columnar_statistics(self) -> Dict[str, int]:
        """Columnar-kernel explain counters: per-kernel hit counts
        ("join", "dedupe", "project", "union", "filter", "fold") and the
        matching "*_fallback" counts for inputs the typed plane declined —
        the observability hook for checking that a workload actually runs
        vectorized."""
        return self.program.columnar_statistics()

    def maintenance_statistics(self) -> Dict[str, int]:
        """Per-event maintenance counters ("maintained_strata",
        "keyed_strata", "keyed_keys", "recomputed_strata",
        "overdeleted_tuples", "rederived_tuples", …) — the explain hook
        for checking that an update took the incremental path, mirroring
        :meth:`join_statistics`. A keyed stratum was re-evaluated only on
        the ``keyed_keys`` keys its write touched."""
        return self.program.maintenance_statistics()

    def statistics(self) -> Dict[str, Dict[str, int]]:
        """Per-base-relation size statistics: ``rows`` (fact count),
        ``approx_bytes`` (resident size estimate — exact vector bytes for
        typed relations, a per-tuple heuristic for dict fallback), and
        ``columnar_columns`` (how many columns the typed plane covers; 0
        means the relation is on the dict-of-tuples path). One extra key,
        ``"interner"``, reports the process-wide string interning table
        (``strings`` registered, ``approx_bytes`` retained) — process-wide
        because the table is shared by every session, checkpoint codec
        block, and snapshot in the process; its growth is the cost of
        string-typed columns staying vectorized."""
        with self._lock:
            stats: Dict[str, Dict[str, int]] = {
                name: _relation_statistics(name, rel)
                for name, rel in self.program.durable_state().items()}
        stats["interner"] = _columns.interner_statistics()
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Session({len(self.database)} base relations, "
                f"{len(self.program.closures)} defined names)")


def connect(database: Optional[Mapping[str, RelationLike]] = None,
            schema: Optional[str] = None, **kwargs: Any) -> Session:
    """Open a :class:`Session` — the front door of the system.

    ``database`` is a mapping of name → :class:`~repro.model.Relation` (or
    iterable of tuples) to start from (copied on ingest — later mutation of
    the caller's mapping never leaks into the session); ``schema`` is Rel
    source (rules and integrity constraints) loaded at connect time.
    ``threads=N`` sizes the session's :attr:`Session.server` thread pool
    for concurrent serving (see :mod:`repro.server`); ``queue_limit=N``
    bounds its write queue and ``admission`` picks the backpressure policy
    when the queue is full (``"block"`` / ``"reject"`` / ``"timeout"``
    with ``admission_timeout`` seconds). Per-query resource governance comes
    from :meth:`Session.execute`'s ``deadline=``/``budget=`` and
    :meth:`~repro.server.QueryServer.submit`'s matching knobs
    (:class:`repro.EvalBudget`).

    ``path=<dir>`` makes the session *durable*: every committed batch is
    appended to a write-ahead log under that directory, snapshot
    checkpoints fold the log into :mod:`repro.storage.checkpoint` files in
    the background, and reopening the same path crash-recovers the
    committed state (latest valid checkpoint + WAL-tail replay, torn final
    records tolerated). ``fsync`` tunes the durability/latency trade
    (``"always"`` / ``"batch"`` / ``"never"``, see
    :class:`repro.storage.wal.WALWriter`) and ``checkpoint_every=N``
    checkpoints after every N log records (``None`` = only explicit
    :meth:`Session.checkpoint` calls). A durable session starts from what
    the directory holds, so ``path`` does not combine with a ``database``
    mapping (``ValueError``). On a durable session, ``schema=``
    is idempotent across reopens and :meth:`Session.bulk_load` offers the
    high-throughput ingest path. Remaining keyword arguments are forwarded
    to :class:`Session`."""
    return Session(database, schema, **kwargs)
