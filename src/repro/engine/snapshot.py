"""Copy-on-write program snapshots: frozen read views for concurrent sessions.

The paper positions Rel as the language of a relational knowledge-graph
*system* serving many users; this module supplies the engine half of that
story. A :class:`ProgramSnapshot` is an immutable view of a
:class:`~repro.engine.program.RelProgram` at one generation vector:

- **what is captured** — the base-relation mapping, the rule catalog and
  its static analyses (strata, materializability, transitive refs), and
  the per-name generation counters. All of these are cheap shallow
  captures because every :class:`RelProgram` mutator rebinds fresh
  containers instead of mutating in place (copy-on-write), and
  :class:`~repro.model.relation.Relation` values are immutable;
- **what is shared** — the parent's warm evaluation caches: compiled
  plans, sorted tries, hash-join indexes, prefix indexes, binding-guard
  skeletons, and instance memos. The snapshot's state is an
  :class:`~repro.engine.program.EvalState` built with the parent's as its
  parent: each cache is read own entry first, then the parent's through
  one atomic ``dict.get`` (safe against a concurrent writer under the
  GIL), and a parent hit is validated against the snapshot's *captured*
  rules generations or identity pins, so a reader can never observe a
  cache entry from a future program state. Everything the snapshot computes,
  evicts, drops or counts stays in its own dicts — snapshots never write
  to (or invalidate) the parent's caches or counters;
- **what is isolated per reader thread** — the in-progress instance
  approximations and touch stacks of demand-driven evaluation, and the
  orderability recursion stack. These are genuinely per-*evaluation*
  state, so :class:`SnapshotState`/:class:`SnapshotContext` keep them in
  ``threading.local`` storage, letting any number of threads evaluate
  against one snapshot concurrently.

Materialization of the snapshot's strata ("warming") happens once, under
the snapshot's private lock; after that the read path takes no locks at
all. Writers never take a snapshot lock, so readers never block writers
and writers never block readers — the serialization point is only between
writers, in the session layer (:class:`repro.api.Session`).

A :class:`ProgramFork` is the same capture with the mutators left on: a
transaction adds its rules and applies its updates to the fork, whose
writes all land in the overlays, then either applies its net changes to
the live program or drops the fork.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.engine.errors import EvaluationError, SafetyError
from repro.engine.expand import Frame, NotOrderable, eval_relation
from repro.engine.program import (EvalContext, EvalState, RelProgram,
                                  _plane_stats)
from repro.engine.runtime import Env
from repro.lang import ast
from repro.model.relation import Relation


class SnapshotWriteError(EvaluationError):
    """Raised when a mutating operation is attempted on a snapshot."""


class SnapshotState(EvalState):
    """The :class:`EvalState` of a snapshot or fork, built with the live
    state as its parent, whose demand-evaluation state is per thread."""

    # The inherited lookup, bound on this class as well so it can be
    # replaced here on its own (``tests/support/oracles.py`` does).
    atom_index = EvalState.atom_index

    def __init__(self, parent: EvalState) -> None:
        super().__init__(parent)
        self._local = threading.local()

    @property
    def in_progress(self) -> Dict[Tuple[Any, ...], Relation]:
        store = self._local
        value = getattr(store, "in_progress", None)
        if value is None:
            value = store.in_progress = {}
        return value

    @property
    def touch_stack(self) -> List[Set[Tuple[Any, ...]]]:
        store = self._local
        value = getattr(store, "touch_stack", None)
        if value is None:
            value = store.touch_stack = []
        return value


class SnapshotContext(EvalContext):
    """An :class:`EvalContext` whose orderability recursion stack is
    per-thread (the result cache is snapshot-private and shared across the
    snapshot's readers — all of them see the same frozen rules)."""

    def __init__(self, program: "_CapturedProgram", state: SnapshotState,
                 options, orderable_cache: Dict[Tuple[Any, ...], bool]) -> None:
        self.program = program
        self.state = state
        self.options = options
        # Seeded from the parent context: every entry there was computed
        # under exactly the rule catalog this snapshot captured.
        self._orderable_cache = dict(orderable_cache)
        self._local = threading.local()

    @property
    def _orderable_stack(self) -> Set[Tuple[Any, ...]]:
        store = self._local
        value = getattr(store, "stack", None)
        if value is None:
            value = store.stack = set()
        return value


class _CapturedProgram(RelProgram):
    """A :class:`RelProgram` adopting a parent's state copy-on-write: the
    capture :class:`ProgramSnapshot` and :class:`ProgramFork` share."""

    def __init__(self, parent: RelProgram) -> None:
        # Deliberately no super().__init__: the view adopts the parent's
        # containers. Every RelProgram mutator rebinds fresh containers
        # (copy-on-write), so these references stay frozen even while the
        # parent keeps evolving.
        self.options = dataclasses.replace(parent.options)
        self._base = parent._base
        self._rules = parent._rules
        self._constraints = parent._constraints
        self.closures = parent.closures
        self._materialized = parent._materialized
        self._recursive = parent._recursive
        self._strata = parent._strata
        # Lazily-filled analysis caches are *copied*, not shared: inherited
        # RelProgram code fills them during evaluation (_refs_of,
        # delta_variants_of), and a reader thread writing into the
        # parent's live dicts would violate the snapshots-never-write-to-
        # the-parent contract the cache sharing above depends on. Entries
        # themselves are pure functions of the captured rule catalog.
        self._refs_cache = dict(parent._refs_cache)
        self._rule_refs = dict(parent._rule_refs)
        self._all_refs = parent._all_refs
        self._variant_cache = dict(parent._variant_cache)
        self._state = SnapshotState(parent._state)
        self._ctx = SnapshotContext(self, self._state, self.options,
                                    parent._ctx._orderable_cache)
        self._evaluating = False


class ProgramFork(_CapturedProgram):
    """A private, writable copy of a live program: the transaction layer's
    scratch state (Section 3.4/3.5).

    Built by :meth:`RelProgram.fork`. It captures and shares exactly what a
    :class:`ProgramSnapshot` does, but keeps every :class:`RelProgram`
    mutator: :meth:`add_source` and :meth:`apply_updates` rebind the fork's
    own containers, and its :class:`SnapshotState` keeps extents,
    generations, counters and cache writes in its own dicts. So the
    parent never observes the fork, and dropping the fork is the whole
    rollback. Confined to one thread, and valid only while the parent does
    not move (the session's write lock covers both)."""


class ProgramSnapshot(_CapturedProgram):
    """A frozen :class:`RelProgram` view: evaluates, never mutates.

    Built by :meth:`RelProgram.snapshot`. Queries, relation lookups, and
    statistics work exactly as on a live program — against the captured
    state — and any number of threads may use one snapshot concurrently.
    All mutators raise :class:`SnapshotWriteError`.
    """

    def __init__(self, parent: RelProgram) -> None:
        super().__init__(parent)
        self._warm = False
        self._warm_lock = threading.RLock()

    # -- thread-safe read path ---------------------------------------------

    def _ensure_warm(self) -> None:
        """Materialize the snapshot's strata exactly once. Only the first
        reader pays (and only for strata the parent had not materialized);
        afterwards the read path takes no locks."""
        if self._warm:
            return
        with self._warm_lock:
            if not self._warm:
                RelProgram.evaluate(self)
                self._warm = True

    def durable_state(self) -> "Mapping[str, Relation]":
        """The snapshot's captured base mapping, verbatim.

        Inherited behavior, restated as a contract: a snapshot's ``_base``
        was already frozen at capture time, so the storage layer may hand
        this mapping to a background checkpoint writer without holding any
        lock — no writer will ever mutate it (writers rebind the *parent*'s
        ``_base``; this object keeps the old one alive)."""
        return self._base

    def evaluate(self) -> Dict[str, Relation]:
        self._ensure_warm()
        return dict(self._state.extents)

    def relation(self, name: str) -> Relation:
        self._ensure_warm()
        return RelProgram.relation(self, name)

    def query_node(self, node: ast.Node,
                   bindings: Optional[Dict[str, Any]] = None) -> Relation:
        """Evaluate a parsed expression against the snapshot.

        ``bindings`` (name → :class:`Relation` or scalar) are overlaid as
        environment bindings for this evaluation only — the parameter
        mechanism of server-side prepared queries: unlike
        :meth:`Session.define`, they persist nowhere and shadow program
        relations of the same name just for this call."""
        self._ensure_warm()
        env = Env(dict(bindings)) if bindings else Env.EMPTY
        # Plane events (lazy dict builds on shared columnar-native extents
        # included) land in the snapshot's own counters, never the parent's.
        with _plane_stats(self._state):
            try:
                return eval_relation(node, Frame(env, frozenset()), self._ctx)
            except NotOrderable as exc:
                raise SafetyError(str(exc)) from exc

    # -- frozen surface ----------------------------------------------------

    def _frozen(self, operation: str) -> SnapshotWriteError:
        return SnapshotWriteError(
            f"cannot {operation} on a snapshot: snapshots are immutable "
            f"read views — apply writes to the live Session/RelProgram and "
            f"take a new snapshot"
        )

    def add_source(self, source: str) -> None:
        raise self._frozen("add rules")

    def define(self, name: str, relation: Relation) -> None:
        raise self._frozen("define a base relation")

    def apply_updates(self, updates) -> None:
        raise self._frozen("apply updates")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ProgramSnapshot({len(self._base)} base relations, "
                f"{len(self.closures)} defined names)")
