"""Transactions: query execution with control relations (Section 3.4).

"The execution of a query against a database is called a transaction. A
transaction performs computation using derived relations and interacts with
the environment using control relations" — ``output``, ``insert``, and
``delete``. When a transaction terminates, changes are persisted, unless it
is aborted (for instance, when integrity constraints are violated,
Section 3.5).

``insert`` and ``delete`` address target base relations by :class:`Symbol`
(``:Name``) in their first column; targets need not exist beforehand —
"if ClosedOrders does not exist, it will be created on the spot".

Evaluation: a transaction runs on a :meth:`~RelProgram.fork` of the live
program over the database — the session's own program, or one built on the
database for a standalone :class:`Transaction`. The fork shares the warm
extents, plans and indexes read-only; only the transaction source is
parsed, and only what it adds or changes is evaluated. Constraints are
checked on the same fork after the net changes are applied to it. Abort is
dropping the fork: the live program, its caches and its counters were never
touched. Commit hands the checked net changes to a ``commit`` callback —
the session's commit step, which logs, installs and maintains them like
every other session write — or, for a standalone transaction, applies them
to the live program in one maintenance pass and installs the result into
the database. Either way they travel as one net delta (:data:`Changes`).

Concurrency: the fork is thread-confined and the database changes only at
commit. The session layer runs the whole execute-check-commit sequence
under its write lock and publishes the post-state as one snapshot, so
concurrent snapshot readers see a committed transaction's effects all at
once or not at all (atomicity, Section 3.4/3.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.db.database import Database
from repro.db.gnf import check_gnf_changes
from repro.engine import budget as _budget
from repro.engine import builtins as bi
from repro.engine.errors import EvaluationError
from repro.engine.expand import eval_rule
from repro.engine.program import EngineOptions, RelProgram, _plane_stats
from repro.engine.runtime import Env, compile_rule
from repro.lang import ast
from repro.lang.nnf import negate
from repro.model.relation import EMPTY, Changes, Relation, replacements
from repro.model.values import Symbol

#: The reserved control relation names of Section 3.4.
CONTROL_RELATIONS = frozenset({"output", "insert", "delete"})


def fold(changes: Changes, kind: str, name: str, rows: Relation,
         database: Database) -> Changes:
    """Fold an ``"insert"`` or ``"delete"`` of ``rows`` into ``changes``,
    the pending delta of a write to ``database``, and return it: the one
    no-op rule of every insert and delete. Each row is probed against the
    base, so the cost is the write's size, not the base's."""
    base = database.get(name, None)
    if base is None and name not in changes:
        if kind == "insert":
            changes[name] = (rows, EMPTY)
        return changes
    plus, minus = changes.get(name, (EMPTY, EMPTY))
    stored = base if base is not None else EMPTY
    if kind == "insert":
        plus = plus.union(rows.missing_from(stored))
        minus = minus.difference(rows)
    else:
        plus = plus.difference(rows)
        minus = minus.union(rows.difference(rows.missing_from(stored)))
    if base is None or plus or minus:
        changes[name] = (plus, minus)
    else:
        changes.pop(name, None)
    return changes


@dataclass
class TransactionResult:
    """Outcome of one transaction.

    ``changed`` is the commit's net delta (:data:`Changes`), as fed to
    incremental maintenance and, in a session, to the write-ahead log."""

    committed: bool
    output: Relation
    inserted: Dict[str, Relation] = field(default_factory=dict)
    deleted: Dict[str, Relation] = field(default_factory=dict)
    violations: Dict[str, Relation] = field(default_factory=dict)
    aborted_by: Optional[str] = None
    changed: Changes = field(default_factory=dict)


class Transaction:
    """One query execution against a database.

    >>> db = Database({"P": Relation([(1,), (2,)])})
    >>> txn = Transaction(db)
    >>> result = txn.execute("def output(x) : P(x) and x > 1")
    >>> sorted(result.output.tuples)
    [(2,)]
    """

    def __init__(self, database: Database,
                 options: Optional[EngineOptions] = None,
                 load_stdlib: bool = True,
                 program: Optional[RelProgram] = None,
                 commit: Optional[Callable[[Changes], None]] = None) -> None:
        self.database = database
        self.options = options
        self.load_stdlib = load_stdlib
        #: The live program over ``database`` whose rules, constraints and
        #: warm state are in scope (the session layer passes its own);
        #: ``None`` builds one on ``database`` per execution.
        self.program = program
        #: Takes the checked net changes (possibly none) in place of the
        #: install-and-maintain below: the session passes its commit step.
        self.commit = commit

    def execute(self, source: str) -> TransactionResult:
        """Run a Rel program; commit its effects unless a constraint fails.

        The program's rules are evaluated against the current database
        state; ``insert``/``delete`` requests are folded into the net delta
        (deletes first), constraints are checked on the *post-state*, and
        only then is the database mutated.
        """
        program = self.program
        if program is None:
            program = RelProgram(database=self.database.as_mapping(),
                                 load_stdlib=self.load_stdlib,
                                 options=self.options)
        fork = program.fork()
        fork.add_source(source)
        output, inserted, deleted = (
            fork.relation(name) if name in fork.closures else EMPTY
            for name in ("output", "insert", "delete"))
        inserted = _split_by_target(inserted)
        deleted = _split_by_target(deleted)

        changed: Changes = {}
        for kind, requests in (("delete", deleted), ("insert", inserted)):
            for name, rows in requests.items():
                fold(changed, kind, name, rows, self.database)

        # Check integrity constraints against the post-state (Section 3.5:
        # "If a transaction violates a constraint, it is aborted").
        failed: Dict[str, Relation] = {}
        if fork.constraints:
            fork.apply_updates(changed)
            failed = {name: rel for name, rel
                      in check_constraints(fork).items() if rel}
        if failed:
            return TransactionResult(
                committed=False,
                output=output,
                inserted=inserted,
                deleted=deleted,
                violations=failed,
                aborted_by=sorted(failed)[0],
            )

        # Commit: the caller's commit step, or our own.
        if self.commit is not None:
            self.commit(changed)
        elif changed:
            if self.database.enforce_gnf:
                check_gnf_changes(changed, self.database)
            with _budget.scoped(None):
                apply_changes(program, self.database, changed)
        return TransactionResult(
            committed=True,
            output=output,
            inserted=inserted,
            deleted=deleted,
            changed=changed,
        )


def apply_changes(program: RelProgram, database: Database,
                  changes: Changes) -> None:
    """Apply ``changes`` to ``program`` in one maintenance pass, then copy
    the new base values it computed into ``database`` (also when
    maintenance fails: the two never disagree)."""
    try:
        program.apply_updates(changes)
    finally:
        database.update({name: program.base_relation(name)
                         for name in changes})


def _split_by_target(requests: Relation) -> Dict[str, Relation]:
    """Group ``insert``/``delete`` tuples by their :Name first column."""
    grouped: Dict[str, List[Tuple]] = {}
    for tup in requests:
        if not tup or not isinstance(tup[0], Symbol):
            raise EvaluationError(
                "insert/delete tuples must start with a :RelationName symbol"
            )
        grouped.setdefault(tup[0].name, []).append(tup[1:])
    return {name: Relation(tuples) for name, tuples in grouped.items()}


def check_constraints(program: RelProgram,
                      database: Optional[Database] = None
                      ) -> Dict[str, Relation]:
    """Evaluate every ``ic`` of ``program`` against a database state.

    Returns, per constraint name, the relation of violations — the union
    over every ``ic`` declared with that name: for parameterless
    constraints ``{()}`` means *violated* (the requirement does not hold);
    for parameterized constraints the violating valuations are returned
    (Section 3.5: "integrity_quantities will be populated with the values x
    that violate the constraint").

    The constraints run on ``program``'s own evaluation state (a fork a
    write's delta was applied to) unless ``database`` differs from its
    base; then on a fork brought to ``database`` by one
    :meth:`~RelProgram.apply_updates`, leaving ``program`` unchanged.
    Relations need no declaration (Section 3.4): a name the constraints
    reach that nothing defines is an empty base relation on that fork.
    """
    # The violation relation of each constraint is the *negation* of the
    # requirement, pushed to negation normal form so the positive guard of
    # "G implies F" generates the candidate bindings.
    rules = [(ic, compile_rule(ast.RuleDef(
        name=f"__ic_{ic.name}",
        head=tuple(ic.params),
        body=negate(ic.body),
        formula_head=True,
        pos=ic.pos,
    ))) for ic in program.constraints]
    if rules:
        base = program.durable_state()
        stale = replacements(database or {}, base)
        for _, rule in rules:
            for name in rule.free:
                for ref in program._refs_of(name):
                    if ref not in stale and ref not in base \
                            and ref not in program.closures \
                            and bi.lookup(ref) is None:
                        stale[ref] = (EMPTY, EMPTY)
        if stale:
            program = program.fork()
            program.apply_updates(stale)
    results: Dict[str, Relation] = {}
    ctx = program._context()
    with _plane_stats(ctx.state):
        for ic, rule in rules:
            try:
                facts = eval_rule(rule, Env.EMPTY, ctx)
            except Exception as exc:  # surface with constraint context
                raise EvaluationError(
                    f"integrity constraint {ic.name!r} could not be "
                    f"evaluated: {exc}") from exc
            results[ic.name] = results.get(ic.name, EMPTY).union(
                Relation(facts))
    return results


def run_transaction(database: Database, source: str,
                    **kwargs) -> TransactionResult:
    """Convenience one-shot transaction."""
    return Transaction(database, **kwargs).execute(source)
