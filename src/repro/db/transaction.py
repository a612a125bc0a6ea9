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
program. The fork shares the warm extents, plans and indexes read-only;
only the transaction source is parsed, and only what it adds or changes is
evaluated. Constraints are checked on the same fork after the net changes
are applied to it. Abort is dropping the fork: the live program, its caches
and its counters were never touched. Commit hands the checked net changes,
one net delta (:data:`Changes`), to a ``commit`` callback — in a session,
the commit step, which logs and maintains them like every other write.

Concurrency: the fork is thread-confined and the base changes only at
commit. The session layer runs the whole execute-check-commit sequence
under its write lock and publishes the post-state as one snapshot, so
concurrent snapshot readers see a committed transaction's effects all at
once or not at all (atomicity, Section 3.4/3.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.engine import builtins as bi
from repro.engine.errors import EvaluationError
from repro.engine.expand import eval_rule
from repro.engine.program import RelProgram, _plane_stats
from repro.engine.runtime import Env, compile_rule
from repro.lang import ast
from repro.lang.nnf import negate
from repro.model.relation import EMPTY, Changes, Relation
from repro.model.values import Symbol

#: The reserved control relation names of Section 3.4.
CONTROL_RELATIONS = frozenset({"output", "insert", "delete"})


def fold(changes: Changes, kind: str, name: str, rows: Relation,
         base_relations: Mapping[str, Relation]) -> Changes:
    """Fold an ``"insert"`` or ``"delete"`` of ``rows`` into ``changes``,
    the pending delta of a write to ``base_relations``, and return it: the
    one no-op rule of every insert and delete. Each row is probed against
    the base, so the cost is the write's size, not the base's."""
    base = base_relations.get(name, None)
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
    """One query execution against a live program.

    >>> program = RelProgram(database={"P": [(1,), (2,)]})
    >>> txn = Transaction(program, commit=program.apply_updates)
    >>> result = txn.execute("def output(x) : P(x) and x > 1")
    >>> sorted(result.output.tuples)
    [(2,)]
    """

    def __init__(self, program: RelProgram,
                 commit: Callable[[Changes], None]) -> None:
        #: The live program whose base, rules, constraints and warm state
        #: are in scope (the session passes its own).
        self.program = program
        #: Takes the checked net changes (possibly none): the session
        #: passes its commit step.
        self.commit = commit

    def execute(self, source: str) -> TransactionResult:
        """Run a Rel program; commit its effects unless a constraint fails.

        The program's rules are evaluated against the current base;
        ``insert``/``delete`` requests are folded into the net delta
        (deletes first), constraints are checked on the *post-state*, and
        only then is the delta handed to ``commit``.
        """
        base = self.program.durable_state()
        fork = self.program.fork()
        fork.add_source(source)
        output, inserted, deleted = (
            fork.relation(name) if name in fork.closures else EMPTY
            for name in ("output", "insert", "delete"))
        inserted = _split_by_target(inserted)
        deleted = _split_by_target(deleted)

        changed: Changes = {}
        for kind, requests in (("delete", deleted), ("insert", inserted)):
            for name, rows in requests.items():
                fold(changed, kind, name, rows, base)

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

        self.commit(changed)
        return TransactionResult(
            committed=True,
            output=output,
            inserted=inserted,
            deleted=deleted,
            changed=changed,
        )


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


def check_constraints(program: RelProgram) -> Dict[str, Relation]:
    """Evaluate every ``ic`` of ``program`` against its base.

    Returns, per constraint name, the relation of violations — the union
    over every ``ic`` declared with that name: for parameterless
    constraints ``{()}`` means *violated* (the requirement does not hold);
    for parameterized constraints the violating valuations are returned
    (Section 3.5: "integrity_quantities will be populated with the values x
    that violate the constraint").

    The constraints run on ``program``'s own evaluation state (a fork a
    write's delta was applied to). Relations need no declaration (Section
    3.4): a name the constraints reach that nothing defines is an empty
    base relation, installed on a fork so ``program`` is left unchanged.
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
        missing: Changes = {}
        for _, rule in rules:
            for name in rule.free:
                for ref in program._refs_of(name):
                    if ref not in missing and ref not in base \
                            and ref not in program.closures \
                            and bi.lookup(ref) is None:
                        missing[ref] = (EMPTY, EMPTY)
        if missing:
            program = program.fork()
            program.apply_updates(missing)
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

