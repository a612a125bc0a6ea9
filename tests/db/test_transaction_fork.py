"""Transactions on a fork of the warm session program.

``Session.transact`` evaluates control relations and checks constraints on
a copy-on-write fork of the live program and commits the net changes with
one maintenance pass. The differential scripts hold that path to a cold
oracle: for every transaction, fresh :class:`RelProgram`\\ s over the
expected pre- and post-state decide what it outputs, requests, and whether
it commits, and a third one recomputes every session-derived relation.
"""

import random
import sys

import pytest

from repro import RelProgram, Relation, connect
from repro.db.transaction import check_constraints
from repro.lang import parse_program
from repro.model.relation import EMPTY

#: Recursion (Path), a left-overridden aggregate like the orders schema's
#: OrderPaid (Paid), a negation (Unreached), and two session constraints.
SESSION = """
def Path(x, y) : E(x, y)
def Path(x, y) : exists((z) | E(x, z) and Path(z, y))
def Ord(o) : Node(o)
def OrderAmount(o, p, a) : Pay(p, o) and PayAmount(p, a)
def Paid[o in Ord] : sum[OrderAmount[o]] <++ 0
def Unreached(x) : Node(x) and not Path(1, x)
ic no_loop(x, y) requires E(x, y) implies x != y
ic nonneg(p, a) requires PayAmount(p, a) implies a >= 0
"""
DERIVED = ("Path", "Ord", "OrderAmount", "Paid", "Unreached")


def _base(rng):
    edges = {(a, b) for a in range(1, 7) for b in range(1, 7)
             if a != b and rng.random() < 0.2}
    return {
        "Node": Relation([(i,) for i in range(1, 7)]),
        "E": Relation(sorted(edges)),
        "Pay": Relation([("p0", 1)]),
        "PayAmount": Relation([("p0", 5)]),
    }


def _transaction(rng, i):
    """One transaction source; self-loops, negative amounts, the
    transaction's own cap and deleting a paid node abort."""
    a, b = rng.randint(1, 6), rng.randint(1, 6)
    kind = rng.choice(["edge", "unedge", "pay", "refund", "helper",
                       "extend", "capped", "node"])
    if kind == "edge":
        return f"def insert(:E, x, y) : x = {a} and y = {b}"
    if kind == "unedge":
        return f"def delete(:E, x, y) : E(x, y) and x = {a}"
    if kind == "pay":
        amount = rng.randint(-2, 9)
        return (f'def insert(:Pay, p, o) : p = "q{i}" and o = {a}\n'
                f'def insert(:PayAmount, p, v) : p = "q{i}" and v = {amount}')
    if kind == "refund":
        return f"def delete(:Pay, p, o) : Pay(p, o) and o = {a}"
    if kind == "helper":
        return (f"def Near(y) : Path({a}, y)\n"
                "def output(y, v) : Near(y) and Paid(y, v)\n"
                "def insert(:Seen, y) : Near(y) and not Unreached(y)")
    if kind == "extend":
        return (f"def Path(x, y) : x = {a} and y = {b}\n"
                "def output(x, y) : Path(x, y)\n"
                f"def insert(:Hub, y) : Path({a}, y) and Path(y, {a})")
    if kind == "capped":
        return (f"ic capped() requires forall((x, y) | E(x, y) implies "
                f"x + y < {rng.randint(6, 12)})\n"
                f"def insert(:E, x, y) : x = {a} and y = {b}")
    return (f"ic paid_nodes(o) requires Pay(_, o) implies Node(o)\n"
            f"def insert(:Node, n) : n = {a + 4}\n"
            f"def delete(:Node, n) : Node(n) and n = {b}")


def _by_target(requests):
    grouped = {}
    for row in requests:
        grouped.setdefault(row[0].name, []).append(row[1:])
    return {name: Relation(rows) for name, rows in grouped.items()}


def _cold(base, source):
    """The oracle: what the transaction must do, from programs built cold
    over the pre-state (control relations) and post-state (constraints)."""
    pre = RelProgram(SESSION + source, database=base)
    output, inserted, deleted = (
        pre.relation(name) if name in pre.closures else EMPTY
        for name in ("output", "insert", "delete"))
    inserted, deleted = _by_target(inserted), _by_target(deleted)
    post = dict(base)
    for name, rows in deleted.items():
        if name in post:
            post[name] = post[name].difference(rows)
    for name, rows in inserted.items():
        post[name] = post.get(name, EMPTY).union(rows)
    checker = RelProgram(SESSION + source, database=post)
    failed = sorted(name for name, rel
                    in check_constraints(checker).items()
                    if rel)
    aborted_by = failed[0] if failed else None
    return output, inserted, deleted, aborted_by, (base if failed else post)


@pytest.mark.parametrize("seed", [3, 11])
def test_warm_transactions_match_cold_programs(seed):
    rng = random.Random(seed)
    expected = _base(rng)
    session = connect(dict(expected), SESSION)
    outcomes = set()
    for i in range(20):
        source = _transaction(rng, i)
        output, inserted, deleted, aborted_by, expected = _cold(expected,
                                                                source)
        result = session.transact(source)
        assert (result.output, result.inserted, result.deleted,
                result.committed, result.aborted_by) == \
            (output, inserted, deleted, aborted_by is None, aborted_by), source
        outcomes.add(result.committed)
        assert dict(session.database.items()) == expected, source
        fresh = RelProgram(SESSION, database=expected)
        assert session.program.closures.keys() == fresh.closures.keys()
        for name in DERIVED:
            assert session.relation(name) == fresh.relation(name), \
                (source, name)
    assert outcomes == {True, False}  # the scripts commit and abort


@pytest.fixture
def warm():
    rng = random.Random(5)
    session = connect(_base(rng), SESSION)
    for name in DERIVED:
        session.relation(name)
    session.execute("TC[E]")  # a memoized second-order instance
    return session


_PAYMENT = ('def insert(:Pay, p, o) : p = "q1" and o = 2\n'
            'def insert(:PayAmount, p, v) : p = "q1" and v = 4')


def test_one_parse_per_transaction(warm, monkeypatch):
    """Only the transaction source is parsed: no standard library, no
    session rules, with or without a constraint to check."""
    calls = []

    def counting(source):
        calls.append(source)
        return parse_program(source)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and \
                getattr(module, "parse_program", None) is parse_program:
            monkeypatch.setattr(module, "parse_program", counting)
    warm.transact(_PAYMENT)
    warm.transact("ic small() requires forall((x) | Node(x) implies x < 9)\n"
                  "def insert(:Node, n) : n = 7")
    assert len(calls) == 2


def test_commit_keeps_unrelated_strata_counts(warm):
    """A payment reaches Paid through one maintenance pass; strata that do
    not depend on Pay/PayAmount are not evaluated, and nothing the
    transaction evaluated privately is counted on the session."""
    counts = warm.evaluation_counts()
    paid = warm.relation("Paid")
    assert warm.transact(_PAYMENT).committed
    after = warm.evaluation_counts()
    for name in ("Path", "Ord", "Unreached"):
        assert after[name] == counts[name], name
    assert warm.relation("Paid") != paid
    assert not {"insert", "output"} & set(after)


def test_abort_leaves_the_parent_state_identical(warm):
    snap = warm.snapshot()
    pinned = {name: snap.relation(name) for name in DERIVED}
    program, state = warm.program, warm.program._state

    def parent():
        return (state.extents, state.plans, state.memo, state.name_gen,
                state.rule_gen, program.closures, program._rules,
                program._base)

    kept = [dict(part) for part in parent()]
    constraints = program.constraints
    counts = warm.evaluation_counts()
    version = warm.version
    assert state.memo
    # The failing constraint re-evaluates a memoized instance over E.
    result = warm.transact("""
        ic never() requires count[TC[E]] < 0
        def Path(x, y) : x = 6 and y = 1
        def insert(:E, x, y) : x = 1 and y = 6
    """)
    assert not result.committed and result.aborted_by == "never"
    assert program._state is state
    for live, before in zip(parent(), kept):
        assert live.keys() == before.keys()
        assert all(live[key] is before[key] for key in live)
    assert program.constraints == constraints
    assert warm.evaluation_counts() == counts
    assert warm.version == version
    assert warm.snapshot() is snap
    assert {name: snap.relation(name) for name in DERIVED} == pinned
