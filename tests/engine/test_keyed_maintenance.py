"""Keyed re-evaluation: a write re-evaluates only the keys its delta
touches in a stratum the delta rules decline (``not``, aggregates, ``<++``,
comparisons), instead of recomputing it (``RelProgram._maintain_keyed``).

Every write script runs on three engines — as shipped, under
``oracles.unkeyed`` (such strata recomputed and diffed) and under
``oracles.recompute`` (no maintenance at all) — and, for generated
programs on the reference fragment, against ``repro.engine.reference``
after every step. The hand cases name the shapes that must take the keyed
path and the ones that must decline to the recompute.
"""

import random

import pytest

from support import oracles
from support.generators import random_program, reference_extents

from repro import connect

N_SCRIPTS = 30
STEPS = 6
ENGINES = ((), (oracles.unkeyed,), (oracles.recompute,))


def _sessions(source, base, load_stdlib=True):
    sessions = []
    for paths in ENGINES:
        session = oracles.under(connect(load_stdlib=load_stdlib), *paths)
        for name, rows in base.items():
            session.define(name, rows)
        session.load(source)
        sessions.append(session)
    return sessions


def _write(sessions, kind, name, rows):
    for session in sessions:
        getattr(session, kind)(name, rows)


def _agree(sessions, names, context):
    shipped = {name: sessions[0].relation(name) for name in names}
    for session in sessions[1:]:
        for name in names:
            assert shipped[name] == session.relation(name), (
                f"{context}: {name} {sorted(shipped[name].sorted_tuples())} "
                f"!= {sorted(session.relation(name).sorted_tuples())}")
    return shipped


def _keyed(session):
    return session.maintenance_statistics().get("keyed_strata", 0)


def _random_write(rng, program):
    """One script step; half of them hit a negated base name when the
    program has one, since only those writes reach the keyed path."""
    negated = [name for name in sorted(program.base)
               if f"not {name}(" in program.source]
    name = rng.choice(negated if negated and rng.random() < 0.5
                      else sorted(program.base))
    arity = 1 if name in ("U", "V") else 2
    rows = [tuple(rng.randint(0, 3) for _ in range(arity))
            for _ in range(rng.randint(1, 2))]
    return "insert" if rng.random() < 0.6 else "delete", name, rows


@pytest.mark.parametrize("seed", range(N_SCRIPTS))
def test_write_scripts_agree_with_unkeyed_recompute_and_reference(seed):
    rng = random.Random(20_000 + seed)
    program = random_program(rng)
    sessions = _sessions(program.source, program.base,
                         program.uses_stdlib)
    _agree(sessions, program.derived, f"seed {seed}, cold")
    for step in range(STEPS):
        kind, name, rows = _random_write(rng, program)
        _write(sessions, kind, name, rows)
        context = (f"seed {seed}, step {step} ({kind} {name} {rows})\n"
                   f"{program.source}")
        got = _agree(sessions, program.derived, context)
        if program.reference_ok:
            program.base = dict(sessions[0].database)
            for derived, want in reference_extents(program).items():
                assert got[derived] == want, f"{context}: {derived}"


def test_the_scripts_take_the_keyed_path():
    """Guards the suite against a generator that stops reaching it."""
    taken = 0
    for seed in range(N_SCRIPTS):
        rng = random.Random(20_000 + seed)
        program = random_program(rng)
        session = connect(load_stdlib=program.uses_stdlib)
        for name, rows in program.base.items():
            session.define(name, rows)
        session.load(program.source)
        for name in program.derived:
            session.relation(name)
        for _ in range(STEPS):
            kind, name, rows = _random_write(rng, program)
            getattr(session, kind)(name, rows)
            for derived in program.derived:
                session.relation(derived)
        taken += _keyed(session) > 0
    assert taken >= 5, taken


#: (rules, base, writes, keyed): ``keyed`` says whether the writes take
#: the keyed path (True: no write recomputes, and some write is keyed) or
#: decline to the recompute (False: every write recomputes, none is keyed).
HAND_CASES = {
    "default": (
        """def Amount(o, p, a) : PayOrder(p, o) and PayAmount(p, a)
           def Paid[o in Ord] : sum[Amount[o]] <++ 0""",
        {"Ord": [(1,), (2,), (3,)], "PayOrder": [(10, 1), (11, 2)],
         "PayAmount": [(10, 5), (11, 7)]},
        [("insert", "PayOrder", [(12, 3)]), ("insert", "PayAmount", [(12, 4)]),
         ("delete", "PayAmount", [(10, 5)])],
        True),
    "not": (
        "def Out(x) : N(x) and not E(x, _)",
        {"N": [(i,) for i in range(8)], "E": [(0, 1), (2, 3)]},
        [("insert", "E", [(4, 5)]), ("delete", "E", [(0, 1)]),
         ("insert", "E", [(6, 7), (7, 0)])],
        True),
    "forall": (
        "def All(x) : D(x) and forall((y) | S(x, y) implies T(y))",
        {"D": [(1,), (2,), (3,)], "S": [(1, 4), (2, 5)], "T": [(4,)]},
        [("insert", "S", [(3, 5)]), ("delete", "S", [(2, 5)]),
         ("insert", "S", [(1, 6)])],
        True),
    "sum": (
        "def Total[x in D] : sum[F[x]]",
        {"D": [(1,), (2,)], "F": [(1, 2), (2, 5), (2, 6)]},
        [("insert", "F", [(1, 7)]), ("delete", "F", [(2, 5)]),
         ("delete", "F", [(1, 2), (1, 7)])],
        True),
    "min": (
        "def Low[x in D] : min[F[x]]",
        {"D": [(1,), (2,)], "F": [(1, 2), (2, 5), (2, 6)]},
        [("insert", "F", [(1, 1)]), ("delete", "F", [(2, 5)])],
        True),
    "count": (
        "def Many[x in D] : count[F[x]]",
        {"D": [(1,), (2,)], "F": [(1, 2), (2, 5), (2, 6)]},
        [("insert", "F", [(1, 1)]), ("delete", "F", [(2, 5), (2, 6)])],
        True),
    "compare": (
        "def Big(x) : D(x) and F[x] > 3",
        {"D": [(1,), (2,)], "F": [(1, 2), (2, 5)]},
        [("insert", "F", [(1, 7)]), ("delete", "F", [(2, 5)])],
        True),
    "domain": (
        "def Paid[x in D] : sum[F[x]] <++ 0",
        {"D": [(1,), (2,)], "F": [(1, 2), (2, 5)]},
        [("insert", "D", [(3,)]), ("delete", "D", [(1,)]),
         ("insert", "F", [(3, 4)])],
        True),
    "key_at_1": (
        """def Path(x, y) : E(x, y)
           def Path(x, y) : exists((z) | E(x, z) and Path(z, y))
           def Unreached(x) : V(x) and not Path(0, x)""",
        {"E": [(0, 1), (1, 2), (3, 4)], "V": [(i,) for i in range(6)]},
        [("insert", "E", [(2, 3)]), ("delete", "E", [(1, 2)]),
         ("insert", "E", [(0, 5)])],
        True),
    "multi_rule": (
        """def M(x) : A(x) and not B(x)
           def M(x) : C(x) and x > 1""",
        {"A": [(1,), (2,), (3,)], "B": [(2,)], "C": [(2,), (5,)]},
        [("insert", "B", [(1,)]), ("delete", "B", [(2,)]),
         ("insert", "B", [(5,)])],
        True),
    "shadowed_key": (
        "def Sh(x) : D(x) and not G(x) and exists((x) | H(x))",
        {"D": [(1,), (2,)], "G": [(2,)], "H": [(5,)]},
        [("insert", "G", [(1,)])],
        False),
    "varargs_key": (
        "def Va(x..., y) : R(x..., y) and not G(y)",
        {"R": [(1, 2), (3, 4)], "G": [(2,)]},
        [("insert", "G", [(4,)])],
        False),
    "whole_relation": (
        "def C(n) : n = count[E]",
        {"E": [(1, 2)]},
        [("insert", "E", [(1, 7)])],
        False),
    "global_forall": (
        "def Gl(x) : D(x) and forall((w) | S(_, w) implies T(w))",
        {"D": [(1,), (2,)], "S": [(1, 2)], "T": [(2,)]},
        [("insert", "S", [(1, 3)])],
        False),
}


def _names(source):
    return sorted({line.split()[1].split("(")[0].split("[")[0]
                   for line in source.splitlines()
                   if line.strip().startswith("def")})


@pytest.mark.parametrize("case", sorted(HAND_CASES))
def test_hand_case(case):
    source, base, writes, keyed = HAND_CASES[case]
    names = _names(source)
    sessions = _sessions(source, base)
    _agree(sessions, names, f"{case}, cold")
    shipped = sessions[0]
    keyed_writes = 0
    for kind, name, rows in writes:
        before = dict(shipped.maintenance_statistics())
        _write(sessions, kind, name, rows)
        got = _agree(sessions, names, f"{case}: {kind} {name} {rows}")
        after = shipped.maintenance_statistics()
        moved = {k: after.get(k, 0) - before.get(k, 0)
                 for k in ("keyed_strata", "recomputed_strata")}
        keyed_writes += moved["keyed_strata"] > 0
        if keyed:
            assert moved["recomputed_strata"] == 0, (case, kind, moved)
        else:
            assert moved["keyed_strata"] == 0 and \
                moved["recomputed_strata"] >= 1, (case, kind, moved)
        cold = connect()
        for base_name, rel in shipped.database.items():
            cold.define(base_name, rel)
        cold.load(source)
        for derived in names:
            assert got[derived] == cold.relation(derived), (case, derived)
    assert keyed_writes >= (1 if keyed else 0), case


ORDER_RULES = """
def Ord(x) : OrderProductQuantity(x, _, _)
def OrderPaymentAmount(x, y, z) : PaymentOrder(y, x) and PaymentAmount(y, z)
def OrderPaid[x in Ord] : sum[OrderPaymentAmount[x]] <++ 0
def OrderLineTotal(o, p, t) : exists((q, pr) |
    OrderProductQuantity(o, p, q) and ProductPrice(p, pr) and t = q * pr)
def OrderTotal[o in Ord] : sum[OrderLineTotal[o]]
def Unpaid(o) : exists((paid, total) |
    OrderPaid(o, paid) and OrderTotal(o, total) and paid < total)
"""


def test_a_payment_reevaluates_one_order():
    """The paper's running aggregate: one payment re-folds one order's
    ``OrderPaid`` group and recomputes nothing."""
    s = connect()
    s.define("OrderProductQuantity",
             [(f"O{i}", f"P{i % 7}", 1 + i % 3) for i in range(300)])
    s.define("ProductPrice", [(f"P{i}", 10 * (i + 1)) for i in range(7)])
    s.define("PaymentOrder", [(f"Pmt{i}", f"O{i}") for i in range(0, 300, 2)])
    s.define("PaymentAmount", [(f"Pmt{i}", 5) for i in range(0, 300, 2)])
    s.load(ORDER_RULES)
    unpaid = s.relation("Unpaid")
    for name in ("OrderPaid", "OrderTotal"):
        s.relation(name)
    before = dict(s.maintenance_statistics())
    s.transact("""
        def insert(:PaymentOrder, p, o) : p = "Pmt1" and o = "O1"
        def insert(:PaymentAmount, p, a) : p = "Pmt1" and a = 1000
    """)
    after = s.maintenance_statistics()
    moved = {k: after.get(k, 0) - before.get(k, 0)
             for k in ("keyed_strata", "keyed_keys", "recomputed_strata")}
    assert moved == {"keyed_strata": 1, "keyed_keys": 1,
                     "recomputed_strata": 0}
    assert ("O1", 1000) in s.relation("OrderPaid")
    assert set(s.relation("Unpaid")) == set(unpaid) - {("O1",)}


@pytest.mark.parametrize("n", [2_000, 20_000])
def test_a_negated_insert_touches_one_key(n):
    """A one-row insert into a negated relation re-evaluates one key at
    any base size."""
    s = connect(load_stdlib=False)
    s.define("N", [(i,) for i in range(n + 2)])
    s.define("E", [(i, i + 1) for i in range(0, n, 2)])
    s.load("def Out(x) : N(x) and not E(x, _)")
    assert len(s.relation("Out")) == n + 2 - n // 2
    before = dict(s.maintenance_statistics())
    s.insert("E", [(1, 2)])
    after = s.maintenance_statistics()
    assert after.get("keyed_keys", 0) - before.get("keyed_keys", 0) == 1
    assert after.get("recomputed_strata", 0) == \
        before.get("recomputed_strata", 0)
    assert (1,) not in s.relation("Out")
    assert len(s.relation("Out")) == n + 1 - n // 2
