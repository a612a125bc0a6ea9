"""Set-at-a-time delete-rederive: seeded ≡ recompute ≡ reference, and cost.

DRed re-derives what an over-deletion removed by evaluating each rule once
per round, seeded with every candidate at once (one semi-join of the
candidate set against the rule body). A head the seed cannot bind — a
constant or varargs position, or candidates of mixed arity — falls back to
one full evaluation intersected with the candidates.

Pinned here, over seeded insert/delete scripts and value pools that
collide under Python equality:

- the seeded session agrees with a twin under ``oracles.recompute``
  (drop-and-recompute) after every step and with :func:`tests.support.generators.reference_extents`;
- both the seeded and the declined path actually ran;
- the over-delete and re-derive counts are exactly those of the per-tuple
  demand loop this replaced, on every script where that loop was right
  (``DRED_COUNTS``);
- a point delete on the ``maintain_mix`` input costs rule evaluations per
  round, with no term proportional to the candidate count.
"""

import random
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import pytest

from repro import Relation, connect
from repro.engine import budget as budget_mod
from repro.engine import expand
from repro.engine import program as program_mod
from repro.engine.errors import SafetyError
from repro.engine.program import RelProgram
from repro.model.values import tuple_sort_key
from tests.support import oracles
from tests.support.generators import GeneratedProgram, reference_extents

Rules = Tuple[Tuple[str, Tuple[str, ...], str], ...]


@dataclass(frozen=True)
class Case:
    """One stratum shape: the engine's rules, an equivalent formulation for
    the reference evaluator when it lacks a construct (constant heads,
    mutual recursion), and which rederive path each name must take."""

    rules: Rules
    seeded: Tuple[str, ...] = ()
    declined: Tuple[str, ...] = ()
    reference: Optional[Rules] = None

    @property
    def derived(self):
        return _names(self.rules)


def _names(rules):
    return list(dict.fromkeys(name for name, _, _ in rules))


CASES: Dict[str, Case] = {
    "recursive": Case(
        (("P", ("x", "y"), "E(x, y)"),
         ("P", ("x", "y"), "exists((z) | E(x, z) and P(z, y))")),
        seeded=("P",)),
    "in_head": Case(
        (("Q", ("x in N", "y"), "E(x, y)"),
         ("Q", ("x in N", "y"), "exists((z) | F(x, z) and Q(z, y))")),
        seeded=("Q",)),
    "repeated_var": Case(
        (("S", ("x", "x"), "exists((y) | E(x, y) and E(y, x))"),
         ("S", ("x", "x"), "F(x, x)")),
        seeded=("S",)),
    "constant_head": Case(
        (("C", ("x", "1"), "exists((y) | E(x, y))"),
         ("C", ("x", "1"), "F(x, x)")),
        declined=("C",),
        reference=(("C", ("x", "c"), "exists((y) | E(x, y)) and {(1)}(c)"),
                   ("C", ("x", "c"), "F(x, x) and {(1)}(c)"))),
    "varargs_head": Case(
        (("T", ("x...",), "E(x...)"),
         ("T", ("x...",), "F(x...)")),
        declined=("T",),
        # E and F are binary; the reference's tuple-variable matching
        # compares with Python == and so merges true with 1.
        reference=(("T", ("x", "y"), "E(x, y)"),
                   ("T", ("x", "y"), "F(x, y)"))),
    "mixed_arity": Case(
        (("M", ("x",), "G(x)"),
         ("M", ("x", "y"), "G(x, y)"),
         ("M", ("x", "y"), "exists((z) | E(x, z) and F(z, y))")),
        declined=("M",)),
    "two_member_scc": Case(
        (("A", ("x", "y"), "E(x, y)"),
         ("B", ("x", "y"), "exists((z) | A(x, z) and E(z, y))"),
         ("A", ("x", "y"), "exists((z) | B(x, z) and F(z, y))")),
        seeded=("A", "B"),
        # B inlined into A: the reference evaluates one name at a time.
        reference=(
            ("A", ("x", "y"), "E(x, y)"),
            ("A", ("x", "y"),
             "exists((z, w) | A(x, w) and E(w, z) and F(z, y))"),
            ("B", ("x", "y"), "exists((z) | A(x, z) and E(z, y))"))),
}

POOLS: Dict[str, Sequence] = {
    "bool_int": [True, False, 0, 1, 2],
    "int_float": [0, 1, 1.0, 2, 2.0, 2.5],
    "wide_int": [2 ** 53, 2 ** 53 + 1, float(2 ** 53), 2 ** 53 + 2, 3],
    "strings": ["a", "b", "c", "d"],
}

#: Base name → the arities its rows may take.
ARITIES = {"E": (2,), "F": (2,), "N": (1,), "G": (1, 2)}

#: (overdeleted_tuples, rederived_tuples) after each script: the counts the
#: per-tuple demand loop this replaced produced on the same scripts.
DRED_COUNTS = {
    ('constant_head', 'bool_int'): (10, 9),
    ('constant_head', 'int_float'): (3, 3),
    ('constant_head', 'strings'): (7, 5),
    ('constant_head', 'wide_int'): (4, 4),
    ('in_head', 'bool_int'): (10, 8),
    ('in_head', 'int_float'): (12, 8),
    ('in_head', 'strings'): (6, 2),
    ('in_head', 'wide_int'): (34, 23),
    ('mixed_arity', 'bool_int'): (19, 4),
    ('mixed_arity', 'int_float'): (11, 10),
    ('mixed_arity', 'strings'): (18, 5),
    ('mixed_arity', 'wide_int'): (14, 10),
    ('recursive', 'bool_int'): (56, 43),
    ('recursive', 'int_float'): (44, 40),
    ('recursive', 'strings'): (25, 19),
    ('recursive', 'wide_int'): (44, 41),
    ('repeated_var', 'bool_int'): (5, 4),
    ('repeated_var', 'int_float'): (4, 4),
    ('repeated_var', 'strings'): (5, 3),
    ('repeated_var', 'wide_int'): (4, 1),
    ('two_member_scc', 'bool_int'): (194, 173),
    ('two_member_scc', 'int_float'): (112, 93),
    ('two_member_scc', 'strings'): (124, 116),
    ('two_member_scc', 'wide_int'): (192, 192),
    # The per-tuple loop counted (10, 7) and diverged from recompute: it
    # matched the demanded tuple variable by Python ==, so the candidate
    # (0, true) was "re-derived" from E(false, 1).
    ('varargs_head', 'bool_int'): (10, 4),
    ('varargs_head', 'int_float'): (9, 5),
    ('varargs_head', 'strings'): (9, 5),
    ('varargs_head', 'wide_int'): (7, 3),
}

STEPS = 12


def _rows(rng, pool, name, n):
    return [tuple(rng.choice(pool) for _ in range(rng.choice(ARITIES[name])))
            for _ in range(n)]


def _script(pool, seed):
    """Initial base plus a delete-heavy update script: a delete removes one
    or two rows the base holds, an insert adds random rows. Each step
    carries the base it leaves behind."""
    rng = random.Random(seed)
    base = {"E": Relation(_rows(rng, pool, "E", 14)),
            "F": Relation(_rows(rng, pool, "F", 10)),
            "N": Relation(_rows(rng, pool, "N", 4)),
            "G": Relation(_rows(rng, pool, "G", 6))}
    live = dict(base)
    steps = []
    for _ in range(STEPS):
        name = rng.choice("EEEFFGN")
        rows = sorted(live[name].rows(), key=tuple_sort_key)
        if rows and rng.random() < 0.7:
            picked = rng.sample(rows, min(len(rows), rng.randint(1, 2)))
            kind = "delete"
            live[name] = live[name].difference(Relation(picked))
        else:
            picked = _rows(rng, pool, name, rng.randint(1, 2))
            kind = "insert"
            live[name] = live[name].union(Relation(picked))
        steps.append((kind, name, picked, dict(live)))
    return base, steps


def _session(case, base, *paths):
    session = oracles.under(connect(load_stdlib=False), *paths)
    for name, rel in base.items():
        session.define(name, rel)
    session.load(GeneratedProgram(base={}, rules=list(case.rules),
                                  derived=case.derived).source)
    for name in case.derived:
        session.relation(name)
    return session


def _reference(case, live):
    rules = case.reference or case.rules
    return reference_extents(GeneratedProgram(
        base=live, rules=list(rules), derived=_names(rules)))


def run_script(case, pool, seed, check=None):
    """Replay one script on a seeded (delta) and a recompute session,
    calling ``check(delta, recompute, live)`` after every step; returns
    the delta session's (overdeleted, rederived) counts."""
    base, steps = _script(pool, seed)
    delta = _session(case, base, oracles.always_delta)
    recompute = _session(case, base, oracles.recompute)
    for kind, name, rows, live in steps:
        for session in (delta, recompute):
            getattr(session, kind)(name, rows)
        if check is not None:
            check(delta, recompute, live)
    stats = delta.maintenance_statistics()
    return (stats.get("overdeleted_tuples", 0),
            stats.get("rederived_tuples", 0))


@pytest.fixture
def rederive_paths(monkeypatch):
    """Which rederive path ran, per derived name: "seeded" when a seeded
    evaluation returned, "declined" when it refused the head."""
    seen = set()
    original = program_mod.eval_rule_relation

    def spy(rule, *args, **kwargs):
        if kwargs.get("seed") is None:
            return original(rule, *args, **kwargs)
        try:
            out = original(rule, *args, **kwargs)
        except SafetyError:
            seen.add((rule.name, "declined"))
            raise
        seen.add((rule.name, "seeded"))
        return out

    monkeypatch.setattr(program_mod, "eval_rule_relation", spy)
    return seen


@pytest.mark.parametrize("pool", sorted(POOLS))
@pytest.mark.parametrize("case_name", sorted(CASES))
def test_seeded_rederive_agrees(case_name, pool, rederive_paths):
    case = CASES[case_name]
    seed = sorted(CASES).index(case_name) * 41 + sorted(POOLS).index(pool)

    def check(delta, recompute, live):
        want = _reference(case, live)
        for name in case.derived:
            got = delta.relation(name)
            assert got == recompute.relation(name), (case_name, pool, name)
            assert got == want[name], (case_name, pool, name)

    counts = run_script(case, POOLS[pool], seed, check)
    assert counts == DRED_COUNTS[case_name, pool]
    for name in case.seeded:
        assert (name, "seeded") in rederive_paths, (case_name, pool, name)
    for name in case.declined:
        assert (name, "declined") in rederive_paths, (case_name, pool, name)


# ---------------------------------------------------------------------------
# Cost: rule evaluations per round, not per candidate
# ---------------------------------------------------------------------------

USES = """
def Uses(x, y) : Dep(x, y)
def Uses(x, y) : exists((z) | Dep(x, z) and Uses(z, y))
"""


def _count_rule_evals(monkeypatch):
    """Count every call of the two rule evaluators, through whichever
    module alias the engine calls them by."""
    counter = {"calls": 0}
    for fn in (expand.eval_rule, expand.eval_rule_relation):
        def counting(*args, _fn=fn, **kwargs):
            counter["calls"] += 1
            return _fn(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for alias, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, alias, counting)
    return counter


def test_point_delete_costs_per_round_not_per_candidate(monkeypatch):
    """One point delete on the ``maintain_mix`` input (the edge whose head
    reaches furthest): the re-derive step makes at most one evaluation per
    rule per round, and the whole delete at most that plus one per delta
    variant per over-delete round — no term grows with the candidates.
    The per-tuple demand loop made about two per candidate."""
    from bench import inputs

    given = inputs.layered_dag(1)
    session = connect(load_stdlib=False)
    session.define("Dep", given.edges)
    session.load(USES)
    reach = {}
    for x, _ in session.relation("Uses").rows():
        reach[x] = reach.get(x, 0) + 1
    deletes = [edge for kind, edge in given.script if kind == "delete"]
    edge = max(deletes, key=lambda e: reach.get(e[1], 0))

    program = session.program
    rules = program.rules_of("Uses")
    variants = sum(len(program.delta_variants_of(rule, frozenset({"Dep", "Uses"})))
                   for rule in rules)
    counter = _count_rule_evals(monkeypatch)
    rounds = {"all": 0, "rederive": 0, "rederive_calls": 0}
    count_iteration = budget_mod.count_iteration
    rederive = RelProgram._rederive_candidates

    def counting_round():
        rounds["all"] += 1
        count_iteration()

    def counting_rederive(self, *args):
        rounds["rederive"] += 1
        before = counter["calls"]
        try:
            return rederive(self, *args)
        finally:
            rounds["rederive_calls"] += counter["calls"] - before

    monkeypatch.setattr(budget_mod, "count_iteration", counting_round)
    monkeypatch.setattr(RelProgram, "_rederive_candidates", counting_rederive)
    session.delete("Dep", [edge])

    candidates = session.maintenance_statistics()["overdeleted_tuples"]
    assert rounds["rederive"] >= 1
    assert rounds["rederive_calls"] <= len(rules) * rounds["rederive"]
    overdelete_rounds = rounds["all"] - rounds["rederive"]
    assert counter["calls"] <= len(rules) * rounds["rederive"] \
        + variants * overdelete_rounds
    assert candidates > counter["calls"], (candidates, counter["calls"], rounds)
