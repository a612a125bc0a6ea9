"""Plan compilation and caching: compiled execution ≡ fresh interpretation.

The agreement suite mirrors tests/engine/test_maintenance.py: randomized
scripts of queries and updates over programs with recursion, negation,
aggregation, and second-order application, run twice — once as shipped
(compiled plans replayed across evaluations) and once under
``oracles.interpreted`` (every evaluation interpreted from the AST) —
asserting identical results throughout. Counter pins then prove the cache
actually works: fixpoint iterations and prepared-query re-runs hit cached
plans, data updates leave plans warm, rule changes drop exactly the stale
ones, and stale-plan execution falls back to interpretation instead of
failing.
"""

import random

import pytest

from support import oracles
from support.generators import (SCRIPT_BASE, SCRIPT_DERIVED, SCRIPT_QUERIES,
                                SCRIPT_RULES, random_update_op)

from repro import RelProgram, Relation, connect

# The rule catalog, base data, update distribution, and query pool are the
# shared generators of tests/support/generators.py — the same ones driving
# the maintenance agreement scripts and the concurrency stress harness.
RULES = SCRIPT_RULES
DERIVED = SCRIPT_DERIVED
BASE = SCRIPT_BASE
QUERIES = SCRIPT_QUERIES


def make_session(*paths):
    """A session over the shared catalog, every call of it made under
    ``paths`` (oracle managers; none is the shipped configuration)."""
    session = oracles.under(connect(), *paths)
    for name, tuples in BASE.items():
        session.define(name, tuples)
    session.load(RULES)
    return session


def extents(session):
    return {name: session.relation(name) for name in DERIVED}


class TestRandomizedAgreement:
    """Compiled-plan execution ≡ interpreted execution, across random
    scripts of updates and queries (recursion, negation, aggregation,
    delta maintenance variants, demanded-head lookups)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_script_agreement(self, seed):
        rng = random.Random(seed)
        compiled = make_session()
        interpreted = make_session(oracles.interpreted)
        assert extents(compiled) == extents(interpreted)
        for _ in range(10):
            if rng.random() < 0.55:
                kind, name, tuples = random_update_op(rng)
                getattr(compiled, kind)(name, tuples)
                getattr(interpreted, kind)(name, tuples)
            else:
                query = rng.choice(QUERIES)
                assert compiled.execute(query) == interpreted.execute(query), \
                    (seed, query)
            assert extents(compiled) == extents(interpreted), seed
        stats = compiled.plan_statistics()
        assert stats.get("hits", 0) > 0, "plans never replayed"
        assert interpreted.plan_statistics() == {}

    @pytest.mark.parametrize("seed", range(4))
    def test_demanded_lookup_agreement(self, seed):
        """Demanded-head (point-lookup) evaluation gets its own
        bound-variable patterns; results must match interpretation."""
        rng = random.Random(100 + seed)
        compiled = make_session()
        interpreted = make_session(oracles.interpreted)
        for _ in range(8):
            a, b = rng.randint(1, 6), rng.randint(1, 6)
            for query in (f"Path[{a}]", f"Path({a}, {b})",
                          f"Reach({a})", f"TC[E]({a}, {b})"):
                assert compiled.execute(query) == interpreted.execute(query), \
                    (seed, query)

    def test_delta_variant_agreement_under_maintenance(self):
        """The PR-3 delta drivers evaluate rewritten rule bodies; their
        plans must agree with recompute-from-scratch on both settings."""
        compiled = make_session(oracles.always_delta)
        fresh_base = {n: Relation(t) for n, t in BASE.items()}
        extents(compiled)
        rng = random.Random(7)
        for _ in range(10):
            tuples = [(rng.randint(1, 9), rng.randint(1, 9))]
            if rng.random() < 0.6:
                compiled.insert("E", tuples)
                fresh_base["E"] = fresh_base["E"].union(Relation(tuples))
            else:
                compiled.delete("E", tuples)
                fresh_base["E"] = fresh_base["E"].difference(Relation(tuples))
            fresh = oracles.under(connect(), oracles.interpreted)
            for name, rel in fresh_base.items():
                fresh.define(name, rel)
            fresh.load(RULES)
            assert extents(compiled) == extents(fresh)


class TestPlanCachePins:
    """Counters prove the lifecycle: compile once, hit on reuse, drop on
    rule change, fall back instead of failing."""

    def test_fixpoint_iterations_reuse_plans(self):
        program = RelProgram(load_stdlib=False)
        program.define("E", Relation([(i, i + 1) for i in range(1, 40)]))
        program.add_source("""
            def TCr(x, y) : E(x, y)
            def TCr(x, y) : exists((z) | E(x, z) and TCr(z, y))
        """)
        program.relation("TCr")
        stats = program.plan_statistics()
        # Dozens of semi-naive iterations, a handful of distinct bodies.
        assert stats["compiled"] <= 8
        assert stats["hits"] > 30

    def test_prepared_query_rerun_hits(self):
        """One prepared query, many input relations: every re-run
        re-evaluates against fresh data through the same cached plans
        (re-running on *unchanged* data is even cheaper — it is served
        straight from the instance memos and evaluates nothing)."""
        session = connect()
        session.load("""
            def TCr(x, y) : In(x, y)
            def TCr(x, y) : exists((z) | In(x, z) and TCr(z, y))
        """)
        query = session.query("TCr")
        # Two warm-up runs: the first compiles the fixpoint plans, the
        # second the incremental-maintenance variants for the rebind.
        query.run(In=[(1, 2), (2, 3)])
        query.run(In=[(2, 3), (3, 4)])
        first = session.plan_statistics()
        assert query.run(In=[(4, 5), (5, 6), (6, 7)]) == Relation(
            [(4, 5), (5, 6), (6, 7), (4, 6), (5, 7), (4, 7)])
        query.run(In=[(8, 9)])
        after = session.plan_statistics()
        assert after["compiled"] == first["compiled"], (first, after)
        assert after["hits"] > first["hits"]

    def test_data_updates_keep_plans_warm(self):
        """insert/delete bump extent generations, not rule generations:
        after the maintenance variants compile once, further updates and
        re-runs must not recompile anything."""
        session = make_session()
        query = session.query("Path[1]")
        query.run()
        # Warm-up: the first insert compiles the maintenance delta-variant
        # plans, the first delete the DRed demanded-head patterns.
        session.insert("E", [(4, 5)])
        session.delete("E", [(4, 5)])
        query.run()
        warm = session.plan_statistics()
        session.insert("E", [(5, 6)])
        query.run()
        session.delete("E", [(5, 6)])
        query.run()
        steady = session.plan_statistics()
        assert steady["compiled"] == warm["compiled"], (warm, steady)
        assert steady["hits"] > warm["hits"]
        assert steady.get("invalidated", 0) == warm.get("invalidated", 0)

    def test_rule_change_drops_dependent_plans(self):
        session = make_session()
        query = session.query("Path[1]")
        query.run()
        before = session.plan_statistics()
        session.load("def Path(x, y) : E(y, x)")
        query.run()
        after = session.plan_statistics()
        assert after.get("invalidated", 0) > before.get("invalidated", 0)
        assert after["compiled"] > before["compiled"]
        # Correctness of the recompiled plans:
        assert session.execute("Path(2, 1)")

    def test_rule_change_keeps_unrelated_plans(self):
        """Stratum-level: adding rules for a name nothing references must
        not drop plans of independent strata."""
        session = make_session()
        session.execute("Path[1]")
        before = session.plan_statistics()
        session.load("def Unrelated(x) : V(x)")
        session.execute("Path[1]")
        after = session.plan_statistics()
        assert after.get("invalidated", 0) == before.get("invalidated", 0)

    def test_stale_plan_falls_back_to_interpretation(self):
        """A plan recorded for a relation-valued parameter goes stale when
        the same rule is instantiated with a closure parameter — execution
        must fall back, not fail."""
        program = RelProgram(load_stdlib=False)
        program.define("E", Relation([(1, 2), (2, 3), (3, 4)]))
        program.add_source(
            "def Joined(R, x, y) : exists((z) | R(x, z) and R(z, y))"
        )
        with_rel = program.query("Joined[E]")
        assert (1, 3) in with_rel.tuples
        with_closure = program.query("Joined[{(a, b) : E(b, a)}]")
        assert (3, 1) in with_closure.tuples
        stats = program.plan_statistics()
        assert stats.get("fallbacks", 0) > 0, stats

    def test_plan_cache_off_is_pure_interpretation(self):
        program = oracles.under(RelProgram(load_stdlib=False),
                                oracles.interpreted)
        program.define("E", Relation([(1, 2), (2, 3)]))
        program.add_source("""
            def TCr(x, y) : E(x, y)
            def TCr(x, y) : exists((z) | E(x, z) and TCr(z, y))
        """)
        program.relation("TCr")
        assert program.plan_statistics() == {}

    def test_plan_statistics_empty_before_evaluation(self):
        assert RelProgram(load_stdlib=False).plan_statistics() == {}
