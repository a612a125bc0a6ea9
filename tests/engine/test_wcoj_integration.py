"""Engine integration of worst-case optimal joins (PR 2 tentpole).

Conjunctions of plain positive atoms over materialized relations are
extracted from ``_schedule`` and evaluated as one multiway join; these
tests assert (a) the routing actually happens — observable via the
session's ``join_statistics()`` explain counter — and (b) the routed
results are identical to the per-conjunct fallback scheduler's
(``oracles.no_multiway``, the strategy ``"off"`` below).
"""

import functools
import random

import pytest

from support import oracles

import repro
from repro.engine.program import EngineOptions

#: "auto" is the shipped heuristic; "leapfrog"/"binary" force one strategy.
STRATEGIES = {"auto": (), "off": (oracles.no_multiway,),
              "leapfrog": (functools.partial(oracles.join_strategy,
                                             "leapfrog"),),
              "binary": (functools.partial(oracles.join_strategy,
                                           "binary"),)}


def fresh_session(strategy, **relations):
    # oracles.row_plane: this file pins the *interpreted* strategy routing
    # (leapfrog/binary counters); the columnar plane would otherwise
    # intercept large typed joins first (tests/engine/test_columnar.py
    # covers that path).
    session = oracles.under(repro.connect(), oracles.row_plane,
                            *STRATEGIES[strategy])
    for name, rows in relations.items():
        session.define(name, rows)
    return session


TRIANGLE = "def Triangle(a, b, c) : Edge(a, b) and Edge(b, c) and Edge(a, c)"


def random_edges(rng, n_nodes, n_edges):
    return list({(rng.randrange(n_nodes), rng.randrange(n_nodes))
                 for _ in range(n_edges)})


class TestRouting:
    def test_triangle_uses_leapfrog_when_forced(self):
        edges = [(1, 2), (2, 3), (1, 3), (3, 1)]
        s = fresh_session("leapfrog", Edge=edges)
        s.load(TRIANGLE)
        assert sorted(s.relation("Triangle").tuples) == [(1, 2, 3)]
        assert s.join_statistics().get("leapfrog", 0) >= 1

    def test_triangle_query_through_session_query(self):
        edges = [(1, 2), (2, 3), (1, 3)]
        s = fresh_session("leapfrog", Edge=edges)
        q = s.query("{(a, b, c) : Edge(a, b) and Edge(b, c) and Edge(a, c)}")
        assert sorted(q.run().tuples) == [(1, 2, 3)]
        assert s.join_statistics().get("leapfrog", 0) >= 1

    def test_off_strategy_never_routes(self):
        edges = [(1, 2), (2, 3), (1, 3)]
        s = fresh_session("off", Edge=edges)
        s.load(TRIANGLE)
        assert sorted(s.relation("Triangle").tuples) == [(1, 2, 3)]
        assert s.join_statistics() == {}

    def test_auto_picks_leapfrog_on_large_cyclic(self):
        rng = random.Random(0)
        edges = random_edges(rng, 40, 300)
        s = fresh_session("auto", Edge=edges)
        s.load(TRIANGLE)
        s.relation("Triangle")
        assert s.join_statistics().get("leapfrog", 0) >= 1

    def test_auto_picks_binary_on_small_input(self):
        s = fresh_session("auto", Edge=[(1, 2), (2, 3), (1, 3)])
        s.load(TRIANGLE)
        s.relation("Triangle")
        stats = s.join_statistics()
        assert stats.get("binary", 0) >= 1 and "leapfrog" not in stats

    def test_options_plumbing(self):
        opts = EngineOptions(max_global_iterations=7)
        s = repro.Session(options=opts)
        assert s.program.options is opts


class TestAgreementWithFallback:
    """WCOJ-routed conjunctions must match the fallback scheduler exactly."""

    QUERIES = [
        TRIANGLE,
        "def Path2(x, z) : exists((y) | Edge(x, y) and Edge(y, z))",
        "def Diamond(a, d) : exists((b, c) | Edge(a, b) and Edge(a, c) "
        "and Edge(b, d) and Edge(c, d))",
        "def Loop(x) : Edge(x, x) and Edge(x, _)",
        "def From1(y, z) : Edge(1, y) and Edge(y, z)",
    ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("strategy", ["leapfrog", "binary", "auto"])
    def test_conjunctive_rules_agree(self, seed, strategy):
        rng = random.Random(seed)
        edges = random_edges(rng, 12, 50)
        routed = fresh_session(strategy, Edge=edges)
        fallback = fresh_session("off", Edge=edges)
        for src in self.QUERIES:
            routed.load(src)
            fallback.load(src)
        for name in ("Triangle", "Path2", "Diamond", "Loop", "From1"):
            assert routed.relation(name) == fallback.relation(name), name

    @pytest.mark.parametrize("strategy", ["leapfrog", "binary"])
    def test_mixed_conjunctions_with_non_atoms(self, strategy):
        """Comparisons, negation, arithmetic ride alongside routed atoms."""
        edges = [(i, (i * 3 + 1) % 10) for i in range(10)]
        marked = [(2,), (5,), (7,)]
        src = """
            def Q(x, z) : exists((y) | Edge(x, y) and Edge(y, z)
                                       and x != z and not Marked(z))
            def R(x, y) : Edge(x, y) and Marked(x) and y > 2
            def S(x, w) : exists((y) | Edge(x, y) and Edge(y, w) and w = x + 1)
        """
        routed = fresh_session(strategy, Edge=edges, Marked=marked)
        fallback = fresh_session("off", Edge=edges, Marked=marked)
        routed.load(src)
        fallback.load(src)
        for name in ("Q", "R", "S"):
            assert routed.relation(name) == fallback.relation(name), name

    @pytest.mark.parametrize("strategy", ["leapfrog", "binary"])
    def test_recursion_agrees(self, strategy):
        """Semi-naive deltas flow through the binding-table atom."""
        rng = random.Random(3)
        edges = random_edges(rng, 15, 30)
        src = """
            def TC(x, y) : Edge(x, y)
            def TC(x, y) : exists((z) | Edge(x, z) and TC(z, y))
        """
        routed = fresh_session(strategy, Edge=edges)
        fallback = fresh_session("off", Edge=edges)
        routed.load(src)
        fallback.load(src)
        assert routed.relation("TC") == fallback.relation("TC")

    @pytest.mark.parametrize("strategy", ["leapfrog", "binary"])
    def test_constants_and_wildcards(self, strategy):
        edges = [(1, 2), (2, 3), (1, 3), (3, 4), (2, 4)]
        src = "def P(y, z) : Edge(1, y) and Edge(y, z) and Edge(z, _)"
        routed = fresh_session(strategy, Edge=edges)
        fallback = fresh_session("off", Edge=edges)
        routed.load(src)
        fallback.load(src)
        assert routed.relation("P") == fallback.relation("P")

    def test_mixed_arity_relation(self):
        """Non-partial matching filters to tuples of the matched arity."""
        mixed = [(1, 2), (2, 3), (1, 2, 3)]
        src = "def M(x, z) : exists((y) | R(x, y) and R(y, z))"
        routed = fresh_session("leapfrog", R=mixed)
        fallback = fresh_session("off", R=mixed)
        routed.load(src)
        fallback.load(src)
        assert routed.relation("M") == fallback.relation("M")


class TestIncrementalReuse:
    def test_update_invalidates_routed_results(self):
        """A base update must be visible to re-run prepared queries (the
        trie cache is keyed by relation identity; new data → new tries)."""
        s = fresh_session("leapfrog", Edge=[(1, 2), (2, 3), (1, 3)])
        q = s.query("{(a, b, c) : Edge(a, b) and Edge(b, c) and Edge(a, c)}")
        assert sorted(q.run().tuples) == [(1, 2, 3)]
        s.insert("Edge", [(3, 4), (1, 4)])
        assert sorted(q.run().tuples) == [(1, 2, 3), (1, 3, 4)]
        s.delete("Edge", [(1, 2)])
        assert sorted(q.run().tuples) == [(1, 3, 4)]

    def test_repeated_runs_accumulate_counters(self):
        s = fresh_session("leapfrog", Edge=[(1, 2), (2, 3), (1, 3)])
        q = s.query("{(a, b, c) : Edge(a, b) and Edge(b, c) and Edge(a, c)}")
        q.run()
        first = s.join_statistics().get("leapfrog", 0)
        q.run()
        q.run()
        assert s.join_statistics().get("leapfrog", 0) >= first + 2

    def test_trie_cache_survives_repeat_runs(self):
        """Same relation, same query: the second run reuses cached tries
        (observable as cache entries pinned to the same relation)."""
        s = fresh_session("leapfrog", Edge=[(i, i + 1) for i in range(20)]
                          + [(i + 1, i) for i in range(20)])
        q = s.query("{(a, b, c) : Edge(a, b) and Edge(b, c) and Edge(a, c)}")
        q.run()
        state = s.program._state
        entries = dict(state._tries)
        assert entries, "leapfrog run should have populated the trie cache"
        q.run()
        for key, (pin, trie) in entries.items():
            assert state._tries.get(key, (None, None))[1] is trie
