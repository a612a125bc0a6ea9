"""Recursion: fixpoints, stratification, semi-naive, non-stratified programs."""

import pytest

from repro import (ConvergenceError, EvalBudget, QueryBudgetError,
                   RelProgram, Relation, connect)
from repro.engine import budget as budget_mod
from repro.engine.program import EngineOptions
from repro.workloads import chain_graph, cycle_graph, random_graph


def tc_program(edges):
    program = RelProgram()
    program.define("E", Relation(edges))
    program.add_source(
        """
        def TCr(x, y) : E(x, y)
        def TCr(x, y) : exists((z) | E(x, z) and TCr(z, y))
        """
    )
    return program


def expected_tc(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
    out = set()
    for start in adj:
        stack = [start]
        seen = set()
        while stack:
            node = stack.pop()
            for nxt in adj.get(node, ()):
                if (start, nxt) not in out:
                    out.add((start, nxt))
                    stack.append(nxt)
    return out


class TestTransitiveClosure:
    def test_chain(self):
        _, edges = chain_graph(6)
        assert tc_program(edges).relation("TCr").tuples == frozenset(expected_tc(edges))

    def test_cycle_saturates(self):
        _, edges = cycle_graph(4)
        tc = tc_program(edges).relation("TCr")
        assert len(tc) == 16  # every pair reachable, including self

    def test_random_graph(self):
        _, edges = random_graph(12, 25, seed=3)
        assert tc_program(edges).relation("TCr").tuples == frozenset(expected_tc(edges))

    def test_naive_and_semi_naive_agree(self, monkeypatch):
        _, edges = random_graph(10, 20, seed=5)
        sn = tc_program(edges).relation("TCr")
        # No stratum semi-naive eligible: Kleene iteration evaluates it.
        monkeypatch.setattr(RelProgram, "_stratum_sn_eligible",
                            lambda self, component: False)
        naive = tc_program(edges).relation("TCr")
        assert sn == naive

    def test_nonlinear_recursion(self):
        """TC via TC(x,z) and TC(z,y) — recursion need not be linear (§3.3)."""
        _, edges = chain_graph(8)
        program = RelProgram()
        program.define("E", Relation(edges))
        program.add_source(
            """
            def T(x, y) : E(x, y)
            def T(x, y) : exists((z) | T(x, z) and T(z, y))
            """
        )
        assert program.relation("T").tuples == frozenset(expected_tc(edges))


class TestMutualRecursion:
    def test_even_odd_distance(self):
        program = RelProgram()
        program.define("E", Relation([(1, 2), (2, 3), (3, 4)]))
        program.add_source(
            """
            def EvenFrom1(x) : x = 1
            def EvenFrom1(y) : exists((x) | OddFrom1(x) and E(x, y))
            def OddFrom1(y) : exists((x) | EvenFrom1(x) and E(x, y))
            """
        )
        assert sorted(program.relation("EvenFrom1").tuples) == [(1,), (3,)]
        assert sorted(program.relation("OddFrom1").tuples) == [(2,), (4,)]


class TestStratifiedNegation:
    def test_unreachable(self):
        program = RelProgram()
        program.define("E", Relation([(1, 2), (2, 3)]))
        program.define("V", Relation([(1,), (2,), (3,), (4,)]))
        program.add_source(
            """
            def Reach(x) : x = 1
            def Reach(y) : exists((x) | Reach(x) and E(x, y))
            def Unreach(x) : V(x) and not Reach(x)
            """
        )
        assert sorted(program.relation("Unreach").tuples) == [(4,)]

    def test_negation_of_recursive_uses_final_extent(self):
        """Negation must see the *fixpoint*, not an intermediate round."""
        program = RelProgram()
        program.define("E", Relation([(1, 2), (2, 3), (3, 4), (4, 5)]))
        program.add_source(
            """
            def R(x) : x = 1
            def R(y) : exists((x) | R(x) and E(x, y))
            def Boundary(x) : R(x) and not exists((y) | E(x, y) and R(y))
            """
        )
        assert sorted(program.relation("Boundary").tuples) == [(5,)]


class TestRecursionWithAggregation:
    def test_shortest_distance_from_source(self):
        program = RelProgram()
        program.define("E", Relation([(1, 2), (2, 3), (1, 3), (3, 4)]))
        program.add_source(
            """
            def D(1, 0) : true
            def D(y, d) : d = min[(e) : exists((x, dx) | D(x, dx) and E(x, y)
                                                         and e = dx + 1)]
            """
        )
        assert sorted(program.relation("D").tuples) == [
            (1, 0), (2, 1), (3, 1), (4, 2)
        ]

    def test_recursive_count_on_dag(self):
        """Paths-to-sink counting through recursion + sum."""
        program = RelProgram()
        program.define("E", Relation([(1, 2), (1, 3), (2, 4), (3, 4)]))
        program.add_source(
            """
            def Paths(4, 1) : true
            def Paths(x, n) : E(x, _) and
                n = sum[(y, c) : E(x, y) and Paths(y, c)]
            """
        )
        assert sorted(program.relation("Paths").tuples) == [
            (1, 2), (2, 1), (3, 1), (4, 1)
        ]


UP_TO_110 = """
    def Up(x) : Seed(x)
    def Up(y) : exists((x) | Up(x) and y = x + 1 and x < 110)
"""


def delta_extents(program):
    return [name for name in program._state.extents
            if name.startswith("__delta__")]


class TestDivergenceGuards:
    def test_runaway_recursion_raises(self):
        program = RelProgram(options=EngineOptions(max_global_iterations=25))
        program.define("Seed", Relation([(1,)]))
        program.add_source(
            """
            def Up(x) : Seed(x)
            def Up(y) : exists((x) | Up(x) and y = x + 1)
            """
        )
        with pytest.raises(ConvergenceError):
            program.relation("Up")
        # No partial fixpoint stays installed: a re-read diverges again.
        with pytest.raises(ConvergenceError):
            program.relation("Up")
        assert delta_extents(program) == []

    def test_runaway_insert_maintenance_leaves_no_partial_extent(self):
        session = connect(options=EngineOptions(max_global_iterations=25))
        session.define("Seed", [(100,)])
        session.load(UP_TO_110)
        assert len(session.relation("Up")) == 11
        with pytest.raises(ConvergenceError):
            session.insert("Seed", [(1,)])
        with pytest.raises(ConvergenceError):
            session.relation("Up")
        assert delta_extents(session.program) == []

    @pytest.mark.parametrize("way_out", ["normal", "budget", "convergence"])
    @pytest.mark.parametrize("phase", ["materialise", "insert", "delete"])
    def test_no_delta_extent_survives_the_round_loop(self, phase, way_out):
        program = RelProgram(load_stdlib=False)
        program.define("Seed", Relation([(100,)]))
        program.add_source(UP_TO_110)
        if phase != "materialise":
            program.relation("Up")
        if way_out == "convergence":
            program.options.max_global_iterations = 3
        run = {
            "materialise": lambda: program.relation("Up"),
            "insert": lambda: program.define("Seed", Relation([(1,), (100,)])),
            "delete": lambda: program.define("Seed", Relation([])),
        }[phase]
        budget = EvalBudget(max_iterations=3) if way_out == "budget" else None
        with budget_mod.scoped(budget):
            if way_out == "normal":
                run()
            else:
                error = {"budget": QueryBudgetError,
                         "convergence": ConvergenceError}[way_out]
                with pytest.raises(error):
                    run()
        assert delta_extents(program) == []
        if way_out == "normal" and phase != "materialise":
            assert program.maintenance_statistics()["maintained_strata"] == 1


class TestRuleOrderIndependence:
    def test_rule_order_does_not_matter(self):
        """Section 3.3: ordering of rules has no effect on semantics."""
        _, edges = random_graph(8, 14, seed=9)
        sources = [
            """
            def T(x, y) : E(x, y)
            def T(x, y) : exists((z) | E(x, z) and T(z, y))
            """,
            """
            def T(x, y) : exists((z) | E(x, z) and T(z, y))
            def T(x, y) : E(x, y)
            """,
        ]
        results = []
        for source in sources:
            program = RelProgram()
            program.define("E", Relation(edges))
            program.add_source(source)
            results.append(program.relation("T"))
        assert results[0] == results[1]
