"""Fixpoint modes: naive, semi-naive, and Kleene must agree everywhere.

Property-based: random graphs and random recursive program shapes evaluated
by the semi-naive round loop and by Kleene iteration, plus the Datalog
baseline where the program is expressible there.
"""

import contextlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RelProgram, Relation
from repro.datalog import DatalogProgram

PROGRAMS = {
    "tc": """
        def T(x, y) : E(x, y)
        def T(x, y) : exists((z) | E(x, z) and T(z, y))
    """,
    "nonlinear-tc": """
        def T(x, y) : E(x, y)
        def T(x, y) : exists((z) | T(x, z) and T(z, y))
    """,
    "same-generation": """
        def SG(x, y) : E(z, x) and E(z, y) from z
    """.replace("E(z, x) and E(z, y) from z",
                "exists((z) | E(z, x) and E(z, y))"),
    "mutual": """
        def A(x, y) : E(x, y)
        def B(x, y) : exists((z) | A(x, z) and E(z, y))
        def A(x, y) : exists((z) | B(x, z) and E(z, y))
    """,
    "negation-on-top": """
        def T(x, y) : E(x, y)
        def T(x, y) : exists((z) | E(x, z) and T(z, y))
        def Src(x) : E(x, _) and not T(_, x)
    """,
}

edge_lists = st.lists(
    st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda e: e[0] != e[1]),
    max_size=14,
    unique=True,
)


def evaluate(source, edges, kleene=False):
    """Every defined name of ``source`` over ``edges``; ``kleene`` makes no
    stratum semi-naive eligible, so Kleene iteration evaluates them all."""
    program = RelProgram()
    program.define("E", Relation(edges))
    program.add_source(source)
    no_semi_naive = mock.patch.object(RelProgram, "_stratum_sn_eligible",
                                      return_value=False)
    with no_semi_naive if kleene else contextlib.nullcontext():
        return {
            name: program.relation(name)
            for name in program.closures
            if name in source
        }


@pytest.mark.parametrize("name", list(PROGRAMS), ids=list(PROGRAMS))
@settings(max_examples=12, deadline=None)
@given(edges=edge_lists)
def test_modes_agree(name, edges):
    source = PROGRAMS[name]
    assert evaluate(source, edges) == evaluate(source, edges, kleene=True)


@settings(max_examples=15, deadline=None)
@given(edges=edge_lists)
def test_rel_agrees_with_datalog_baseline(edges):
    rel = evaluate(PROGRAMS["tc"], edges)["T"]
    baseline = DatalogProgram()
    baseline.facts("e", edges)
    baseline.rule(("t", "?x", "?y"), [("e", "?x", "?y")])
    baseline.rule(("t", "?x", "?y"), [("e", "?x", "?z"), ("t", "?z", "?y")])
    assert set(rel.tuples) == baseline.query("t")


@settings(max_examples=10, deadline=None)
@given(edges=edge_lists)
def test_linear_equals_nonlinear_tc(edges):
    linear = evaluate(PROGRAMS["tc"], edges)["T"]
    nonlinear = evaluate(PROGRAMS["nonlinear-tc"], edges)["T"]
    assert linear == nonlinear


class TestInstanceFixpoints:
    """Second-order instances use the same iteration machinery."""

    @settings(max_examples=10, deadline=None)
    @given(edges=edge_lists)
    def test_library_tc_equals_global_tc(self, edges):
        program = RelProgram()
        program.define("E", Relation(edges))
        program.add_source(PROGRAMS["tc"])
        assert program.query("TC[E]") == program.relation("T")

    def test_instance_memoization_is_per_parameters(self):
        program = RelProgram()
        program.define("E1", Relation([(1, 2)]))
        program.define("E2", Relation([(3, 4), (4, 5)]))
        assert len(program.query("TC[E1]")) == 1
        assert len(program.query("TC[E2]")) == 3
        assert len(program.query("TC[E1]")) == 1  # memo not polluted
