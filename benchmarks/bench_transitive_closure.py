"""B1 — semi-naive vs. naive evaluation (Section 7's enabling technology).

Paper claim: Rel's recursion is practical because of standard Datalog
evaluation technology; the textbook result is that semi-naive evaluation
beats naive by a factor that grows with the fixpoint depth (graph
diameter). Expected shape: on chains and grids, semi-naive wins by ≥2×,
growing with size; results are identical.

Regenerates the series: engine × {naive, semi-naive} × workload.
"""

import contextlib
from unittest import mock

import pytest

from repro import RelProgram, Relation
from repro.datalog import DatalogProgram
from repro.workloads import chain_graph, grid_graph, random_graph

TC_SOURCE = """
    def TCr(x, y) : E(x, y)
    def TCr(x, y) : exists((z) | E(x, z) and TCr(z, y))
"""


def rel_tc(edges, semi_naive):
    program = RelProgram()
    program.define("E", Relation(edges))
    program.add_source(TC_SOURCE)
    # Naive: no stratum is semi-naive eligible, so Kleene iteration runs.
    naive = mock.patch.object(RelProgram, "_stratum_sn_eligible",
                              return_value=False)
    with contextlib.nullcontext() if semi_naive else naive:
        return program.relation("TCr")


def datalog_tc(edges, semi_naive):
    p = DatalogProgram(semi_naive=semi_naive)
    p.facts("edge", edges)
    p.rule(("tc", "?x", "?y"), [("edge", "?x", "?y")])
    p.rule(("tc", "?x", "?y"), [("edge", "?x", "?z"), ("tc", "?z", "?y")])
    return p.query("tc")


CHAIN = chain_graph(48)[1]
GRID = grid_graph(6, 6)[1]
RANDOM = random_graph(30, 60, seed=13)[1]


@pytest.mark.parametrize("edges,label", [
    (CHAIN, "chain48"), (GRID, "grid6x6"), (RANDOM, "random30"),
], ids=["chain48", "grid6x6", "random30"])
def test_rel_semi_naive(benchmark, edges, label):
    result = benchmark(rel_tc, edges, True)
    assert len(result) > 0


@pytest.mark.parametrize("edges,label", [
    (CHAIN, "chain48"), (GRID, "grid6x6"), (RANDOM, "random30"),
], ids=["chain48", "grid6x6", "random30"])
def test_rel_naive(benchmark, edges, label):
    result = benchmark(rel_tc, edges, False)
    assert len(result) > 0


@pytest.mark.parametrize("edges", [CHAIN], ids=["chain48"])
def test_datalog_semi_naive(benchmark, edges):
    result = benchmark(datalog_tc, edges, True)
    assert len(result) == 48 * 47 // 2


@pytest.mark.parametrize("edges", [CHAIN], ids=["chain48"])
def test_datalog_naive(benchmark, edges):
    result = benchmark(datalog_tc, edges, False)
    assert len(result) == 48 * 47 // 2


# Scaled series (PR 7): 10x the B1 sizes. Semi-naive only — naive TC at
# these depths is quadratically worse and adds nothing to the shape. The
# timings are recorded ungated in BENCH_pr7.json by record_trajectory.py;
# the gates above stay at the CI-affordable sizes.

CHAIN480 = chain_graph(480)[1]
RANDOM300 = random_graph(300, 600, seed=13)[1]


@pytest.mark.parametrize("edges,label", [
    (CHAIN480, "chain480"), (RANDOM300, "random300"),
], ids=["chain480", "random300"])
def test_rel_semi_naive_scaled(benchmark, edges, label):
    result = benchmark.pedantic(rel_tc, args=(edges, True),
                                rounds=3, warmup_rounds=0)
    assert len(result) > 0


def test_shape_semi_naive_beats_naive():
    """The headline shape: semi-naive strictly faster on deep fixpoints,
    with identical results."""
    import time

    edges = chain_graph(40)[1]
    t0 = time.perf_counter()
    sn = rel_tc(edges, True)
    t_sn = time.perf_counter() - t0
    t0 = time.perf_counter()
    naive = rel_tc(edges, False)
    t_naive = time.perf_counter() - t0
    assert sn == naive
    assert t_naive > 1.5 * t_sn, (
        f"expected semi-naive to win by >1.5x, got naive={t_naive:.3f}s "
        f"semi-naive={t_sn:.3f}s"
    )
