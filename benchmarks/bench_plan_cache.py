"""B5 — plan compilation vs. per-call interpretation (the fixpoint tax).

Paper claim (Section 7): Rel evaluates with a plan-then-execute engine —
rule bodies are planned once and executed many times, which is what makes
deep fixpoints practical. Our evaluator interprets rule bodies from the
AST; this benchmark measures what the PR-4 plan cache (compile each body
once into an executable plan: conjunct order, multiway-join extraction,
cached hash-join indexes) buys back on fixpoint-heavy workloads.

Expected shape: on a deep single-source reachability fixpoint (hundreds of
semi-naive iterations over tiny deltas — scheduling-dominated), compiled
plans win by ≥2x end-to-end; on full transitive closure and PageRank
(data-dominated iterations) they still win, by smaller factors. Results
are identical in every case, and ``plan_statistics()`` shows hits two
orders of magnitude above compiles.

Run with:  pytest benchmarks/bench_plan_cache.py --benchmark-only
"""

import contextlib
import time

import pytest

from support import oracles

from repro import RelProgram, Relation, connect
from repro.workloads import chain_graph, grid_graph
from repro.workloads.graphs import cycle_graph, random_graph
from repro.workloads.matrices import column_stochastic_link_matrix

TC_SOURCE = """
    def TCr(x, y) : E(x, y)
    def TCr(x, y) : exists((z) | E(x, z) and TCr(z, y))
"""

REACH_SOURCE = """
    def Reach(x) : Source(x)
    def Reach(y) : exists((x) | Reach(x) and E(x, y))
"""

CHAIN = chain_graph(240)[1]
REACH_CHAIN = chain_graph(300)[1]
GRID = grid_graph(10, 10)[1]


@contextlib.contextmanager
def plane(plan_cache):
    """Cached plans (as shipped) or ``oracles.interpreted``, both on the
    row plane: this bench gates *plan compilation* vs. per-call
    interpretation. The columnar kernels absorb exactly the per-iteration
    planning and index-building overheads the plan cache amortizes, which
    would fold the data-plane speedup into a plan-reuse gate."""
    with oracles.row_plane(), \
            (contextlib.nullcontext() if plan_cache else oracles.interpreted()):
        yield


def run_fixpoint(source, relations, target, plan_cache):
    with plane(plan_cache):
        program = RelProgram(load_stdlib=False)
        for name, tuples in relations.items():
            program.define(name, Relation(tuples))
        program.add_source(source)
        return program.relation(target), program


def reach(plan_cache):
    return run_fixpoint(REACH_SOURCE,
                        {"E": REACH_CHAIN, "Source": [(1,)]},
                        "Reach", plan_cache)


def pagerank_matrix(n):
    _, cyc = cycle_graph(n)
    _, rnd = random_graph(n, n, seed=n)
    return column_stochastic_link_matrix(sorted(set(cyc) | set(rnd)))


PR_MATRIX = pagerank_matrix(10)


def pagerank(plan_cache):
    with plane(plan_cache):
        program = RelProgram(database={"G": PR_MATRIX})
        return program.query("PageRank[G]")


# -- timings ----------------------------------------------------------------


@pytest.mark.parametrize("plan_cache", [True, False], ids=["plans", "interp"])
def test_tc_chain(benchmark, bench_rounds, plan_cache):
    result = benchmark.pedantic(
        lambda: run_fixpoint(TC_SOURCE, {"E": CHAIN}, "TCr", plan_cache)[0],
        **bench_rounds)
    assert len(result) == 240 * 239 // 2


@pytest.mark.parametrize("plan_cache", [True, False], ids=["plans", "interp"])
def test_reach_chain(benchmark, bench_rounds, plan_cache):
    result = benchmark.pedantic(lambda: reach(plan_cache)[0], **bench_rounds)
    assert len(result) == 300


@pytest.mark.parametrize("plan_cache", [True, False], ids=["plans", "interp"])
def test_pagerank(benchmark, bench_rounds, plan_cache):
    ranks = benchmark.pedantic(lambda: pagerank(plan_cache), **bench_rounds)
    assert abs(sum(v for _, v in ranks.tuples) - 1.0) < 0.02


# -- gated shapes -----------------------------------------------------------


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def test_shape_plan_reuse_at_least_2x_on_fixpoint():
    """The headline gate: a deep transitive-closure-style fixpoint
    (single-source reachability, 300 semi-naive iterations) runs ≥2x
    faster end-to-end with cached plans than with per-call interpretation,
    with identical results and the counters proving the reuse."""
    t_interp, (r_interp, _) = _timed(lambda: reach(False))
    t_plans, (r_plans, program) = _timed(lambda: reach(True))
    assert r_plans == r_interp
    assert len(r_plans) == 300
    stats = program.plan_statistics()
    assert stats["hits"] >= 100 * stats["compiled"], stats
    assert t_interp > 2.0 * t_plans, (
        f"expected ≥2x from plan reuse, got interp={t_interp:.3f}s "
        f"plans={t_plans:.3f}s ({t_interp / t_plans:.2f}x)"
    )


def test_shape_tc_and_pagerank_agree():
    """Full TC and PageRank: compiled plans produce identical results (the
    timing claim for these data-dominated fixpoints lives in the B5 timing
    series above — asserting wall-clock here would flake on busy runners)."""
    tc_interp = run_fixpoint(TC_SOURCE, {"E": CHAIN}, "TCr", False)[0]
    tc_plans = run_fixpoint(TC_SOURCE, {"E": CHAIN}, "TCr", True)[0]
    assert tc_plans == tc_interp
    assert pagerank(True) == pagerank(False)


def test_shape_prepared_query_reuse_counters():
    """One prepared query over many inputs: after warm-up, re-runs
    compile nothing and hit cached plans (the bench_session_reuse
    composition)."""
    session = connect()
    session.load(TC_SOURCE.replace("E(", "In("))
    query = session.query("TCr")
    query.run(In=[(1, 2), (2, 3)])
    query.run(In=[(2, 3), (3, 4)])
    warm = session.plan_statistics()
    for batch in ([(4, 5), (5, 6)], [(7, 8)], [(1, 9), (9, 3), (3, 7)]):
        query.run(In=batch)
    steady = session.plan_statistics()
    assert steady["compiled"] == warm["compiled"], (warm, steady)
    assert steady["hits"] > warm["hits"]
