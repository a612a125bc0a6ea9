"""B-incremental — point updates on a materialized recursive view.

The maintenance claim (paper, Section 5: the engine keeps materialized
views consistent under updates): a point insert into a base relation with a
large materialized transitive closure should cost time proportional to the
*delta*, not to the closure. The "delta" side (``oracles.always_delta``)
propagates the inserted tuples through the stratified fixpoint with the
semi-naive ``__delta__`` rule variants (the delta joins ride the WCOJ
conjunction path); the "recompute" side (``oracles.recompute``) is the
drop-dependent-extents fallback that re-runs the whole fixpoint.

Expected shape: ≥10× for point inserts on the hub-chain closure below
(measured ~25×), with identical results. Deletes (DRed delete-rederive)
are also asserted to win, at a lower floor — over-deletion plus
re-derivation does strictly more checking than insertion.

Regenerates the series: {delta, recompute} × {insert, delete} loops.
"""

import time

import pytest

from support import oracles

from repro import connect

MODES = {"delta": oracles.always_delta, "recompute": oracles.recompute}

CHAIN = 110
POINT_UPDATES = 5

RULES = """
    def Path(x, y) : E(x, y)
    def Path(x, y) : exists((z) | Path(x, z) and Path(z, y))
"""


def hub_chain_edges():
    """A chain with hub short-cuts: |Path| grows quadratically in CHAIN."""
    edges = [(i, i + 1) for i in range(CHAIN)]
    edges += [(0, j) for j in range(2, 40, 7)]
    return edges


def warm_session(maintenance, extra=()):
    # oracles.row_plane: this bench gates *maintenance strategy* (delta vs
    # recompute), so both sides run on the row plane PR 3 measured. The
    # PR-7 columnar plane accelerates only the full-fixpoint recompute
    # side (point deltas are below the kernel row threshold), which
    # would fold the data-plane speedup into a maintenance-strategy gate.
    session = oracles.under(connect(), oracles.row_plane, MODES[maintenance])
    session.define("E", hub_chain_edges() + list(extra))
    session.load(RULES)
    session.relation("Path")  # materialize the closure once
    return session


def leaf_edges():
    return [(CHAIN, 1000 + i) for i in range(POINT_UPDATES)]


def insert_loop(session):
    sizes = []
    for edge in leaf_edges():
        session.insert("E", [edge])
        sizes.append(len(session.relation("Path")))
    return sizes


def delete_loop(session):
    sizes = []
    for edge in leaf_edges():
        session.delete("E", [edge])
        sizes.append(len(session.relation("Path")))
    return sizes


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


# -- pytest-benchmark series -------------------------------------------------


def test_point_insert_delta(benchmark, bench_rounds):
    sizes = benchmark.pedantic(
        lambda: insert_loop(warm_session("delta")), **bench_rounds)
    assert sizes == sorted(sizes)


def test_point_insert_recompute(benchmark, bench_rounds):
    sizes = benchmark.pedantic(
        lambda: insert_loop(warm_session("recompute")), **bench_rounds)
    assert sizes == sorted(sizes)


# -- shape assertions (the acceptance gates, CI-smoke runnable) --------------


def test_insert_agreement_and_counters():
    """Both modes produce identical closures; delta mode actually takes the
    incremental path (maintenance counters prove it)."""
    delta = warm_session("delta")
    recompute = warm_session("recompute")
    assert insert_loop(delta) == insert_loop(recompute)
    assert delta.relation("Path") == recompute.relation("Path")
    assert delta.maintenance_statistics()["maintained_strata"] >= POINT_UPDATES
    assert "maintained_strata" not in recompute.maintenance_statistics()


def test_delete_agreement():
    delta = warm_session("delta", extra=leaf_edges())
    recompute = warm_session("recompute", extra=leaf_edges())
    assert delete_loop(delta) == delete_loop(recompute)
    assert delta.relation("Path") == recompute.relation("Path")
    assert delta.maintenance_statistics().get("overdeleted_tuples", 0) > 0


def test_point_insert_speedup_at_least_10x():
    """The acceptance floor: point inserts into the materialized closure are
    ≥10× faster under delta maintenance than under drop-and-recompute."""
    # Warm both sessions fully before timing (parse + first fixpoint).
    delta_session = warm_session("delta")
    recompute_session = warm_session("recompute")

    delta_time, delta_sizes = timed(insert_loop, delta_session)
    recompute_time, recompute_sizes = timed(insert_loop, recompute_session)

    assert delta_sizes == recompute_sizes
    assert recompute_time / delta_time >= 10, (
        f"incremental insert speedup only {recompute_time / delta_time:.1f}× "
        f"(recompute {recompute_time:.3f}s, delta {delta_time:.3f}s)"
    )


def test_point_delete_speedup_at_least_3x():
    """DRed delete-rederive also beats recompute on point deletes (a lower
    floor: over-deletion + re-derivation does strictly more checking)."""
    delta_session = warm_session("delta", extra=leaf_edges())
    recompute_session = warm_session("recompute", extra=leaf_edges())

    delta_time, delta_sizes = timed(delete_loop, delta_session)
    recompute_time, recompute_sizes = timed(delete_loop, recompute_session)

    assert delta_sizes == recompute_sizes
    assert recompute_time / delta_time >= 3, (
        f"incremental delete speedup only {recompute_time / delta_time:.1f}× "
        f"(recompute {recompute_time:.3f}s, delta {delta_time:.3f}s)"
    )
