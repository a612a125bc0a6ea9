"""B2 — worst-case optimal joins vs. binary plans (Section 7).

Paper claim: GNF's many-joins style is practical because of worst-case
optimal joins [38, 47]. The classical demonstration is the triangle query
R(a,b) ⋈ S(b,c) ⋈ T(a,c): on skewed (scale-free) graphs any binary plan
materializes a large intermediate, while leapfrog triejoin stays within
the AGM bound.

Expected shape: leapfrog ≥ binary on skewed inputs (growing with skew and
density), and both agree exactly.
"""

import pytest

from repro.joins import Atom, multiway_join
from repro.workloads import random_graph, scale_free_graph


def triangle_atoms(edges):
    return [
        Atom.of(edges, ("a", "b")),
        Atom.of(edges, ("b", "c")),
        Atom.of(edges, ("a", "c")),
    ]


SKEWED = scale_free_graph(600, attach=16, seed=3)[1]
UNIFORM = random_graph(500, len(SKEWED), seed=3)[1]


def hub_graph(n: int, closing: int = 20, seed: int = 0):
    """The canonical AGM worst case: n sources → hub → n sinks, with only a
    few closing edges. Any binary plan materializes the n² hub paths; the
    triangle output is bounded by the closing edges."""
    import random as _random

    rng = _random.Random(seed)
    edges = [(i, 0) for i in range(1, n + 1)]
    edges += [(0, j) for j in range(n + 1, 2 * n + 1)]
    for _ in range(closing):
        edges.append((rng.randint(1, n), rng.randint(n + 1, 2 * n)))
    return edges


HUB = hub_graph(250, closing=25, seed=1)


@pytest.mark.parametrize("edges,label", [
    (SKEWED, "scale-free"), (UNIFORM, "uniform"),
], ids=["scale-free", "uniform"])
def test_triangles_leapfrog(benchmark, edges, label):
    atoms = triangle_atoms(edges)
    result = benchmark(multiway_join, atoms, ("a", "b", "c"), "leapfrog")
    assert isinstance(result, list)


@pytest.mark.parametrize("edges,label", [
    (SKEWED, "scale-free"), (UNIFORM, "uniform"),
], ids=["scale-free", "uniform"])
def test_triangles_binary(benchmark, edges, label):
    atoms = triangle_atoms(edges)
    result = benchmark(multiway_join, atoms, ("a", "b", "c"), "binary")
    assert isinstance(result, list)


def test_triangles_leapfrog_hub(benchmark):
    atoms = triangle_atoms(HUB)
    result = benchmark(multiway_join, atoms, ("a", "b", "c"), "leapfrog")
    assert isinstance(result, list)


def test_triangles_binary_hub(benchmark):
    atoms = triangle_atoms(HUB)
    result = benchmark(multiway_join, atoms, ("a", "b", "c"), "binary")
    assert isinstance(result, list)


def test_shape_leapfrog_wins_on_hub():
    """On the AGM worst case the binary plan materializes ~n² hub paths
    while the output stays tiny; leapfrog skips the blow-up entirely."""
    import time

    atoms = triangle_atoms(HUB)
    t0 = time.perf_counter()
    lf = multiway_join(atoms, ("a", "b", "c"), "leapfrog")
    t_lf = time.perf_counter() - t0
    t0 = time.perf_counter()
    bp = multiway_join(atoms, ("a", "b", "c"), "binary")
    t_bp = time.perf_counter() - t0
    assert sorted(lf) == sorted(bp)
    from repro.joins.binary import hash_join

    inter, _ = hash_join(HUB, ("a", "b"), HUB, ("b", "c"))
    assert len(inter) > 100 * max(len(lf), 1), (
        f"intermediate {len(inter)} vs output {len(lf)}"
    )
    assert t_lf < t_bp, (
        f"leapfrog {t_lf:.3f}s should beat binary {t_bp:.3f}s on the hub"
    )


def test_shape_agreement_across_inputs():
    for edges in (SKEWED[:300], UNIFORM[:300]):
        atoms = triangle_atoms(edges)
        assert sorted(multiway_join(atoms, ("a", "b", "c"), "leapfrog")) == \
            sorted(multiway_join(atoms, ("a", "b", "c"), "binary"))


# ---------------------------------------------------------------------------
# Engine integration (PR 2): the WCOJ path through Session.query()
# ---------------------------------------------------------------------------

TRIANGLE_RULE = "def Triangle(a, b, c) : Edge(a, b) and Edge(b, c) and Edge(a, c)"


def _session(strategy, edges):
    """``"auto"``: the shipped join routing; ``"off"``: the per-conjunct
    fallback scheduler (``oracles.no_multiway``)."""
    import repro
    from support import oracles

    session = repro.connect()
    if strategy == "off":
        session = oracles.under(session, oracles.no_multiway)
    session.define("Edge", edges)
    session.load(TRIANGLE_RULE)
    return session


def test_engine_shape_triangle_routed_and_agrees():
    """CI smoke (shape only, no timing): a triangle query through the
    engine takes the multiway-join path — observable via the strategy
    counter — and matches the per-conjunct fallback scheduler exactly.
    On the row plane: the columnar probe would otherwise take the typed
    hub join before the strategy choice is made."""
    from support import oracles

    with oracles.row_plane():
        routed = _session("auto", HUB)
        fallback = _session("off", HUB)
        assert routed.relation("Triangle") == fallback.relation("Triangle")
        assert routed.join_statistics().get("leapfrog", 0) >= 1, (
            "hub triangle query should route through leapfrog"
        )
        assert fallback.join_statistics() == {}


def test_engine_shape_wcoj_beats_fallback_on_hub():
    """On the AGM worst case the engine's WCOJ path must beat the
    per-conjunct fallback end-to-end (acceptance: ≥ 2x; typically ≫)."""
    import time

    routed = _session("auto", HUB)
    fallback = _session("off", HUB)
    t0 = time.perf_counter()
    r1 = routed.relation("Triangle")
    t_wcoj = time.perf_counter() - t0
    t0 = time.perf_counter()
    r2 = fallback.relation("Triangle")
    t_fb = time.perf_counter() - t0
    assert r1 == r2
    assert t_wcoj * 2 < t_fb, (
        f"WCOJ path {t_wcoj:.3f}s should be ≥2x faster than the fallback "
        f"{t_fb:.3f}s on the hub graph"
    )


def test_engine_triangle_wcoj(benchmark):
    session = _session("auto", HUB)
    result = benchmark(lambda: session.execute("Triangle"))
    assert len(result) > 0


def test_engine_triangle_fallback(benchmark):
    session = _session("off", HUB)
    result = benchmark(lambda: session.execute("Triangle"))
    assert len(result) > 0
