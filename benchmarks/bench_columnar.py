"""B7/B8 — columnar data plane vs. the interpreted row plane.

The columnar plane types each relation column into a contiguous vector
(``repro.model.columns``) and routes joins, dedupe, and projection
through numpy kernels when every input column types cleanly. The claim
is end-to-end, not micro: on a transitive closure whose fixpoint
materializes large intermediates (the hub graph — every spoke reaches
every other spoke through a few hub vertices), the shipped plane must
beat the row plane (``oracles.row_plane``) by ≥3x at 10x the sizes of the
B1 graphs. On
driver-bound workloads (the deep chain: hundreds of tiny iterations)
the plane is allowed to merely break even — asserted as ≥0.8x so a
constant-factor regression still fails.

The checkpoint codec used to carry two A/B gates here (columnar blocks
vs. row lists, string tables vs. inline strings). Their module switches
are gone: the codec writes only its newest format, and
``tests/storage/test_columnar_codec.py`` keeps every older format
decoding.
"""

import contextlib
import time

import pytest

from support import oracles

import repro
from repro.model import columns
from repro.workloads import chain_graph

kernels = pytest.mark.skipif(
    not columns.KERNELS_AVAILABLE,
    reason="columnar kernels unavailable (no numpy or REPRO_COLUMNAR=off)")

TC_SOURCE = """
    def TCr(x, y) : E(x, y)
    def TCr(x, y) : exists((z) | E(x, z) and TCr(z, y))
"""


def hub_tc_edges(n_spokes, n_hubs=4):
    """A shallow-fixpoint, fat-intermediate TC workload: every spoke
    points at every hub and each hub fans back out to the spokes, so the
    closure is dense (~n² rows) while the fixpoint converges in a few
    iterations. This is where vectorized join/project/dedupe pays; the
    chain graph (deep fixpoint, tiny per-iteration joins) is where it
    cannot."""
    edges = []
    for h in range(n_hubs):
        hub = 1_000_000 + h
        for s in range(n_spokes):
            edges.append((s, hub))
            edges.append((hub, (s * 7 + 3) % n_spokes))
    return edges


HUB300 = hub_tc_edges(300)      # 10x the B1 random30 vertex count
CHAIN480 = chain_graph(480)[1]  # 10x the B1 chain48


#: "auto": as shipped; "on": kernels at any size; "off": the row plane.
MODES = {"auto": contextlib.nullcontext, "on": oracles.kernels_forced,
         "off": oracles.row_plane}


def tc_closure(edges, mode):
    with MODES[mode]():
        session = repro.connect(load_stdlib=False)
        session.define("E", edges)
        session.load(TC_SOURCE)
        return session, session.relation("TCr")


def best_of(fn, repeat=2):
    """Best-of-N wall time (the standard noise guard on a shared CI box:
    the minimum is the least-interfered run). Returns (seconds, result)."""
    best, result = None, None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best, result


# ---------------------------------------------------------------------------
# Gates (shape tests, run by CI and record_trajectory.py)
# ---------------------------------------------------------------------------


@kernels
def test_shape_columnar_speedup_on_hub_tc():
    """Acceptance gate: ≥3x end-to-end on hub TC at 10x size, identical
    results, and the counters prove the vectorized path actually ran."""
    t_on, (session_on, r_on) = best_of(lambda: tc_closure(HUB300, "auto"))
    t_off, (_, r_off) = best_of(lambda: tc_closure(HUB300, "off"))
    assert r_on == r_off
    stats = session_on.columnar_statistics()
    assert stats.get("join", 0) >= 1, f"columnar join never engaged: {stats}"
    assert t_off > 3.0 * t_on, (
        f"expected columnar ≥3x on hub TC, got off={t_off:.3f}s "
        f"auto={t_on:.3f}s ({t_off / t_on:.2f}x)"
    )


@kernels
def test_shape_columnar_breaks_even_on_chain_tc():
    """The driver-bound regime: 480 iterations of single-row growth.
    Columnar cannot win here — the gate is only that it does not lose."""
    t0 = time.perf_counter()
    _, r_on = tc_closure(CHAIN480, "auto")
    t_on = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, r_off = tc_closure(CHAIN480, "off")
    t_off = time.perf_counter() - t0
    assert r_on == r_off
    assert t_off > 0.8 * t_on, (
        f"columnar regressed the chain TC: off={t_off:.3f}s auto={t_on:.3f}s"
    )


def test_shape_modes_agree_on_hub():
    """Agreement smoke (runs even without numpy): all three planes produce
    the same closure."""
    results = [tc_closure(hub_tc_edges(40), mode)[1]
               for mode in ("auto", "on", "off")]
    assert results[0] == results[1] == results[2]


# ---------------------------------------------------------------------------
# Timing series (pytest-benchmark, local runs)
# ---------------------------------------------------------------------------


@kernels
def test_hub_tc_columnar(benchmark):
    _, result = tc_closure(HUB300, "auto")  # warm check
    assert len(result) > 0
    benchmark.pedantic(lambda: tc_closure(HUB300, "auto"),
                       rounds=3, warmup_rounds=0)


def test_hub_tc_interpreted(benchmark):
    benchmark.pedantic(lambda: tc_closure(HUB300, "off"),
                       rounds=3, warmup_rounds=0)
