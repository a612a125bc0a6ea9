"""Columnar data plane ≡ dict-of-tuples plane (PR 7/8 differential suite).

The typed columnar kernels are an *implementation* of the same semantics
as the interpreted row loops — every result, on every program, after
every update, must be bit-for-bit the same relation. These tests run the
shared random-program and random-update generators twice, under
``oracles.kernels_forced`` (kernels at any size) and ``oracles.row_plane``
(kernels never), and demand identical answers; counter tests pin that
the forced session actually exercised the kernels, so agreement is not
vacuous. Value-semantics pins (``True != 1``, ``1 == 1.0``, mixed-arity
fallback) guard the exact cases a naive numpy port would get wrong.

PR 8 made derived extents columnar-*native* (rules emit
``Relation.from_columns`` results whose keyed dict builds only on
demand), so the suite additionally covers those extents through
incremental maintenance — the semi-naive insert path and the DRed
over-delete/re-derive path — and through snapshot reads, plus the same
value-semantics pins routed through the lazy-dict funnel.
"""

import random

import pytest

from support import oracles
from support.generators import (SCRIPT_ARITIES, SCRIPT_BASE, SCRIPT_QUERIES,
                                SCRIPT_RULES, random_program,
                                random_update_op)

from repro import Relation, connect
from repro.model import columns

kernels = pytest.mark.skipif(
    not columns.KERNELS_AVAILABLE,
    reason="columnar kernels unavailable (no numpy or REPRO_COLUMNAR=off)")

N_PROGRAMS = 40
N_SCRIPTS = 12

#: "on": kernels at any input size; "off": never; "auto": as shipped.
MODES = {"on": (oracles.kernels_forced,), "off": (oracles.row_plane,),
         "auto": ()}


def _connect(mode, *paths, **kwargs):
    """A session whose every call runs under ``mode``'s oracle and
    ``paths``."""
    return oracles.under(connect(**kwargs), *MODES[mode], *paths)


def _pair(program):
    sessions = []
    for mode in ("on", "off"):
        session = _connect(mode, load_stdlib=program.uses_stdlib)
        for name, rel in program.base.items():
            session.define(name, rel)
        session.load(program.source)
        sessions.append(session)
    return sessions


class TestStatistics:
    def test_statistics_shape(self):
        session = connect(load_stdlib=False)
        session.define("E", [(1, 2), (2, 3)])
        session.define("M", [(1,), (1, 2)])  # mixed arity: dict plane
        stats = session.statistics()
        assert stats["E"]["rows"] == 2
        assert stats["M"]["columnar_columns"] == 0
        if columns.KERNELS_AVAILABLE:
            assert stats["E"]["columnar_columns"] == 2


@kernels
class TestCounters:
    def test_forced_on_counts_kernel_events(self):
        session = _connect("on")
        session.define("E", [(i, i + 1) for i in range(8)] + [(3, 1)])
        session.load("def P(x, z) : exists((y) | E(x, y) and E(y, z))")
        session.relation("P")
        stats = session.columnar_statistics()
        assert stats.get("join", 0) >= 1
        assert session.join_statistics().get("columnar", 0) >= 1

    def test_off_counts_nothing(self):
        session = _connect("off")
        session.define("E", [(i, i + 1) for i in range(8)])
        session.load("def P(x, z) : exists((y) | E(x, y) and E(y, z))")
        session.relation("P")
        assert session.columnar_statistics() == {}
        assert "columnar" not in session.join_statistics()

    def test_auto_engages_only_past_the_size_floor(self):
        small = _connect("auto")
        small.define("E", [(1, 2), (2, 3)])
        small.load("def P(x, z) : exists((y) | E(x, y) and E(y, z))")
        small.relation("P")
        assert small.columnar_statistics().get("join", 0) == 0

        big = _connect("auto")
        big.define("E", [(i, (i * 7 + 1) % 90) for i in range(150)])
        big.load("def P(x, z) : exists((y) | E(x, y) and E(y, z))")
        big.relation("P")
        assert big.columnar_statistics().get("join", 0) >= 1

    def test_fallback_events_are_counted_not_fatal(self):
        session = _connect("on")
        session.define("E", [(1, Relation([(2,)]))])  # untypeable column
        session.load("def P(x, r) : E(x, r)")
        session.load("def Q(x, z) : exists((r) | P(x, r) and E(x, r) "
                     "and E(z, r))")
        assert len(session.relation("Q")) == 1
        assert session.columnar_statistics().get("join_fallback", 0) >= 1

    def test_snapshot_counters_are_private(self):
        session = _connect("on")
        session.define("E", [(i, i + 1) for i in range(6)])
        session.load("def P(x, z) : exists((y) | E(x, y) and E(y, z))")
        session.relation("P")
        before = session.columnar_statistics()
        snapshot = session.snapshot()
        assert snapshot.columnar_statistics() == {}
        snapshot.execute("P")
        assert session.columnar_statistics() == before


@kernels
class TestValueSemanticsPins:
    def test_true_and_one_stay_distinct(self):
        for mode in ("on", "off"):
            session = _connect(mode)
            session.define("B", [(True,), (1,)])
            session.load("def D(x) : B(x) and B(x)")
            rows = list(session.relation("D").rows())
            assert len(rows) == 2, mode
            assert {type(r[0]) for r in rows} == {bool, int}, mode

    def test_one_and_one_point_zero_merge(self):
        for mode in ("on", "off"):
            session = _connect(mode)
            session.define("N", [(1,), (2.5,)])
            session.define("M", [(1.0,), (2.5,)])
            session.load("def J(x) : N(x) and M(x)")
            assert len(session.relation("J")) == 2, mode

    def test_mixed_arity_relation_falls_back_correctly(self):
        results = []
        for mode in ("on", "off"):
            session = _connect(mode)
            session.define("R", [(1, 2), (2, 3), (1, 2, 3)])
            session.load("def M(x, z) : exists((y) | R(x, y) and R(y, z))")
            results.append(session.relation("M"))
        assert results[0] == results[1]
        assert results[0] == Relation([(1, 3)])

    def test_bool_filter_agrees(self):
        for mode in ("on", "off"):
            session = _connect(mode)
            session.define("U", [(True,), (False,), (1,), (0,), (2,)])
            session.load("def Eq(x) : U(x) and x = 1\n"
                         "def Ne(x) : U(x) and x != 1")
            assert sorted(session.relation("Eq").tuples) == [(1,)], mode
            assert len(session.relation("Ne")) == 4, mode


@kernels
class TestDifferentialPrograms:
    @pytest.mark.parametrize("seed", range(N_PROGRAMS))
    def test_random_programs_agree(self, seed):
        program = random_program(random.Random(20_000 + seed))
        columnar, plain = _pair(program)
        for query in program.queries:
            got = columnar.execute(query)
            want = plain.execute(query)
            assert got == want, (
                f"seed {seed}: columnar divergence on {query!r}: "
                f"{sorted(got.sorted_tuples())} != "
                f"{sorted(want.sorted_tuples())}\nprogram:\n{program.source}"
            )


@kernels
class TestDifferentialUpdateScripts:
    @pytest.mark.parametrize("seed", range(N_SCRIPTS))
    def test_maintenance_deltas_agree(self, seed):
        """Random insert/delete scripts over the shared catalog: after
        every step, every probe query and every derived extent must
        match between the columnar and dict planes (the incremental
        deltas flow through the forced kernels)."""
        rng = random.Random(30_000 + seed)
        sessions = []
        for mode in ("on", "off"):
            session = _connect(mode)
            for name, rows in SCRIPT_BASE.items():
                session.define(name, rows)
            session.load(SCRIPT_RULES)
            sessions.append(session)
        columnar, plain = sessions

        for step in range(8):
            kind, name, tuples = random_update_op(rng, SCRIPT_ARITIES)
            for session in sessions:
                getattr(session, kind)(name, tuples)
            for query in SCRIPT_QUERIES:
                got = columnar.execute(query)
                want = plain.execute(query)
                assert got == want, (
                    f"seed {seed} step {step} ({kind} {name} {tuples}): "
                    f"{query!r} diverged"
                )
        # The agreement is not vacuous: the forced-on session really
        # routed work through the kernels.
        assert columnar.columnar_statistics()


TC_RULES = """
    def TCr(x, y) : E(x, y)
    def TCr(x, y) : exists((z) | E(x, z) and TCr(z, y))
"""


@kernels
class TestNativeExtentCounters:
    """The PR-8 plane counters: ``relation_native`` (a Relation adopted a
    ColumnSet as its storage, no row dict) vs ``relation_lazy_dict`` (a
    native relation was forced to build its keyed dict after all), plus
    ``emit`` (a rule result reached the extent without leaving the typed
    plane)."""

    def test_fixpoint_emits_native_relations(self):
        session = _connect("on", load_stdlib=False)
        session.define("E", [(i, (i * 3 + 1) % 40) for i in range(120)])
        session.load(TC_RULES)
        session.relation("TCr")
        stats = session.columnar_statistics()
        assert stats.get("emit", 0) >= 1, stats
        assert stats.get("relation_native", 0) >= 1, stats

    def test_native_and_lazy_dict_counted_separately(self):
        sink = {}
        prev = columns.swap_stats_sink(sink)
        try:
            rel = Relation.from_columns(
                columns.ColumnSet.from_rows([(1, "a"), (2, "b")]))
            assert sink == {"relation_native": 1}
            assert (1, "a") in rel  # first dict demand builds the dict
            assert (9, "q") not in rel  # memoized: no second build
            assert sink == {"relation_native": 1, "relation_lazy_dict": 1}
        finally:
            columns.swap_stats_sink(prev)


@kernels
class TestLazyDictValueSemantics:
    """The PR-7 pins, rerouted through the lazy-dict funnel: a
    columnar-native relation that is forced to key its rows must apply
    exactly the ``row_key`` semantics the dict plane always had."""

    def test_true_and_one_stay_distinct_through_lazy_dict(self):
        # A bool/int mix in one column is untypeable by design — merging
        # would equate True with 1. The plane declines…
        assert columns.ColumnSet.from_rows([(True,), (1,)]) is None
        # …and a pure bool column, keyed lazily, still tags its rows:
        rel = Relation.from_columns(
            columns.ColumnSet.from_rows([(True,), (False,)]))
        assert (True,) in rel  # containment keys the dict
        assert (1,) not in rel and (0,) not in rel
        assert rel != Relation([(1,), (0,)])
        assert rel == Relation([(True,), (False,)])
        assert {type(r[0]) for r in rel.rows()} == {bool}

    def test_one_and_one_point_zero_merge_through_lazy_dict(self):
        rel = Relation.from_columns(columns.ColumnSet.from_rows([(1,), (2,)]))
        assert (1.0,) in rel  # row_key(1.0) == row_key(1)
        assert rel == Relation([(1.0,), (2.0,)])
        assert rel.union(Relation([(1.0,)])) is rel  # nothing new


@kernels
class TestNativeMaintenanceDifferential:
    """Columnar-native derived extents through incremental maintenance:
    the semi-naive insert path and the DRed delete path both run on
    native extents with the kernels forced and must match the row plane
    step for step."""

    @pytest.mark.parametrize("seed", range(6))
    def test_delta_maintenance_scripts_agree(self, seed):
        rng = random.Random(40_000 + seed)
        sessions = []
        for mode in ("on", "off"):
            session = _connect(mode, oracles.always_delta)
            for name, rows in SCRIPT_BASE.items():
                session.define(name, rows)
            session.load(SCRIPT_RULES)
            session.execute("Path")  # warm: updates take the delta path
            sessions.append(session)
        columnar, plain = sessions
        for step in range(10):
            kind, name, tuples = random_update_op(rng, SCRIPT_ARITIES)
            for session in sessions:
                getattr(session, kind)(name, tuples)
            for query in SCRIPT_QUERIES:
                got = columnar.execute(query)
                want = plain.execute(query)
                assert got == want, (
                    f"seed {seed} step {step} ({kind} {name} {tuples}): "
                    f"{query!r} diverged"
                )
        assert columnar.columnar_statistics().get("relation_native", 0) >= 1
        assert columnar.maintenance_statistics().get(
            "maintained_strata", 0) >= 1

    def test_dred_overdeletes_and_rederives_on_native_extents(self):
        """A targeted cycle break: deleting one edge of a large cycle
        forces DRed to over-delete most of the closure and re-derive the
        surviving chain — on columnar-native extents — and the result
        must equal both the row plane and recomputation from scratch."""
        edges = [(i, i + 1) for i in range(1, 80)] + [(80, 1)]
        sessions = []
        for mode in ("on", "off"):
            session = _connect(mode, oracles.always_delta,
                               load_stdlib=False)
            session.define("E", edges)
            session.load(TC_RULES)
            session.relation("TCr")  # warm the fixpoint
            sessions.append(session)
        columnar, plain = sessions
        for session in sessions:
            session.delete("E", [(80, 1)])
        assert columnar.relation("TCr") == plain.relation("TCr")
        maint = columnar.maintenance_statistics()
        assert maint.get("overdeleted_tuples", 0) >= 1, maint
        assert maint.get("rederived_tuples", 0) >= 1, maint
        fresh = _connect("on", load_stdlib=False)
        fresh.define("E", [(i, i + 1) for i in range(1, 80)])
        fresh.load(TC_RULES)
        assert columnar.relation("TCr") == fresh.relation("TCr")


@kernels
class TestSnapshotNativeReads:
    """Snapshots over columnar-native extents: reads serve the captured
    vectors (agreeing with the row plane), stay frozen while the parent
    moves on, and any lazy dict a snapshot read forces is counted in the
    snapshot's own statistics, never the parent's."""

    def _warm_pair(self):
        sessions = []
        for mode in ("on", "off"):
            session = _connect(mode, load_stdlib=False)
            session.define("E", [(i, (i * 3 + 1) % 40) for i in range(120)])
            session.load(TC_RULES)
            session.relation("TCr")
            sessions.append(session)
        return sessions

    def test_snapshot_reads_agree_and_stay_frozen(self):
        columnar, plain = self._warm_pair()
        want = plain.relation("TCr")
        snap_columnar = columnar.snapshot()
        snap_plain = plain.snapshot()
        columnar.insert("E", [(500, 501)])
        plain.insert("E", [(500, 501)])
        assert snap_columnar.relation("TCr") == want
        assert snap_columnar.execute("TCr[1]") == snap_plain.execute("TCr[1]")
        assert columnar.relation("TCr") == plain.relation("TCr")
        assert (500, 501) in columnar.relation("TCr")
        assert (500, 501) not in snap_columnar.relation("TCr")

    def test_snapshot_lazy_dict_events_stay_private(self):
        columnar, _ = self._warm_pair()
        before = columnar.columnar_statistics()
        snapshot = columnar.snapshot()
        snapshot.execute("TCr")
        snapshot.execute("exists((x) | TCr(x, 1))")
        snapshot.columnar_statistics()
        assert columnar.columnar_statistics() == before

