"""Incremental maintenance: delta propagation, DRed, fallbacks, no-ops.

The maintenance agreement suite: randomized scripts of interleaved
insert/delete ops over programs with recursion, negation, and aggregation,
asserting that incrementally maintained extents equal a from-scratch
rebuild after every op — plus eval-counter assertions that untouched
strata are never re-evaluated and that empty deltas are true no-ops.

The incremental side runs under ``oracles.always_delta`` (deltas however
large), the from-scratch side under ``oracles.recompute``; "auto" is the
shipped behaviour, which recomputes when an update replaces most of a
relation.
"""

import random

import pytest

from support import oracles

from repro import Relation, connect

MODES = {"auto": (), "delta": (oracles.always_delta,),
         "recompute": (oracles.recompute,)}

RULES = """
    def Path(x, y) : E(x, y)
    def Path(x, y) : exists((z) | E(x, z) and Path(z, y))
    def Reach(x) : S(x)
    def Reach(y) : exists((x) | Reach(x) and E(x, y))
    def Lonely(x) : V(x) and not Path(x, x)
    def LonelyTC(x) : V(x) and not TC[E](x, x)
    def NEdges(n) : n = count[E]
    def Big(x) : V(x) and x > 5
    def Both(x, y) : E(x, y) and Path(y, x)
    def A(x, y) : E(x, y)
    def B(x, y) : exists((z) | A(x, z) and E(z, y))
    def A(x, y) : exists((z) | B(x, z) and E(z, y))
"""

DERIVED = ["Path", "Reach", "Lonely", "LonelyTC", "NEdges", "Big", "Both",
           "A", "B"]

BASE = {
    "E": [(1, 2), (2, 3)],
    "S": [(1,)],
    "V": [(i,) for i in range(1, 8)],
}


def make_session(maintenance="delta", base=BASE, rules=RULES):
    session = oracles.under(connect(), *MODES[maintenance])
    for name, tuples in base.items():
        session.define(name, tuples)
    session.load(rules)
    return session


def extents(session):
    return {name: session.relation(name) for name in DERIVED}


class TestRandomizedAgreement:
    """Incremental ≡ from-scratch across random insert/delete scripts."""

    @pytest.mark.parametrize("seed", range(6))
    def test_script_agreement(self, seed):
        rng = random.Random(seed)
        delta = make_session("delta")
        recompute = make_session("recompute")
        extents(delta), extents(recompute)  # materialize both
        base = {name: Relation(tuples) for name, tuples in BASE.items()}
        for _ in range(12):
            name = rng.choice(["E", "S", "V"])
            arity = 2 if name == "E" else 1
            tuples = [tuple(rng.randint(1, 9) for _ in range(arity))
                      for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                delta.insert(name, tuples)
                recompute.insert(name, tuples)
                base[name] = base[name].union(Relation(tuples))
            else:
                delta.delete(name, tuples)
                recompute.delete(name, tuples)
                base[name] = base[name].difference(Relation(tuples))
            got = extents(delta)
            want = extents(recompute)
            for d in DERIVED:
                assert got[d] == want[d], (seed, d)
        # Anchor against a genuinely fresh evaluation of the final state.
        fresh = make_session("recompute",
                             {n: r for n, r in base.items()})
        for d in DERIVED:
            assert extents(fresh)[d] == got[d], (seed, d)
        stats = delta.maintenance_statistics()
        assert stats.get("maintained_strata", 0) > 0

    def test_auto_mode_agreement(self):
        rng = random.Random(99)
        auto = make_session("auto")
        recompute = make_session("recompute")
        extents(auto), extents(recompute)
        for _ in range(15):
            tuples = [(rng.randint(1, 9), rng.randint(1, 9))]
            if rng.random() < 0.5:
                auto.insert("E", tuples)
                recompute.insert("E", tuples)
            else:
                auto.delete("E", tuples)
                recompute.delete("E", tuples)
            assert extents(auto) == extents(recompute)


class TestDeltaPropagation:
    def test_insert_extends_closure(self):
        session = make_session("delta")
        session.relation("Path")
        session.insert("E", [(3, 4)])
        assert (1, 4) in session.relation("Path")
        assert session.maintenance_statistics()["maintained_strata"] >= 1

    def test_delete_retracts_unsupported_paths(self):
        session = make_session("delta")
        session.relation("Path")
        session.delete("E", [(2, 3)])
        assert (1, 3) not in session.relation("Path")
        assert (1, 2) in session.relation("Path")
        stats = session.maintenance_statistics()
        assert stats.get("overdeleted_tuples", 0) >= 1

    def test_delete_rederives_surviving_tuples(self):
        """DRed's second phase: a tuple with an alternative derivation
        survives the over-deletion."""
        session = make_session(
            "delta", base={"E": [(1, 2), (2, 3), (1, 3)]},
            rules="""
                def Path(x, y) : E(x, y)
                def Path(x, y) : exists((z) | E(x, z) and Path(z, y))
            """)
        session.relation("Path")
        session.delete("E", [(2, 3)])
        # (1, 3) was over-deleted (derivable through the deleted edge) but
        # must be re-derived from the direct edge.
        assert (1, 3) in session.relation("Path")
        assert session.maintenance_statistics().get("rederived_tuples", 0) >= 1

    def test_negation_stratum_falls_back_to_recompute(self):
        session = make_session("delta")
        extents(session)
        session.insert("E", [(3, 1)])  # creates cycles: Path(x, x) appears
        assert sorted(session.relation("Lonely").sorted_tuples()) == [
            (4,), (5,), (6,), (7,)]
        stats = session.maintenance_statistics()
        assert stats.get("recomputed_strata", 0) >= 1
        assert stats.get("maintained_strata", 0) >= 1

    def test_untouched_strata_are_not_reevaluated(self):
        session = make_session("delta")
        extents(session)
        counts = session.evaluation_counts()
        session.insert("V", [(9,)])
        # V feeds Lonely/LonelyTC/Big but not Path/Reach/NEdges.
        after = session.evaluation_counts()
        for name in ("Path", "Reach", "NEdges"):
            assert after[name] == counts[name], name
        assert after["Big"] > counts["Big"]

    def test_counters_move_only_for_dependent_strata_on_delete(self):
        session = make_session("delta")
        extents(session)
        counts = session.evaluation_counts()
        session.delete("S", [(1,)])
        after = session.evaluation_counts()
        assert after["Path"] == counts["Path"]
        assert after["Big"] == counts["Big"]
        assert session.relation("Reach") == Relation()

    def test_recursive_delta_uses_join_path(self):
        """The delta joins ride the same multiway-join machinery as regular
        conjunctions (the __delta__ extents are join atoms)."""
        session = make_session("delta")
        session.relation("Path")
        before = sum(session.join_statistics().values())
        session.insert("E", [(3, 4), (4, 5)])
        session.relation("Path")
        assert sum(session.join_statistics().values()) > before


class TestNoOpUpdates:
    def test_empty_insert_is_a_true_noop(self):
        session = make_session("delta")
        extents(session)
        counts = session.evaluation_counts()
        session.insert("E", [])
        assert session.evaluation_counts() == counts

    def test_duplicate_insert_is_a_true_noop(self):
        session = make_session("delta")
        extents(session)
        counts = session.evaluation_counts()
        session.insert("E", [(1, 2)])  # already present
        assert session.evaluation_counts() == counts

    def test_delete_missing_tuples_is_a_true_noop(self):
        session = make_session("delta")
        extents(session)
        counts = session.evaluation_counts()
        session.delete("E", [(7, 7)])
        assert session.evaluation_counts() == counts

    def test_delete_on_unknown_name_is_a_true_noop(self):
        session = make_session("delta")
        extents(session)
        counts = session.evaluation_counts()
        session.delete("NoSuchRelation", [(1,)])
        assert session.evaluation_counts() == counts
        assert "NoSuchRelation" not in session.names()


class TestFirstTouchInserts:
    def test_new_unreferenced_name_keeps_all_state(self):
        """Inserting into a brand-new name that nothing references must not
        reset the evaluation state (the old path was a full invalidate)."""
        session = make_session("delta")
        extents(session)
        counts = session.evaluation_counts()
        memo_size = len(session.program._state.memo)
        session.insert("Fresh", [(1, 2)])
        assert session.evaluation_counts() == counts
        assert len(session.program._state.memo) == memo_size
        assert session.relation("Fresh") == Relation([(1, 2)])

    def test_new_name_referenced_by_rules_still_resets(self):
        """A first definition of a name existing rules refer to can change
        safety/orderability classification — it must take the full path."""
        session = oracles.under(connect(), oracles.always_delta)
        session.define("P", [(1,)])
        session.load("def Q(x) : P(x) and Ghost(x)")
        with pytest.raises(Exception):
            session.relation("Q")
        session.insert("Ghost", [(1,)])
        assert session.relation("Q") == Relation([(1,)])


class TestCachesSurviveUpdates:
    def test_unaffected_atom_indexes_survive(self):
        """A point update must not nuke index caches pinned to relations in
        unaffected strata (the prepared-query reuse satellite)."""
        session = make_session("delta")
        session.load("def Tagged(y) : W(5, y)")
        session.define("W", [(5, 1), (5, 2), (6, 3)])
        session.relation("Tagged")  # builds the prefix index on W
        state = session.program._state
        w_rel = session.program.base_relation("W")
        pinned = [k for k, (rel, _) in state._indexes.items()
                  if rel is w_rel]
        assert pinned, "test setup: expected a prefix index pinned to W"
        session.insert("E", [(8, 9)])  # unrelated update
        for key in pinned:
            assert key in state._indexes

    def test_memos_survive_unrelated_updates(self):
        session = make_session("delta")
        first = session.execute("TC[E]")
        session.insert("V", [(11,)])
        memo = session.program._state.memo
        size = len(memo)
        assert session.execute("TC[E]") == first
        assert len(session.program._state.memo) == size


class TestTransactionsRouteThroughMaintenance:
    def test_committed_insert_maintains_incrementally(self):
        session = make_session("delta")
        extents(session)
        counts = session.evaluation_counts()
        result = session.transact("def insert(:E, x, y) : x = 3 and y = 4")
        assert result.committed
        assert ("E" in result.changed)
        assert (1, 4) in session.relation("Path")
        after = session.evaluation_counts()
        assert after["Big"] == counts["Big"]  # untouched stratum
        stats = session.maintenance_statistics()
        assert stats.get("maintained_strata", 0) >= 1

    def test_committed_delete_maintains_incrementally(self):
        session = make_session("delta")
        extents(session)
        result = session.transact(
            "def delete(:E, x, y) : E(x, y) and x = 2")
        assert result.committed
        assert (1, 3) not in session.relation("Path")
        assert session.maintenance_statistics().get(
            "overdeleted_tuples", 0) >= 1

    def test_transaction_creating_name_still_works(self):
        session = make_session("delta")
        extents(session)
        result = session.transact("def insert(:G, x) : {(1); (2)}(x)")
        assert result.committed
        assert session.relation("G") == Relation([(1,), (2,)])


class TestModesAndOptions:
    def test_recompute_mode_never_reports_delta_strata(self):
        session = make_session("recompute")
        extents(session)
        session.insert("E", [(3, 4)])
        assert (1, 4) in session.relation("Path")
        assert "maintained_strata" not in session.maintenance_statistics()

    def test_auto_falls_back_on_bulk_replacement(self):
        session = make_session("auto")
        extents(session)
        session.define("E", [(i, i + 1) for i in range(50, 80)])
        assert (50, 80) in session.relation("Path")
        stats = session.maintenance_statistics()
        assert stats.get("full_invalidations", 0) >= 1

    def test_delta_mode_handles_bulk_replacement(self):
        session = make_session("delta")
        extents(session)
        session.define("E", [(i, i + 1) for i in range(50, 60)])
        assert (50, 60) in session.relation("Path")
        assert (1, 2) not in session.relation("Path")
