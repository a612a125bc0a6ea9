"""Statistics API error paths: fresh sessions, invalidation, snapshots.

The explain counters (``plan_statistics`` / ``maintenance_statistics`` /
``join_statistics`` / ``evaluation_counts``) must be safe to poll at any
lifecycle point: before anything has been evaluated (no evaluation state
exists — and polling must not create one), right after a full
invalidation (the state was discarded), and from a snapshot (a read-only
view gets its own zeroed counters and never creates or bumps counters in
the parent session).
"""

from repro import Relation, connect


def _all_stats(obj):
    return (obj.plan_statistics(), obj.join_statistics(),
            obj.maintenance_statistics(), obj.evaluation_counts())


class TestFreshSession:
    def test_all_statistics_empty_before_any_evaluation(self):
        session = connect()
        assert _all_stats(session) == ({}, {}, {}, {})

    def test_polling_statistics_does_not_create_state(self):
        """The counters are observability hooks: reading them must not
        allocate an evaluation state (or anything else)."""
        session = connect()
        _all_stats(session)
        assert session.program._state is None
        assert session.program._ctx is None

    def test_statistics_is_base_relations_plus_interner(self):
        session = connect()
        assert set(session.statistics()) == {"interner"}
        session.define("E", [(1, 2)])
        stats = session.statistics()
        assert set(stats) == {"E", "interner"}
        assert stats["E"]["rows"] == 1
        assert stats["E"]["approx_bytes"] > 0
        assert session.program._state is None

    def test_interner_statistics_report_the_shared_table(self):
        session = connect()
        base = session.statistics()["interner"]
        assert set(base) == {"strings", "approx_bytes"}
        assert base["strings"] >= 0 and base["approx_bytes"] >= 0
        from repro.model import columns
        if not columns.KERNELS_AVAILABLE:
            return
        # Interning distinct fresh strings grows the process-wide table —
        # and the growth is visible from *any* session or snapshot: the
        # table is shared, not per-session.
        fresh = [(f"stats-pin-{i}-xyzzy",) for i in range(10)]
        session.define("S", fresh)
        Relation(fresh).columns()  # force the typed plane to intern
        after = session.statistics()["interner"]
        assert after["strings"] >= base["strings"] + 10
        assert after["approx_bytes"] > base["approx_bytes"]
        other = connect()
        assert other.statistics()["interner"] == after
        assert session.snapshot().statistics()["interner"] == after


class TestAfterInvalidation:
    def _invalidated_session(self):
        """Evaluate, then force the full-reset path: first definition of a
        name that existing rules already reference discards the state."""
        session = connect()
        session.define("P", [(1,), (2,)])
        session.load("def Q(x) : P(x) and Ghost(x)\n"
                     "def R(x) : P(x)")
        session.execute("R")
        assert session.evaluation_counts()  # state exists and counted
        session.insert("Ghost", [(1,)])     # full invalidation
        return session

    def test_counters_reset_to_empty_after_full_invalidation(self):
        session = self._invalidated_session()
        assert session.program._state is None
        assert _all_stats(session) == ({}, {}, {}, {})

    def test_counters_repopulate_after_reevaluation(self):
        session = self._invalidated_session()
        assert session.execute("Q") == Relation([(1,)])
        assert session.evaluation_counts().get("Q", 0) >= 1


class TestFromSnapshot:
    RULES = """
        def Path(x, y) : E(x, y)
        def Path(x, y) : exists((z) | E(x, z) and Path(z, y))
    """

    def _session(self):
        session = connect(load_stdlib=False)
        session.define("E", [(1, 2), (2, 3)])
        session.load(self.RULES)
        return session

    def test_snapshot_statistics_start_at_zero(self):
        session = self._session()
        session.relation("Path")  # parent counters move
        snapshot = session.snapshot()
        assert snapshot.plan_statistics() == {}
        assert snapshot.join_statistics() == {}
        assert snapshot.maintenance_statistics() == {}
        assert snapshot.evaluation_counts() == {}

    def test_snapshot_reads_never_touch_parent_counters(self):
        session = self._session()
        session.relation("Path")
        before = _all_stats(session)
        snapshot = session.snapshot()
        snapshot.execute("Path[1]")
        snapshot.execute("Path")
        snapshot.relation("E")
        _all_stats(snapshot)
        assert _all_stats(session) == before

    def test_snapshot_counts_its_own_evaluations(self):
        session = self._session()
        snapshot = session.snapshot()  # cold: nothing materialized yet
        snapshot.execute("Path[1]")
        assert snapshot.evaluation_counts().get("Path", 0) >= 1

    def test_warm_snapshot_evaluates_nothing(self):
        """A snapshot published after the parent materialized captures the
        warm extents: its queries are pure lookups, zero rule
        evaluations."""
        session = self._session()
        session.relation("Path")       # warm the parent
        session.insert("E", [(3, 4)])  # publish a post-warm snapshot
        warm = session.snapshot()
        assert warm.execute("Path[1]") == Relation([(2,), (3,), (4,)])
        assert warm.evaluation_counts() == {}

    def test_snapshot_statistics_reflect_capture_not_live_state(self):
        session = self._session()
        snapshot = session.snapshot()
        session.insert("E", [(3, 4)])
        assert snapshot.statistics()["E"]["rows"] == 2
        assert session.statistics()["E"]["rows"] == 3


class TestStorageStatistics:
    """storage_statistics(): the durability counter surface."""

    def test_empty_without_storage_and_creates_no_state(self):
        session = connect()
        assert session.storage_statistics() == {}
        assert session.program._state is None

    def test_counter_vocabulary_is_stable(self, tmp_path):
        session = connect(path=tmp_path / "db", load_stdlib=False)
        assert sorted(session.storage_statistics()) == [
            "bulk_rows", "checkpoint_errors", "checkpoints", "recoveries",
            "replayed_records", "retries", "wal_appends", "wal_bytes"]
        session.close()

    def test_counters_track_the_write_kinds(self, tmp_path):
        session = connect(path=tmp_path / "db", load_stdlib=False)
        session.load("def P(x) : E(x, x)")
        session.insert("E", [(1, 1)])
        session.bulk_load("N", [(1,), (2,)])
        stats = session.storage_statistics()
        assert stats["wal_appends"] == 3  # load + insert + bulk
        assert stats["bulk_rows"] == 2
        assert stats["wal_bytes"] > 0
        session.close()

    def test_returned_dict_is_a_copy(self, tmp_path):
        session = connect(path=tmp_path / "db", load_stdlib=False)
        copy = session.storage_statistics()
        copy["wal_appends"] = 999
        copy.clear()
        assert session.storage_statistics()["wal_appends"] == 0
        session.close()

    def test_reads_never_bump_storage_counters(self, tmp_path):
        session = connect(path=tmp_path / "db", load_stdlib=False)
        session.insert("E", [(1, 2)])
        before = session.storage_statistics()
        session.relation("E")
        session.execute("E")
        session.snapshot().execute("E")
        assert session.storage_statistics() == before
        session.close()
