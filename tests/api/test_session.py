"""The Session facade: prepared queries, incremental invalidation, transactions."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro import PreparedQuery, Relation, Session, connect


@pytest.fixture
def session():
    s = connect()
    s.define("E", [(1, 2), (2, 3), (3, 4)])
    s.define("F", [(10,)])
    s.load("""
        def Path(x, y) : E(x, y)
        def Path(x, y) : exists((z) | E(x, z) and Path(z, y))
        def Big(x) : F(x) and x > 5
    """)
    return s


class TestConnect:
    def test_connect_returns_session(self):
        assert isinstance(connect(), Session)

    def test_connect_with_mapping(self):
        s = connect({"P": Relation([(1,), (2,)])})
        assert s.execute("count[P]") == Relation([(2,)])

    def test_connect_with_database(self):
        """The mapping seeds the one base store: a change to the caller's
        mapping does not reach it, and the session's own write of the
        same row lands in the base the program evaluates."""
        db = {"P": Relation([(1,)])}
        s = connect(db)
        db["P"] = db["P"].union(Relation([(5,)]))
        s.insert("P", [(5,)])
        assert s.database["P"] == Relation([(1,), (5,)])
        assert s.relation("P") == s.execute("P") == Relation([(1,), (5,)])
        assert s.version == 1

    def test_connect_refuses_a_mapping_with_a_path(self, tmp_path):
        """A durable session starts from its directory: rows passed beside
        ``path`` would be served but never logged, so the call is refused
        before the storage is opened."""
        path = tmp_path / "db"
        with connect(path=path, load_stdlib=False) as s:
            s.define("E", [(1, 2)])

        def files():
            return {p.name: p.read_bytes() for p in sorted(path.iterdir())}

        before = files()
        with pytest.raises(ValueError, match="bulk_load"):
            connect({"E": [(9, 9)], "F": [(5,)]}, path=path,
                    load_stdlib=False)
        assert files() == before
        with connect(path=path, load_stdlib=False) as s:
            assert dict(s.database) == {"E": Relation([(1, 2)])}

    def test_connect_with_schema(self):
        s = connect({"P": Relation([(1,), (5,)])},
                    schema="def Small(x) : P(x) and x < 3")
        assert s.relation("Small") == Relation([(1,)])

    def test_define_accepts_plain_tuples(self):
        s = connect()
        s.define("P", [(1,), (2,)])
        assert s.relation("P") == Relation([(1,), (2,)])

    def test_fluent_chaining(self):
        s = connect().define("P", [(1,)]).load("def Q(x) : P(x)")
        assert s.relation("Q") == Relation([(1,)])


class TestPreparedQueries:
    def test_query_returns_prepared(self, session):
        pq = session.query("Path[1]")
        assert isinstance(pq, PreparedQuery)
        assert sorted(pq.run().tuples) == [(2,), (3,), (4,)]

    def test_prepared_is_callable(self, session):
        pq = session.query("count[E]")
        assert pq() == Relation([(3,)])

    def test_rerun_with_swapped_base_relation(self, session):
        """Parse once, execute many — across different bound inputs."""
        pq = session.query("Path[1]")
        assert sorted(pq.run().tuples) == [(2,), (3,), (4,)]
        assert sorted(pq.run(E=[(1, 7), (7, 9)]).tuples) == [(7,), (9,)]
        assert pq.run(E=[(5, 6)]) == Relation()
        # The swap is a session-level update: base state reflects it.
        assert session.relation("E") == Relation([(5, 6)])

    def test_rerun_sees_incremental_inserts(self, session):
        pq = session.query("Path[1]")
        before = pq.run()
        session.insert("E", [(4, 5)])
        after = pq.run()
        assert after.tuples - before.tuples == frozenset({(5,)})


class TestIncrementalInvalidation:
    def test_unrelated_define_does_not_recompute_stratum(self, session):
        """The tentpole property: an update to F must leave Path's stratum
        untouched — its evaluation counter stays frozen."""
        session.execute("Path")
        session.execute("Big")
        path_evals = session.evaluation_counts()["Path"]
        session.define("F", [(20,)])
        assert session.relation("Big") == Relation([(20,)])
        assert session.relation("Path")  # still served
        assert session.evaluation_counts()["Path"] == path_evals

    def test_related_define_does_recompute(self, session):
        session.execute("Path")
        path_evals = session.evaluation_counts()["Path"]
        session.define("E", [(1, 9)])
        assert session.relation("Path") == Relation([(1, 9)])
        assert session.evaluation_counts()["Path"] > path_evals

    def test_unrelated_rule_load_keeps_strata(self, session):
        session.execute("Path")
        path_evals = session.evaluation_counts()["Path"]
        session.load("def Tiny(x) : F(x) and x < 100")
        assert session.relation("Tiny") == Relation([(10,)])
        assert session.evaluation_counts()["Path"] == path_evals

    def test_insert_delete_roundtrip(self, session):
        session.insert("E", [(4, 5)])
        assert (1, 5) in session.execute("Path")
        session.delete("E", [(4, 5)])
        assert (1, 5) not in session.execute("Path")

    def test_noop_redefine_is_free(self, session):
        session.execute("Path")
        counts = session.evaluation_counts()
        session.define("E", [(1, 2), (2, 3), (3, 4)])  # identical content
        session.execute("Path")
        assert session.evaluation_counts() == counts

    def test_instance_memos_survive_unrelated_updates(self, session):
        """Second-order instances (demand-driven TC[E]) are memoized by the
        generations of what they reference: touching F must not evict them."""
        first = session.execute("TC[E]")
        memo_size = len(session.program._state.memo)
        assert memo_size > 0
        session.define("F", [(42,)])
        assert len(session.program._state.memo) == memo_size
        assert session.execute("TC[E]") == first


class TestTransactions:
    def test_commit_updates_session(self, session):
        result = session.transact('def insert(:G, x) : {(1); (2)}(x)')
        assert result.committed
        assert session.relation("G") == Relation([(1,), (2,)])

    def test_session_rules_visible_in_transaction(self, session):
        result = session.transact("def output(x, y) : Path(x, y)")
        assert result.committed
        assert (1, 4) in result.output

    def test_abort_leaves_session_extents_untouched(self, session):
        """An aborted transaction must not perturb the session: neither its
        base data, nor its computed extents, nor its counters."""
        before = session.execute("Path")
        counts = session.evaluation_counts()
        result = session.transact("""
            ic never_holds() requires false
            def insert(:E, x, y) : x = 100 and y = 200
        """)
        assert not result.committed
        assert result.aborted_by == "never_holds"
        assert session.relation("E") == Relation([(1, 2), (2, 3), (3, 4)])
        assert session.execute("Path") == before
        assert session.evaluation_counts() == counts

    def test_session_constraints_enforced_in_transactions(self):
        s = connect({"P": Relation([(1,)])})
        s.load("ic small_only(x) requires P(x) implies x < 10")
        result = s.transact("def insert(:P, x) : x = 50")
        assert not result.committed
        assert result.aborted_by == "small_only"
        assert s.relation("P") == Relation([(1,)])

    def test_transaction_delete_syncs_session(self, session):
        result = session.transact(
            "def delete(:E, x, y) : E(x, y) and x = 1")
        assert result.committed
        assert session.relation("E") == Relation([(2, 3), (3, 4)])
        assert (1, 2) not in session.execute("Path")

    def test_constraints_checked_without_stdlib_when_none_loaded(self):
        """A user ``vector`` must not meet the standard library's rules of
        the same name while a load_stdlib=False session checks its ICs."""
        s = connect({"V": [(2, 1, 5)]}, load_stdlib=False)
        s.load("def vector(d, i, v) : V(d, i, v)")
        s.load("ic small(d, i, v) requires vector(d, i, v) implies v < 10")
        result = s.transact(
            "def insert(:V, d, i, v) : d = 3 and i = 1 and v = 7")
        assert result.committed
        assert s.relation("V") == Relation([(2, 1, 5), (3, 1, 7)])

    def test_constraint_over_a_never_installed_relation(self):
        """Relations need no declaration (Section 3.4): a constraint over
        a relation nothing has installed sees it empty, and checking it
        installs nothing in the session."""
        s = connect(load_stdlib=False,
                    schema="ic positive(x, q) requires Qty(x, q) implies q > 0")
        result = s.transact("def insert(:Other, x) : x = 1")
        assert result.committed
        assert s.relation("Other") == Relation([(1,)])
        assert "Qty" not in s.database
        assert "Qty" not in s.program.base_relations
        result = s.transact("def insert(:Qty, x, q) : x = 1 and q = -1")
        assert not result.committed and result.aborted_by == "positive"


class TestIntrospection:
    def test_names_mixes_base_and_derived(self, session):
        names = session.names()
        assert "E" in names and "Path" in names and "sum" in names

    def test_statistics(self, session):
        stats = session.statistics()
        assert stats["E"]["rows"] == 3 and stats["F"]["rows"] == 1
        assert stats["E"]["approx_bytes"] > 0
        assert set(stats["E"]) == {"rows", "approx_bytes", "columnar_columns"}

    def test_output_relation(self, session):
        session.load("def output(x) : F(x)")
        assert session.output() == Relation([(10,)])


class TestEngineKnobs:
    def test_unknown_keyword_is_rejected(self):
        with pytest.raises(TypeError):
            connect(load_stdlib=False, workers=2)

    def test_connect_imports_no_process_pool(self):
        """The core has no multiprocessing dependency: a first connect()
        must not pull it (or any IPC codec) into the process."""
        src = pathlib.Path(__file__).parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        probe = (
            "import sys, repro; repro.connect(load_stdlib=False); "
            "print(sorted(m for m in sys.modules if "
            "m.split('.')[0] == 'multiprocessing' "
            "or (m.startswith('repro.engine.') and "
            "m.rpartition('.')[2] in ('parallel', 'exchange'))))"
        )
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip() == "[]"
