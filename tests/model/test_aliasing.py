"""Aliasing pins: Relation and Table expose no mutable state to callers.

Concurrent sessions share Relation objects across snapshots, threads, and
caches, so the audit behind this file checks every public accessor either
returns an immutable view (frozenset, tuple, ValuesView) or a fresh
container. Each test mutates whatever a caller can get its hands on and
re-queries, pinning that engine state is unaffected.
"""

import pytest

from repro import RelProgram, Relation, connect
from repro.engine.table import Table


class TestRelationAliasing:
    def test_constructor_copies_caller_iterables(self):
        rows = [(1, 2), (2, 3)]
        rel = Relation(rows)
        rows.append((9, 9))
        rows[0] = (7, 7)
        assert rel == Relation([(1, 2), (2, 3)])

    def test_rows_view_has_no_mutation_api(self):
        rel = Relation([(1, 2)])
        view = rel.rows()
        for method in ("append", "add", "remove", "clear", "pop"):
            assert not hasattr(view, method)

    def test_tuples_view_is_a_frozenset(self):
        rel = Relation([(1, 2)])
        assert isinstance(rel.tuples, frozenset)

    def test_mutating_listed_rows_does_not_leak_back(self):
        rel = Relation([(1, 2), (2, 3)])
        listing = rel.sorted_tuples()
        listing.clear()
        listed = list(rel.rows())
        listed.append((9, 9))
        assert rel == Relation([(1, 2), (2, 3)])
        assert len(rel.sorted_tuples()) == 2

    def test_set_algebra_results_share_no_mutable_state(self):
        a = Relation([(1,), (2,)])
        b = Relation([(2,), (3,)])
        union = a.union(b)
        assert sorted(a.sorted_tuples()) == [(1,), (2,)]
        assert sorted(b.sorted_tuples()) == [(2,), (3,)]
        assert sorted(union.sorted_tuples()) == [(1,), (2,), (3,)]

    def test_raw_collections_rejected_as_elements(self):
        with pytest.raises(Exception):
            Relation([([1, 2],)])


class TestTableAliasing:
    def test_bindings_returns_a_fresh_dict(self):
        table = Table(("x", "y"), [(1, 2, ())])
        bindings = table.bindings(table.rows[0])
        bindings["x"] = 99
        assert table.bindings(table.rows[0])["x"] == 1

    def test_clear_payload_does_not_alias_rows(self):
        table = Table(("x",), [(1, (5,))])
        cleared = table.clear_payload()
        cleared.rows.append((2, ()))
        assert len(table.rows) == 1
        assert table.rows[0] == (1, (5,))

    def test_dedupe_on_distinct_table_is_identity(self):
        table = Table(("x",), [(1, ())], distinct=True)
        assert table.dedupe() is table


class TestSessionAccessorAliasing:
    RULES = """
        def Path(x, y) : E(x, y)
        def Path(x, y) : exists((z) | E(x, z) and Path(z, y))
    """

    def _session(self):
        session = connect(load_stdlib=False)
        session.define("E", [(1, 2), (2, 3)])
        session.load(self.RULES)
        session.relation("Path")
        return session

    def test_statistics_dicts_are_copies(self):
        session = self._session()
        for getter in (session.statistics, session.evaluation_counts,
                       session.plan_statistics, session.join_statistics,
                       session.maintenance_statistics):
            copy = getter()
            copy["__injected__"] = 42
            copy.clear()
            assert "__injected__" not in getter()

    def test_base_relations_mapping_is_a_copy(self):
        session = self._session()
        mapping = session.program.base_relations
        mapping["E"] = Relation([(9, 9)])
        mapping["New"] = Relation([(1,)])
        assert session.relation("E") == Relation([(1, 2), (2, 3)])
        assert "New" not in session.names()

    def test_database_as_mapping_is_a_copy(self):
        session = self._session()
        mapping = dict(session.database)
        mapping.pop("E")
        assert "E" in session.database

    def test_prepared_query_does_not_alias_caller_lists(self):
        session = connect(load_stdlib=False)
        session.load("def Out(x, y) : In(x, y)")
        query = session.query("Out")
        payload = [(1, 2)]
        first = query.run(In=payload)
        payload.append((3, 4))
        assert query.run() == first == Relation([(1, 2)])

    def test_query_results_are_independent_relations(self):
        """Mutating anything reachable from one result must not change a
        re-run (results may be shared extents — immutability is the pin)."""
        session = self._session()
        result = session.execute("Path")
        listing = result.sorted_tuples()
        listing.append((99, 99))
        again = session.execute("Path")
        assert again == Relation(
            [(1, 2), (2, 3), (1, 3)])

    def test_snapshot_generations_is_a_copy(self):
        session = self._session()
        snapshot = session.snapshot()
        gens = snapshot.generations
        gens.clear()
        assert snapshot.generations != {}


class TestConnectIngestAliasing:
    """connect(database=<mapping>) copies on ingest: the session must not
    hold a live reference into the caller's containers."""

    def test_mutating_caller_mapping_values_after_connect(self):
        data = {"E": [(1, 2), (2, 3)]}
        session = connect(database=data, load_stdlib=False)
        data["E"].append((9, 9))
        data["E"][0] = (7, 7)
        assert session.relation("E") == Relation([(1, 2), (2, 3)])
        # And re-query after an unrelated write (forces republish paths).
        session.define("F", [(1,)])
        assert session.relation("E") == Relation([(1, 2), (2, 3)])

    def test_mutating_caller_mapping_itself_after_connect(self):
        data = {"E": [(1, 2)]}
        session = connect(database=data, load_stdlib=False)
        data["F"] = [(5, 6)]
        del data["E"]
        assert "F" not in session.database
        assert session.relation("E") == Relation([(1, 2)])

    def test_ingested_values_are_real_relations(self):
        session = connect(database={"E": [(1, 2)]}, load_stdlib=False)
        assert isinstance(session.database["E"], Relation)
        # Set algebra (the first thing insert/delete does) works at once.
        session.insert("E", [(3, 4)])
        assert session.relation("E") == Relation([(1, 2), (3, 4)])

    def test_database_install_coerces_iterables(self):
        """The program's constructor is the one ingest point of base data:
        a caller's list becomes a Relation there, for a program and for a
        session alike."""
        rows = [(1, 2), (2, 3)]
        program = RelProgram("def Out(x) : E(x, _)",
                             database={"E": rows}, load_stdlib=False)
        session = connect(database={"E": rows}, load_stdlib=False)
        rows.append((3, 4))
        for base in (program.durable_state(), session.database):
            assert isinstance(base["E"], Relation)
            assert base["E"] == Relation([(1, 2), (2, 3)])
        assert program.relation("Out") == Relation([(1,), (2,)])
