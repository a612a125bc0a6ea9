"""Bulk ingest: one committed batch regardless of row count."""

import pytest

from repro import Relation, connect
from repro.api import coerce_rows


class TestCoerceRows:
    def test_scalars_become_one_tuples(self):
        assert coerce_rows([1, "two", (3, 4), [5, 6]]) \
            == [(1,), ("two",), (3, 4), (5, 6)]


class TestSessionBulkLoad:
    def test_bulk_load_equals_insert_loop(self, tmp_path):
        rows = [(i, i % 7) for i in range(300)]
        bulk = connect(path=tmp_path / "bulk", load_stdlib=False)
        bulk.load("def Has(x) : exists((y) | E(x, y))")
        bulk.bulk_load("E", rows)
        slow = connect(load_stdlib=False)
        slow.load("def Has(x) : exists((y) | E(x, y))")
        for row in rows:
            slow.insert("E", [row])
        assert bulk.relation("E") == slow.relation("E")
        assert bulk.relation("Has") == slow.relation("Has")
        bulk.close()

    def test_one_wal_record_per_bulk_load(self, tmp_path):
        session = connect(path=tmp_path / "db", load_stdlib=False)
        before = session.storage_statistics()["wal_appends"]
        session.bulk_load("E", [(i,) for i in range(500)])
        stats = session.storage_statistics()
        assert stats["wal_appends"] == before + 1
        assert stats["bulk_rows"] == 500
        session.close()

    def test_bulk_load_returns_new_row_count(self, tmp_path):
        session = connect(load_stdlib=False)
        assert session.bulk_load("E", [(1,), (2,)]) == 2
        assert session.bulk_load("E", [(2,), (3,)]) == 1
        assert session.bulk_load("E", [(1,)]) == 0

    def test_bulk_load_survives_reopen(self, tmp_path):
        rows = [(i, str(i)) for i in range(250)]
        session = connect(path=tmp_path / "db", load_stdlib=False)
        session.bulk_load("Big", rows)
        session.close()
        reopened = connect(path=tmp_path / "db", load_stdlib=False)
        assert reopened.relation("Big") == Relation(rows)
        reopened.close()

    def test_bulk_load_respects_gnf_without_logging(self, tmp_path):
        session = connect(path=tmp_path / "db", load_stdlib=False,
                          enforce_gnf=True)
        before = session.storage_statistics()["wal_appends"]
        with pytest.raises(Exception):
            # Mixed arity violates the GNF key condition.
            session.bulk_load("R", [(1,), (1, 2)])
        assert session.storage_statistics()["wal_appends"] == before
        assert "R" not in session.database
        session.close()
        reopened = connect(path=tmp_path / "db", load_stdlib=False,
                           enforce_gnf=True)
        assert "R" not in reopened.database
        reopened.close()
