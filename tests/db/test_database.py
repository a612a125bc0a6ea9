"""The base store: a session's base relations, read through
``Session.database`` and changed only by session writes."""

import pytest

from repro import Relation, connect
from repro.db import GNFViolation
from repro.model.relation import EMPTY


class TestAccess:
    def test_missing_relation_is_empty(self):
        database = connect(load_stdlib=False).database
        assert "Nope" not in database
        assert database.get("Nope", EMPTY) == EMPTY

    def test_install_and_get(self):
        session = connect(load_stdlib=False)
        session.define("P", [(1,)])
        assert session.database["P"] == Relation([(1,)])
        assert "P" in session.database
        assert sorted(session.database) == ["P"]
        assert session.database["P"] is session.program.base_relation("P")

    def test_constructor_mapping(self):
        session = connect({"A": Relation([(1,)]), "B": [(2,)]},
                          load_stdlib=False)
        assert len(session.database) == 2
        assert session.database["B"] == Relation([(2,)])

    def test_view_is_read_only(self):
        session = connect({"P": [(1,)]}, load_stdlib=False)
        with pytest.raises(TypeError):
            session.database["P"] = Relation([(2,)])
        with pytest.raises(AttributeError):
            session.database = {}
        assert session.relation("P") == Relation([(1,)])


class TestUpdates:
    def test_insert_creates_on_the_spot(self):
        """Section 3.4: no need to declare a new base relation."""
        session = connect(load_stdlib=False)
        session.insert("ClosedOrders", [("O2",)])
        assert session.database["ClosedOrders"] == Relation([("O2",)])

    def test_insert_unions(self):
        session = connect({"P": [(1,)]}, load_stdlib=False)
        session.insert("P", [(2,)])
        assert session.database["P"] == Relation([(1,), (2,)])

    def test_delete(self):
        session = connect({"P": [(1,), (2,)]}, load_stdlib=False)
        session.delete("P", [(1,)])
        assert session.database["P"] == Relation([(2,)])

    def test_delete_missing_is_noop(self):
        session = connect(load_stdlib=False)
        session.delete("P", [(1,)])
        assert "P" not in session.database
        assert session.version == 0


class TestCopy:
    def test_copy_is_shallow_snapshot(self):
        """A mapping read from ``session.database`` is a frozen capture:
        later writes rebind the base and show only in a fresh read."""
        session = connect({"P": [(1,)]}, load_stdlib=False)
        captured = session.database
        listing = dict(captured)
        session.insert("P", [(2,)])
        session.define("Q", [(3,)])
        assert dict(captured) == listing
        assert captured["P"] == Relation([(1,)])
        assert session.database["P"] == Relation([(1,), (2,)])
        assert "Q" in session.database and "Q" not in captured


class TestGNFEnforcement:
    def test_mixed_arity_rejected_when_enforced(self):
        with pytest.raises(GNFViolation, match="mixed arities"):
            connect({"Bad": [(1,), (1, 2)]}, load_stdlib=False,
                    enforce_gnf=True)
        session = connect({"Good": [(1, "a")]}, load_stdlib=False,
                          enforce_gnf=True)
        with pytest.raises(GNFViolation, match="mixed arities"):
            session.insert("Good", [(2,)])
        assert session.database["Good"] == Relation([(1, "a")])
        # Unenforced, mixed arity is stored as given.
        assert len(connect({"Bad": [(1,), (1, 2)]},
                           load_stdlib=False).database["Bad"]) == 2

    def test_uniform_relation_accepted(self):
        session = connect(load_stdlib=False, enforce_gnf=True)
        session.define("Good", Relation([(1, "a"), (2, "b")]))
        assert len(session.database["Good"]) == 2
