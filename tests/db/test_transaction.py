"""Transactions: output, insert, delete, and constraint-driven aborts."""

import pytest

from repro import Relation
from repro.db import Database, Transaction
from repro.db.transaction import check_constraints, run_transaction
from repro.engine.program import RelProgram


@pytest.fixture
def db(fig1):
    return Database(fig1)


class TestOutput:
    def test_output_is_returned_not_persisted(self, db):
        result = Transaction(db).execute(
            "def output(x) : exists((y) | ProductPrice(x, y) and y > 30)"
        )
        assert sorted(result.output.tuples) == [("P4",)]
        assert "output" not in db

    def test_no_output_rule_gives_empty(self, db):
        result = Transaction(db).execute("def Irrelevant(x) : ProductPrice(x, _)")
        assert not result.output

    def test_output_uses_derived_relations(self, db):
        result = Transaction(db).execute(
            """
            def Expensive(p) : exists((v) | ProductPrice(p, v) and v > 15)
            def output(p) : Expensive(p)
            """
        )
        assert sorted(result.output.tuples) == [("P2",), ("P3",), ("P4",)]


class TestInsertDelete:
    def test_insert_creates_relation(self, db):
        result = Transaction(db).execute(
            'def insert(:Flagged, x) : ProductPrice(x, 40)'
        )
        assert result.committed
        assert db["Flagged"] == Relation([("P4",)])

    def test_delete_removes_tuples(self, db):
        result = Transaction(db).execute(
            'def delete(:ProductPrice, x, y) : ProductPrice(x, y) and y > 30'
        )
        assert result.committed
        assert sorted(db["ProductPrice"].tuples) == [
            ("P1", 10), ("P2", 20), ("P3", 30)
        ]

    def test_insert_and_delete_in_one_transaction(self, db):
        Transaction(db).execute(
            """
            def delete(:ProductPrice, x, y) : ProductPrice(x, y) and y = 40
            def insert(:ProductPrice, x, y) : x = "P5" and y = 50
            """
        )
        assert ("P5", 50) in db["ProductPrice"]
        assert ("P4", 40) not in db["ProductPrice"]

    def test_malformed_insert_tuple_rejected(self, db):
        from repro.engine.errors import EvaluationError

        with pytest.raises(EvaluationError, match=":RelationName"):
            Transaction(db).execute('def insert(x) : ProductPrice(x, _)')

    def test_result_reports_changes(self, db):
        result = Transaction(db).execute(
            'def insert(:Flagged, x) : ProductPrice(x, 40)'
        )
        assert "Flagged" in result.inserted
        assert sorted(result.inserted["Flagged"].tuples) == [("P4",)]


class TestConstraintAborts:
    def test_violating_insert_aborts(self, db):
        result = Transaction(db).execute(
            """
            ic integer_quantities() requires
                forall((x) | OrderProductQuantity(_,_,x) implies Int(x))
            def insert(:OrderProductQuantity, o, p, q) :
                o = "O9" and p = "P1" and q = "lots"
            """
        )
        assert not result.committed
        assert result.aborted_by == "integer_quantities"
        assert ("O9", "P1", "lots") not in db["OrderProductQuantity"]

    def test_conforming_insert_commits(self, db):
        result = Transaction(db).execute(
            """
            ic integer_quantities() requires
                forall((x) | OrderProductQuantity(_,_,x) implies Int(x))
            def insert(:OrderProductQuantity, o, p, q) :
                o = "O9" and p = "P1" and q = 7
            """
        )
        assert result.committed
        assert ("O9", "P1", 7) in db["OrderProductQuantity"]

    def test_foreign_key_constraint(self, db):
        result = Transaction(db).execute(
            """
            ic valid_products(x) requires
                OrderProductQuantity(_,x,_) implies ProductPrice(x,_)
            def insert(:OrderProductQuantity, o, p, q) :
                o = "O9" and p = "P99" and q = 1
            """
        )
        assert not result.committed
        assert sorted(result.violations["valid_products"].tuples) == [("P99",)]

    def test_constraint_sees_post_state_of_deletes(self, db):
        """Deleting the referenced product must abort via the FK."""
        result = Transaction(db).execute(
            """
            ic valid_products(x) requires
                OrderProductQuantity(_,x,_) implies ProductPrice(x,_)
            def delete(:ProductPrice, x, y) : ProductPrice(x, y) and x = "P1"
            """
        )
        assert not result.committed
        assert ("P1", 10) in db["ProductPrice"]


class TestCheckConstraints:
    def test_parameterized_violations_collected(self):
        db = Database({
            "OrderProductQuantity": Relation(
                [("O1", "P1", 2), ("O9", "P9", "three")]
            ),
            "ProductPrice": Relation([("P1", 10)]),
        })
        program = RelProgram(
            """
            ic integer_quantities(x) requires
                OrderProductQuantity(_,_,x) implies Int(x)
            ic valid_products(x) requires
                OrderProductQuantity(_,x,_) implies ProductPrice(x,_)
            """,
            database=db.as_mapping(),
        )
        violations = check_constraints(program, db)
        assert sorted(violations["integer_quantities"].tuples) == [("three",)]
        assert sorted(violations["valid_products"].tuples) == [("P9",)]

    def test_nullary_constraint_boolean(self):
        db = Database({"Q": Relation([(1,)])})
        program = RelProgram(
            "ic has_q() requires exists((x) | Q(x))",
            database=db.as_mapping(),
        )
        assert not check_constraints(program, db)["has_q"]  # satisfied

        empty = Database({"Q": Relation()})
        program2 = RelProgram(
            "ic has_q() requires exists((x) | Q(x))",
            database=empty.as_mapping(),
        )
        assert check_constraints(program2, empty)["has_q"]  # violated


class TestPaperClosedOrders:
    def test_section_34_walkthrough(self, db):
        """The full insert/delete example of Section 3.4."""
        result = run_transaction(db, """
            def Ord(x) : OrderProductQuantity(x,_,_)
            def OrderPaymentAmount(x,y,z) :
                PaymentOrder(y,x) and PaymentAmount(y,z)
            def OrderPaid[x in Ord] : sum[OrderPaymentAmount[x]]
            def OrderLineTotal(o, p, t) : exists((q, pr) |
                OrderProductQuantity(o,p,q) and ProductPrice(p,pr)
                and t = q * pr)
            def OrderTotal[o in Ord] : sum[OrderLineTotal[o]]
            def delete (:OrderProductQuantity,x,y,z) :
                OrderProductQuantity(x,y,z) and
                exists( (u) | OrderPaid(x,u) and OrderTotal(x,u) )
            def insert (:ClosedOrders,x) :
                exists( (u) | OrderPaid(x,u) and OrderTotal(x,u))
        """)
        assert result.committed
        # O2 is the only fully paid order: total 10, paid 10.
        assert db["ClosedOrders"] == Relation([("O2",)])
        assert ("O2", "P1", 1) not in db["OrderProductQuantity"]
        assert ("O1", "P1", 2) in db["OrderProductQuantity"]
