"""Transactions: output, insert, delete, and constraint-driven aborts."""

import pytest

from repro import Relation, connect
from repro.db.transaction import check_constraints
from repro.engine.program import RelProgram


@pytest.fixture
def session(fig1):
    return connect(fig1)


class TestOutput:
    def test_output_is_returned_not_persisted(self, session):
        result = session.transact(
            "def output(x) : exists((y) | ProductPrice(x, y) and y > 30)"
        )
        assert sorted(result.output.tuples) == [("P4",)]
        assert "output" not in session.database

    def test_no_output_rule_gives_empty(self, session):
        result = session.transact("def Irrelevant(x) : ProductPrice(x, _)")
        assert not result.output

    def test_output_uses_derived_relations(self, session):
        result = session.transact(
            """
            def Expensive(p) : exists((v) | ProductPrice(p, v) and v > 15)
            def output(p) : Expensive(p)
            """
        )
        assert sorted(result.output.tuples) == [("P2",), ("P3",), ("P4",)]


class TestInsertDelete:
    def test_insert_creates_relation(self, session):
        result = session.transact(
            'def insert(:Flagged, x) : ProductPrice(x, 40)'
        )
        assert result.committed
        assert session.database["Flagged"] == Relation([("P4",)])

    def test_delete_removes_tuples(self, session):
        result = session.transact(
            'def delete(:ProductPrice, x, y) : ProductPrice(x, y) and y > 30'
        )
        assert result.committed
        assert sorted(session.database["ProductPrice"].tuples) == [
            ("P1", 10), ("P2", 20), ("P3", 30)
        ]

    def test_insert_and_delete_in_one_transaction(self, session):
        session.transact(
            """
            def delete(:ProductPrice, x, y) : ProductPrice(x, y) and y = 40
            def insert(:ProductPrice, x, y) : x = "P5" and y = 50
            """
        )
        assert ("P5", 50) in session.database["ProductPrice"]
        assert ("P4", 40) not in session.database["ProductPrice"]

    def test_malformed_insert_tuple_rejected(self, session):
        from repro.engine.errors import EvaluationError

        with pytest.raises(EvaluationError, match=":RelationName"):
            session.transact('def insert(x) : ProductPrice(x, _)')

    def test_result_reports_changes(self, session):
        result = session.transact(
            'def insert(:Flagged, x) : ProductPrice(x, 40)'
        )
        assert "Flagged" in result.inserted
        assert sorted(result.inserted["Flagged"].tuples) == [("P4",)]


class TestConstraintAborts:
    def test_violating_insert_aborts(self, session):
        result = session.transact(
            """
            ic integer_quantities() requires
                forall((x) | OrderProductQuantity(_,_,x) implies Int(x))
            def insert(:OrderProductQuantity, o, p, q) :
                o = "O9" and p = "P1" and q = "lots"
            """
        )
        assert not result.committed
        assert result.aborted_by == "integer_quantities"
        assert ("O9", "P1", "lots") not in session.database["OrderProductQuantity"]

    def test_conforming_insert_commits(self, session):
        result = session.transact(
            """
            ic integer_quantities() requires
                forall((x) | OrderProductQuantity(_,_,x) implies Int(x))
            def insert(:OrderProductQuantity, o, p, q) :
                o = "O9" and p = "P1" and q = 7
            """
        )
        assert result.committed
        assert ("O9", "P1", 7) in session.database["OrderProductQuantity"]

    def test_foreign_key_constraint(self, session):
        result = session.transact(
            """
            ic valid_products(x) requires
                OrderProductQuantity(_,x,_) implies ProductPrice(x,_)
            def insert(:OrderProductQuantity, o, p, q) :
                o = "O9" and p = "P99" and q = 1
            """
        )
        assert not result.committed
        assert sorted(result.violations["valid_products"].tuples) == [("P99",)]

    def test_constraint_sees_post_state_of_deletes(self, session):
        """Deleting the referenced product must abort via the FK."""
        result = session.transact(
            """
            ic valid_products(x) requires
                OrderProductQuantity(_,x,_) implies ProductPrice(x,_)
            def delete(:ProductPrice, x, y) : ProductPrice(x, y) and x = "P1"
            """
        )
        assert not result.committed
        assert ("P1", 10) in session.database["ProductPrice"]


class TestCheckConstraints:
    def test_parameterized_violations_collected(self):
        program = RelProgram(
            """
            ic integer_quantities(x) requires
                OrderProductQuantity(_,_,x) implies Int(x)
            ic valid_products(x) requires
                OrderProductQuantity(_,x,_) implies ProductPrice(x,_)
            """,
            database={
                "OrderProductQuantity": Relation(
                    [("O1", "P1", 2), ("O9", "P9", "three")]
                ),
                "ProductPrice": Relation([("P1", 10)]),
            },
        )
        violations = check_constraints(program)
        assert sorted(violations["integer_quantities"].tuples) == [("three",)]
        assert sorted(violations["valid_products"].tuples) == [("P9",)]

    def test_nullary_constraint_boolean(self):
        program = RelProgram(
            "ic has_q() requires exists((x) | Q(x))",
            database={"Q": Relation([(1,)])},
        )
        assert not check_constraints(program)["has_q"]  # satisfied

        program2 = RelProgram(
            "ic has_q() requires exists((x) | Q(x))",
            database={"Q": Relation()},
        )
        assert check_constraints(program2)["has_q"]  # violated


class TestPaperClosedOrders:
    def test_section_34_walkthrough(self, session):
        """The full insert/delete example of Section 3.4."""
        result = session.transact("""
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
        assert session.database["ClosedOrders"] == Relation([("O2",)])
        assert ("O2", "P1", 1) not in session.database["OrderProductQuantity"]
        assert ("O1", "P1", 2) in session.database["OrderProductQuantity"]
