#!/usr/bin/env python
"""Quickstart: the paper's running example, end to end.

Walks through the Figure 1 database and the Section 3 queries — basic
rules, wildcards, negation, infinite relations, recursion — then a full
transaction with ``output``/``insert``/``delete`` and integrity
constraints (Sections 3.4–3.5).

Run:  python examples/quickstart.py
"""

from repro import connect
from repro.workloads import order_database


def show(title, relation):
    print(f"  {title}: {sorted(relation.tuples, key=repr)}")


def main() -> None:
    print("== The Figure 1 database ==")
    db = order_database()
    for name, rel in sorted(db.items()):
        show(name, rel)

    # ------------------------------------------------------------------
    print("\n== Section 3.1: basic rules ==")
    session = connect(db)
    session.load("""
        def OrderWithPayment(y) : PaymentOrder(_, y)
        def OrderedProductPrice(x, y) :
            OrderProductQuantity(_, x, _) and ProductPrice(x, y)
        def NotOrdered(x) :
            ProductPrice(x, _) and not OrderProductQuantity(_, x, _)
    """)
    show("OrderWithPayment", session.relation("OrderWithPayment"))
    show("OrderedProductPrice", session.relation("OrderedProductPrice"))
    show("NotOrdered", session.relation("NotOrdered"))

    # ------------------------------------------------------------------
    print("\n== Section 3.2: infinite relations, used safely ==")
    session.load("""
        def DiscountedPrice(x, y) :
            exists((z) | ProductPrice(x, z) and add(y, 5, z))
    """)
    show("DiscountedPrice", session.relation("DiscountedPrice"))

    # ------------------------------------------------------------------
    print("\n== Section 3.3: recursion (who is bought with what) ==")
    session.load("""
        def SameOrder(p1, p2) :
            exists((o) | OrderProductQuantity(o, p1, _)
                     and OrderProductQuantity(o, p2, _))
        def BoughtWith(p, q) : SameOrder(p, q) and p != q
    """)
    show("BoughtWith", session.relation("BoughtWith"))

    # ------------------------------------------------------------------
    print("\n== Section 5.2: aggregation (sums per order) ==")
    session.load("""
        def Ord(x) : OrderProductQuantity(x, _, _)
        def OrderPaymentAmount(x, y, z) :
            PaymentOrder(y, x) and PaymentAmount(y, z)
        def OrderPaid[x in Ord] : sum[OrderPaymentAmount[x]] <++ 0
        def OrderLineTotal(o, p, t) : exists((q, pr) |
            OrderProductQuantity(o, p, q) and ProductPrice(p, pr)
            and t = q * pr)
        def OrderTotal[o in Ord] : sum[OrderLineTotal[o]]
    """)
    show("OrderPaid", session.relation("OrderPaid"))
    show("OrderTotal", session.relation("OrderTotal"))

    # ------------------------------------------------------------------
    print("\n== Section 3.4: a transaction that closes fully-paid orders ==")
    txn_session = connect(order_database())
    result = txn_session.transact("""
        def Ord(x) : OrderProductQuantity(x, _, _)
        def OrderPaymentAmount(x, y, z) :
            PaymentOrder(y, x) and PaymentAmount(y, z)
        def OrderPaid[x in Ord] : sum[OrderPaymentAmount[x]]
        def OrderLineTotal(o, p, t) : exists((q, pr) |
            OrderProductQuantity(o, p, q) and ProductPrice(p, pr)
            and t = q * pr)
        def OrderTotal[o in Ord] : sum[OrderLineTotal[o]]

        def output(x, paid, total) : Ord(x) and
            OrderPaid(x, paid) and OrderTotal(x, total)

        def delete(:OrderProductQuantity, x, y, z) :
            OrderProductQuantity(x, y, z) and
            exists((u) | OrderPaid(x, u) and OrderTotal(x, u))
        def insert(:ClosedOrders, x) :
            exists((u) | OrderPaid(x, u) and OrderTotal(x, u))
    """)
    show("output (order, paid, total)", result.output)
    print(f"  committed: {result.committed}")
    database = txn_session.database  # read after the commit
    show("ClosedOrders (new base relation)", database["ClosedOrders"])
    show("OrderProductQuantity after delete",
         database["OrderProductQuantity"])

    # ------------------------------------------------------------------
    print("\n== Section 3.5: integrity constraints abort bad transactions ==")
    bad = txn_session.transact("""
        ic integer_quantities() requires
            forall((x) | OrderProductQuantity(_, _, x) implies Int(x))
        def insert(:OrderProductQuantity, o, p, q) :
            o = "O9" and p = "P1" and q = "three"
    """)
    print(f"  committed: {bad.committed} (aborted by {bad.aborted_by!r})")
    assert "O9" not in {t[0] for t in database["OrderProductQuantity"]}

    # ------------------------------------------------------------------
    print("\n== Queries are just expressions ==")
    session2 = connect(order_database())
    show('OrderProductQuantity["O1"]',
         session2.execute('OrderProductQuantity["O1"]'))
    show("argmax[PaymentAmount]", session2.execute("argmax[PaymentAmount]"))
    show("avg of prices", session2.execute("avg[ProductPrice]"))
    print("\nDone.")


if __name__ == "__main__":
    main()
