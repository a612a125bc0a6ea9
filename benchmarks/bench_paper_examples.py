"""E1–E9 — the paper's worked examples as a regenerable run.

Executes every Section 3–5 example against the Figure 1 database and prints
the paper-stated results; benchmark timings document the cost of a full
transaction on the running example.
"""

import pytest

from repro import RelProgram, connect
from repro.workloads import order_database

SECTION3_RULES = """
    def OrderWithPayment(y) : PaymentOrder(_, y)
    def OrderedProducts(y) : OrderProductQuantity(_, y, _)
    def OrderedProductPrice(x, y) :
        OrderProductQuantity(_, x, _) and ProductPrice(x, y)
    def NotOrdered(x) :
        ProductPrice(x, _) and not OrderProductQuantity(_, x, _)
    def DiscountedproductPrice(x, y) :
        exists((z) | ProductPrice(x, z) and add(y, 5, z))
    def SameOrder(p1, p2) :
        exists((o) | OrderProductQuantity(o, p1, _)
                 and OrderProductQuantity(o, p2, _))
    def SameOrderDiffProduct(p1, p2) : SameOrder(p1, p2) and p1 != p2
    def Expensive(p) : exists((v) | ProductPrice(p, v) and v > 15)
    def BoughtWithExpensiveProduct(p) :
        exists((x in Expensive) | SameOrderDiffProduct(x, p))
"""

EXPECTED = {
    "OrderWithPayment": {("O1",), ("O2",), ("O3",)},
    "OrderedProducts": {("P1",), ("P2",), ("P3",)},
    "OrderedProductPrice": {("P1", 10), ("P2", 20), ("P3", 30)},
    "NotOrdered": {("P4",)},
    "DiscountedproductPrice": {("P1", 5), ("P2", 15), ("P3", 25), ("P4", 35)},
    "SameOrderDiffProduct": {("P1", "P2"), ("P2", "P1")},
    "BoughtWithExpensiveProduct": {("P1",)},
}


def run_section3():
    program = RelProgram(database=order_database())
    program.add_source(SECTION3_RULES)
    return {name: set(program.relation(name).tuples) for name in EXPECTED}


def run_transaction():
    return connect(order_database()).transact("""
        def Ord(x) : OrderProductQuantity(x, _, _)
        def OPA(x, y, z) : PaymentOrder(y, x) and PaymentAmount(y, z)
        def OrderPaid[x in Ord] : sum[OPA[x]]
        def OrderLineTotal(o, p, t) : exists((q, pr) |
            OrderProductQuantity(o, p, q) and ProductPrice(p, pr)
            and t = q * pr)
        def OrderTotal[o in Ord] : sum[OrderLineTotal[o]]
        def delete(:OrderProductQuantity, x, y, z) :
            OrderProductQuantity(x, y, z) and
            exists((u) | OrderPaid(x, u) and OrderTotal(x, u))
        def insert(:ClosedOrders, x) :
            exists((u) | OrderPaid(x, u) and OrderTotal(x, u))
        ic valid_products(x) requires
            OrderProductQuantity(_, x, _) implies ProductPrice(x, _)
    """)


def test_section3_examples(benchmark):
    results = benchmark(run_section3)
    for name, expected in EXPECTED.items():
        assert results[name] == expected, name


def test_full_transaction(benchmark):
    result = benchmark(run_transaction)
    assert result.committed
    assert set(result.inserted["ClosedOrders"].tuples) == {("O2",)}


def test_aggregation_examples(benchmark):
    def run():
        program = RelProgram(database=order_database())
        return (
            program.query("sum[PaymentAmount]"),
            program.query("avg[PaymentAmount]"),
            program.query("argmin[PaymentAmount]"),
        )

    total, average, witnesses = benchmark(run)
    assert set(total.tuples) == {(130,)}
    assert set(average.tuples) == {(32.5,)}
    assert set(witnesses.tuples) == {("Pmt2",), ("Pmt3",)}
