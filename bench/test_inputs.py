"""Pins for the benchmark's inputs and oracles.

The numbers a later change is judged by are only comparable while the
inputs stay what they were, so the inputs of seed 12 are pinned by hash;
the oracles are pinned on cases small enough to check by hand.
"""

import hashlib

import pytest

from bench import inputs, oracles, workloads

GENERATORS = {
    "hub_graph": inputs.hub_graph,
    "chain_graph": inputs.chain_graph,
    "random_digraph": inputs.random_digraph,
    "scale_free_graph": inputs.scale_free_graph,
    "agm_hub_graph": inputs.agm_hub_graph,
    "layered_dag": inputs.layered_dag,
    "durable_rows": inputs.durable_rows,
    "orders_database": inputs.orders_database,
}

#: First 16 hex digits of sha256(repr(generator(12))).
PINNED = {
    "hub_graph": "2af194270a23cea3",
    "chain_graph": "34be61fa19910176",
    "random_digraph": "5a5e90c6ae631b4e",
    "scale_free_graph": "38ce4a057f467dd7",
    "agm_hub_graph": "4be9b3678098788c",
    "layered_dag": "25d7141e56f3c875",
    "durable_rows": "478ea3062f29c6b3",
    "orders_database": "5a7f574838c2706d",
}


def _sizes(value):
    """The shape of a generated input: the length of every list of rows."""
    if isinstance(value, dict):
        return {key: _sizes(item) for key, item in value.items()}
    if any(isinstance(item, (list, dict)) for item in value):
        return [_sizes(item) for item in value]
    return len(value)


@pytest.mark.parametrize("name", list(GENERATORS))
def test_same_seed_same_bytes(name):
    generate = GENERATORS[name]
    first = repr(generate(12)).encode()
    assert first == repr(generate(12)).encode()
    assert hashlib.sha256(first).hexdigest()[:16] == PINNED[name]


@pytest.mark.parametrize("name", list(GENERATORS))
def test_other_seed_other_rows_same_sizes(name):
    generate = GENERATORS[name]
    one, other = generate(12), generate(13)
    assert one != other
    assert _sizes(one) == _sizes(other)


def test_stated_sizes():
    assert len(inputs.hub_graph(12)) == 4_800
    assert len(inputs.chain_graph(12)) == 479
    vertices, edges = inputs.random_digraph(12)
    assert (len(vertices), len(edges)) == (80, 160)
    assert len(inputs.scale_free_graph(12)) == 27_895
    assert len(inputs.agm_hub_graph(12)) == 2_100
    dag = inputs.layered_dag(12)
    assert (len(dag.edges), len(dag.script)) == (1_440, 200)
    durable = inputs.durable_rows(12)
    assert [len(b) for b in durable.event_batches] == [15_000] * 4
    assert (len(durable.edges), len(durable.inserts)) == (10_000, 90)
    orders = inputs.orders_database(12)
    assert len(orders.base["OrderCustomer"]) == 300
    assert len(orders.base["ProductPrice"]) == 100
    kinds = [op.kind for op in orders.script]
    assert (kinds.count("total"), kinds.count("unpaid"),
            kinds.count("pay")) == (1360, 600, 40)


# -- oracles on a hand-written 5-node graph ----------------------------------
#
#   1 -> 2 -> 3 -> 4      and 1 -> 3, 2 -> 4, 5 -> 1

FIVE = [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (5, 1)]


def test_closure_by_hand():
    want = {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
            (5, 1), (5, 2), (5, 3), (5, 4)}
    assert set(oracles.closure(FIVE)) == want
    assert oracles.dag_closure_size(FIVE) == len(want)
    # On a cycle every node reaches itself.
    assert set(oracles.closure([(1, 2), (2, 1)])) == \
        {(1, 2), (2, 1), (1, 1), (2, 2)}
    with pytest.raises(ValueError):
        oracles.dag_closure_size([(1, 2), (2, 1)])


def test_shortest_paths_by_hand():
    want = {(v, v, 0) for v in range(1, 6)} | {
        (1, 2, 1), (1, 3, 1), (1, 4, 2), (2, 3, 1), (2, 4, 1), (3, 4, 1),
        (5, 1, 1), (5, 2, 2), (5, 3, 2), (5, 4, 3)}
    assert set(oracles.shortest_paths(range(1, 6), FIVE)) == want


def test_join_patterns_by_hand():
    assert set(oracles.triangles(FIVE)) == {(1, 2, 3), (2, 3, 4)}
    assert set(oracles.wedges(FIVE)) == {
        (1, 2, 3), (1, 2, 4), (2, 3, 4), (1, 3, 4),
        (5, 1, 2), (5, 1, 3)}
    assert set(oracles.cliques4(FIVE)) == set()
    assert set(oracles.cliques4(FIVE + [(1, 4)])) == {(1, 2, 3, 4)}
    assert oracles.sources(FIVE) == {1, 2, 3, 5}


def test_order_book_by_hand():
    book = oracles.OrderBook({
        "ProductPrice": [("P1", 10), ("P2", 20)],
        "OrderProductQuantity": [("O1", "P1", 2), ("O1", "P2", 1),
                                 ("O2", "P1", 1)],
        "OrderCustomer": [("O1", "C1"), ("O2", "C1")],
        "PaymentOrder": [("Pmt1", "O1"), ("Pmt2", "O1")],
        "PaymentAmount": [("Pmt1", 20), ("Pmt2", 10)],
    })
    assert dict(book.total) == {"O1": 40, "O2": 10}
    assert book.order_paid() == {("O1", 30), ("O2", 0)}
    assert book.unpaid() == {("O1",), ("O2",)}
    assert book.unpaid_of("C1") == {("O1", 40), ("O2", 10)}
    book.pay("O2", 10)
    assert book.unpaid_of("C1") == {("O1", 40)}


def test_digest_sees_one_altered_row():
    rows = list(oracles.closure(FIVE))
    altered = rows[:-1] + [(rows[-1][0], 99)]
    assert oracles.digest(rows) == oracles.digest(reversed(rows))
    assert oracles.digest(rows) != oracles.digest(altered)
    assert oracles.digest(rows) != oracles.digest(rows[:-1])


class _FiveNodes(workloads.TcWide):
    """The tc workloads' cold pass on the 5-node graph, so the whole check
    (engine result against oracle digest) runs in milliseconds."""

    expected_rows = None

    def build(self):
        rows = self.expected_rows or list(oracles.closure(FIVE))
        return {"E": FIVE}, {"Path": rows}


def test_cold_pass_check_passes_then_fails_on_one_altered_row(tmp_path):
    good = _FiveNodes(12, tmp_path)
    good.setup()
    rec = workloads.Recorder()
    assert good.unit(rec)
    assert (rec.attempted, rec.failed, len(rec.units)) == (1, 0, 1)

    bad = _FiveNodes(12, tmp_path)
    rows = list(oracles.closure(FIVE))
    bad.expected_rows = rows[:-1] + [(rows[-1][0], 99)]
    bad.setup()
    rec = workloads.Recorder()
    bad.unit(rec)
    assert (rec.attempted, rec.failed) == (1, 1)


def test_orders_check_holds_reads_to_the_payments_before_them(tmp_path):
    """The client pays O1 in full; it reads the unpaid orders of O1's
    customer before and after that."""
    base = {
        "ProductPrice": [("P1", 10)],
        "OrderProductQuantity": [("O1", "P1", 1), ("O2", "P1", 2)],
        "OrderCustomer": [("O1", "C1"), ("O2", "C1")],
        "PaymentOrder": [], "PaymentAmount": [],
    }

    class Committed:
        committed = True

    def verdict(before, after):
        serve = workloads.OrdersServe(12, tmp_path)
        serve.book = oracles.OrderBook(base)
        read = inputs.ServeOp("unpaid", "C1")
        rec = workloads.Recorder()
        rec.start()
        rec.stop()
        serve._check(rec, [
            (read, 0.0, 1.0, before),
            (inputs.ServeOp("pay", "Pmt1", "O1", 10), 2.0, 4.0, Committed()),
            (read, 5.0, 6.0, after)])
        return rec.attempted, rec.failed

    both, one = [("O1", 10), ("O2", 20)], [("O2", 20)]
    assert verdict(both, one) == (3, 0)
    assert verdict(one, one) == (3, 1)       # paid before it was
    assert verdict(both, both) == (3, 1)     # acknowledged, unseen
    assert verdict(both, [("O2", 21)]) == (3, 1)  # one altered row
