"""Seeded input generators for the benchmark workloads.

Inputs are plain Python lists of tuples; nothing here imports ``repro``, so
no change to the engine can change what the benchmark feeds it.

What the seed changes, and what it does not. The driver compares runs made
with *different* seeds and rejects a metric whose spread across them
exceeds its bound, so the seed must not change how much work a workload is:
on the small random shapes a fresh draw moves the work by tens of per cent
(APSP on 80 nodes / 160 edges took 1.9 s to 3.3 s over six draws). Every
*shape* — which node points at which, who owes what, which edges the
update script touches — is therefore drawn once from ``SHAPE_SEED``, and
``--seed`` decides what the engine can see of it: the ids (a seeded
relabelling), the row order, the order and keys of the cheap reads, and the
values of the bulk-loaded rows. The same seed gives byte-identical inputs;
another seed gives different inputs of exactly the same sizes
(``bench/test_inputs.py`` pins both).
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Tuple

Edge = Tuple[int, int]

#: Draws every workload's shape; not a knob (changing it starts a new
#: baseline for every metric).
SHAPE_SEED = 20250410


def _relabel(rng: random.Random, n: int) -> List[int]:
    """A seeded permutation of the ids 1..n: ``ids[index]`` is the id the
    engine sees for the shape's node ``index``."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    return ids


def _seeded(seed: int, index_edges: List[Edge], n: int) -> List[Edge]:
    """Relabel a shape's edges over node indices 0..n-1 and shuffle them."""
    rng = random.Random(seed)
    ids = _relabel(rng, n)
    edges = [(ids[u], ids[v]) for u, v in index_edges]
    rng.shuffle(edges)
    return edges


# -- tc_wide / tc_deep --------------------------------------------------------

HUB_SPOKES = 600
HUB_HUBS = 4
CHAIN_NODES = 480


def hub_graph(seed: int) -> List[Edge]:
    """Every spoke points at every hub and every hub at every spoke:
    2 * HUB_SPOKES * HUB_HUBS edges whose closure is (spokes + hubs)**2
    rows, reached in a handful of semi-naive rounds with huge frontiers."""
    hub_ix = range(HUB_HUBS)
    spoke_ix = range(HUB_HUBS, HUB_HUBS + HUB_SPOKES)
    shape = [(s, h) for s in spoke_ix for h in hub_ix]
    shape += [(h, s) for h in hub_ix for s in spoke_ix]
    return _seeded(seed, shape, HUB_SPOKES + HUB_HUBS)


def chain_graph(seed: int) -> List[Edge]:
    """A path over CHAIN_NODES relabelled ids: n - 1 edges, a closure of
    n * (n - 1) / 2 rows reached in n - 1 one-row rounds."""
    return _seeded(seed, [(i, i + 1) for i in range(CHAIN_NODES - 1)],
                   CHAIN_NODES)


# -- apsp_min -----------------------------------------------------------------

APSP_NODES = 80
APSP_EDGES = 160


def random_digraph(seed: int) -> Tuple[List[int], List[Edge]]:
    """APSP_EDGES distinct directed edges without self-loops over
    APSP_NODES vertices; returns (vertices, edges)."""
    shape = random.Random(SHAPE_SEED)
    chosen = set()
    while len(chosen) < APSP_EDGES:
        u, v = shape.randrange(APSP_NODES), shape.randrange(APSP_NODES)
        if u != v:
            chosen.add((u, v))
    return (list(range(1, APSP_NODES + 1)),
            _seeded(seed, sorted(chosen), APSP_NODES))


# -- joins_cyclic -------------------------------------------------------------

SCALE_FREE_NODES = 2000
SCALE_FREE_ATTACH = 14
AGM_FAN = 1000
AGM_CLOSING = 100


def scale_free_graph(seed: int) -> List[Edge]:
    """Preferential attachment over SCALE_FREE_NODES nodes: node v points at
    min(SCALE_FREE_ATTACH, v) *distinct* earlier nodes drawn in proportion
    to their degree, so the edge count is a function of the two sizes alone
    and a few hubs grow heavy. Edges run
    from the newer node to the older one, so the graph is acyclic and each
    undirected triangle is one ``E(a,b), E(b,c), E(a,c)`` match."""
    shape = random.Random(SHAPE_SEED)
    index_edges: List[Edge] = []
    targets = [0]
    for v in range(1, SCALE_FREE_NODES):
        want = min(SCALE_FREE_ATTACH, v)
        chosen = set()
        while len(chosen) < want:
            chosen.add(shape.choice(targets))
        for u in sorted(chosen):
            index_edges.append((v, u))
            targets.append(u)
        targets.extend([v] * want)
    return _seeded(seed, index_edges, SCALE_FREE_NODES)


def agm_hub_graph(seed: int) -> List[tuple]:
    """The AGM worst case for triangles: AGM_FAN sources -> one hub ->
    AGM_FAN sinks plus AGM_CLOSING distinct source -> sink edges. A binary
    plan through the hub builds fan**2 paths; the output is the closing
    edges' triangles.

    Sink ids are strings (``"s17"``) while sources and hub are ints, as in
    a knowledge graph whose node ids come from two key spaces. A column
    that mixes sorts is one the engine's typed column plane declines, so
    this is the graph on which the row-plane strategy choice (leapfrog for
    a cyclic body) and trie building run at all: with all-int ids every
    conjunction of this workload takes the columnar probe instead."""
    shape = random.Random(SHAPE_SEED)
    sources = range(1, AGM_FAN + 1)
    sinks = range(AGM_FAN + 1, 2 * AGM_FAN + 1)
    index_edges = [(s, 0) for s in sources] + [(0, t) for t in sinks]
    closers = set()
    while len(closers) < AGM_CLOSING:
        closers.add((shape.choice(sources), shape.choice(sinks)))
    edges = _seeded(seed, index_edges + sorted(closers), 2 * AGM_FAN + 1)
    sink_ids = {v for _, v in edges} - {u for u, _ in edges}
    return [(u, f"s{v}" if v in sink_ids else v) for u, v in edges]


# -- maintain_mix -------------------------------------------------------------

DAG_LAYERS = 5
DAG_WIDTH = 120
DAG_FANOUT = 3
MAINTAIN_PAIRS = 100


class MaintainInput(NamedTuple):
    edges: List[Edge]
    #: (kind, edge) with kind "insert" or "delete", strictly alternating.
    script: List[Tuple[str, Edge]]


def layered_dag(seed: int) -> MaintainInput:
    """DAG_LAYERS layers of DAG_WIDTH nodes, each node pointing at
    DAG_FANOUT distinct nodes of the next layer, and an update script of
    MAINTAIN_PAIRS point inserts (new next-layer edges) alternating with as
    many point deletes of distinct original edges."""
    shape = random.Random(SHAPE_SEED)
    layer = [range(i * DAG_WIDTH, (i + 1) * DAG_WIDTH)
             for i in range(DAG_LAYERS)]
    index_edges: List[Edge] = []
    for i in range(DAG_LAYERS - 1):
        for u in layer[i]:
            index_edges.extend(
                (u, v) for v in shape.sample(layer[i + 1], DAG_FANOUT))
    present = set(index_edges)
    inserts: List[Edge] = []
    while len(inserts) < MAINTAIN_PAIRS:
        i = shape.randrange(DAG_LAYERS - 1)
        edge = (shape.choice(layer[i]), shape.choice(layer[i + 1]))
        if edge not in present:
            present.add(edge)
            inserts.append(edge)
    deletes = shape.sample(index_edges, MAINTAIN_PAIRS)
    rng = random.Random(seed)
    ids = _relabel(rng, DAG_LAYERS * DAG_WIDTH)
    edges = [(ids[u], ids[v]) for u, v in index_edges]
    rng.shuffle(edges)
    script: List[Tuple[str, Edge]] = []
    for (iu, iv), (du, dv) in zip(inserts, deletes):
        script.append(("insert", (ids[iu], ids[iv])))
        script.append(("delete", (ids[du], ids[dv])))
    return MaintainInput(edges, script)


# -- durable_cycle ------------------------------------------------------------

#: Sized so that one cycle takes about a second and a run holds seven or
#: more of them: a run of two 4.5-s cycles (200 k events, 20 k edges, 300
#: inserts) read one burst of the shared host as its result.
EVENT_ROWS = 60_000
EVENT_BATCHES = 4
DURABLE_EDGE_ROWS = 10_000
DURABLE_INSERTS = 90
_EVENT_KINDS = ("click", "view", "purchase", "refund", "login", "logout",
                "search", "share")


class DurableInput(NamedTuple):
    event_batches: List[List[Tuple[int, int, str]]]
    edges: List[Edge]
    inserts: List[Edge]


def durable_rows(seed: int) -> DurableInput:
    """EVENT_ROWS distinct (id, user, kind-string) rows in EVENT_BATCHES
    equal batches, DURABLE_EDGE_ROWS distinct edges, and DURABLE_INSERTS
    further distinct edges to insert one at a time. Every number keeps the
    same count of digits for every seed, so stored bytes per row do not
    move with it; the string column has 4,000 distinct values, so the
    interner and the block codec both run."""
    rng = random.Random(seed)
    first = rng.randrange(1_000_000, 5_000_000)
    rows = [(first + i, rng.randrange(1000, 5000),
             f"{rng.choice(_EVENT_KINDS)}-{rng.randrange(100, 600)}")
            for i in range(EVENT_ROWS)]
    rng.shuffle(rows)
    per = EVENT_ROWS // EVENT_BATCHES
    event_batches = [rows[i * per:(i + 1) * per]
                     for i in range(EVENT_BATCHES)]
    nodes = DURABLE_EDGE_ROWS // 4
    chosen = set()
    while len(chosen) < DURABLE_EDGE_ROWS + DURABLE_INSERTS:
        chosen.add((rng.randrange(10_000, 10_000 + nodes),
                    rng.randrange(10_000, 10_000 + nodes)))
    ordered = sorted(chosen)
    rng.shuffle(ordered)
    return DurableInput(event_batches, ordered[:DURABLE_EDGE_ROWS],
                        ordered[DURABLE_EDGE_ROWS:])


# -- orders_serve -------------------------------------------------------------

ORDERS = 300
PRODUCTS = 100
SERVE_OPS = 2000
#: One write every WRITE_EVERY ops (2 %), at a fixed position in each block,
#: so every stretch of a script carries the same share of expensive writes.
WRITE_EVERY = 50
#: Of the 49 reads per block, 15 are the ad-hoc join (30 %), 34 point reads.
JOIN_READS_PER_BLOCK = 15


class ServeOp(NamedTuple):
    kind: str        # "total" | "unpaid" | "pay"
    key: str         # order id ("total"), customer id ("unpaid"), payment id
    order: str = ""  # "pay": the order paid
    amount: int = 0  # "pay": the amount


class OrdersInput(NamedTuple):
    base: Dict[str, List[tuple]]
    script: List[ServeOp]


def orders_database(seed: int) -> OrdersInput:
    """The paper's Figure-1 order/payment schema at ORDERS orders, plus the
    closed-loop client's script: per block of WRITE_EVERY ops, one
    payment transaction, JOIN_READS_PER_BLOCK ad-hoc joins and point reads
    for the rest. The shape fixes prices, order lines, opening
    payments and which order each write pays; the seed relabels orders,
    customers and products and draws the reads."""
    shape = random.Random(SHAPE_SEED)
    rng = random.Random(seed)
    n_customers = ORDERS // 3
    order_id = [f"O{i}" for i in _relabel(rng, ORDERS)]
    product_id = [f"P{i}" for i in _relabel(rng, PRODUCTS)]
    customer_id = [f"C{i}" for i in _relabel(rng, n_customers)]
    price = [shape.randrange(5, 501, 5) for _ in range(PRODUCTS)]
    order_customer, lines, payment_order, payment_amount = [], [], [], []
    totals: List[int] = []
    payments = 0
    for o in range(ORDERS):
        order_customer.append(
            (order_id[o], customer_id[shape.randrange(n_customers)]))
        total = 0
        for p in shape.sample(range(PRODUCTS), shape.randint(1, 3)):
            quantity = shape.randint(1, 9)
            lines.append((order_id[o], product_id[p], quantity))
            total += quantity * price[p]
        totals.append(total)
        # A third of the orders start fully paid, a third half paid.
        paid = (total, total // 2, 0)[o % 3]
        if paid:
            payments += 1
            payment_order.append((f"Pmt{payments}", order_id[o]))
            payment_amount.append((f"Pmt{payments}", paid))
    base = {
        "ProductPrice": [(product_id[p], price[p]) for p in range(PRODUCTS)],
        "OrderCustomer": order_customer,
        "OrderProductQuantity": lines,
        "PaymentOrder": payment_order,
        "PaymentAmount": payment_amount,
    }
    for rows in base.values():
        rng.shuffle(rows)
    owing = [o for o in range(ORDERS) if o % 3]
    shape.shuffle(owing)
    script: List[ServeOp] = []
    for block in range(SERVE_OPS // WRITE_EVERY):
        reads = [ServeOp("unpaid", rng.choice(customer_id))
                 for _ in range(JOIN_READS_PER_BLOCK)]
        reads += [ServeOp("total", rng.choice(order_id))
                  for _ in range(WRITE_EVERY - 1 - JOIN_READS_PER_BLOCK)]
        rng.shuffle(reads)
        payments += 1
        # Each write pays one owing order, the whole total on even blocks
        # and a quarter on odd ones; no order is paid twice.
        o = owing[block]
        amount = totals[o] if block % 2 == 0 else 1 + totals[o] // 4
        write = ServeOp("pay", f"Pmt{payments}", order_id[o], amount)
        # The write sits in the middle of its block, so every block starts
        # and ends with reads.
        at = len(reads) // 2
        script.extend(reads[:at] + [write] + reads[at:])
    return OrdersInput(base, script)
