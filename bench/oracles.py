"""Pure-Python oracles for the benchmark workloads.

Each oracle computes the expected output of one workload from the plain
inputs of ``bench/inputs.py`` by the most direct algorithm there is (BFS,
adjacency-set intersection, dict group-by) and never calls the engine.
Large outputs are compared through :func:`digest` — a row count and an
order-independent checksum — so the benchmark holds neither a second copy
of a 365 k-row closure nor a set built from the engine's result, both of
which would sit in the peak-RSS metric.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Set, Tuple

Edge = Tuple[int, int]
Digest = Tuple[int, int]

_MASK = (1 << 64) - 1


def digest(rows: Iterable[tuple]) -> Digest:
    """(row count, sum of row hashes mod 2**64). Both sides of a comparison
    are digested in the same process, so salted string hashes agree; the
    rows of a relation are distinct, so a changed, missing or extra row
    moves the sum."""
    count = 0
    total = 0
    for row in rows:
        count += 1
        total += hash(row)
    return count, total & _MASK


def user_bytes(rows: Iterable[tuple]) -> int:
    """Bytes of the rows written once as tab-separated text lines: the
    engine-independent size of the user's data that write amplification is
    measured against."""
    return sum(len("\t".join(map(str, row))) + 1 for row in rows)


def _successors(edges: Iterable[Edge]) -> Dict[int, Set[int]]:
    succ: Dict[int, Set[int]] = defaultdict(set)
    for u, v in edges:
        succ[u].add(v)
    return succ


def reachable(succ: Mapping[int, Set[int]], source: int) -> Dict[int, int]:
    """BFS from ``source``: node -> number of edges on a shortest path, for
    every node reachable by at least one edge (``source`` itself only when
    it lies on a cycle)."""
    dist: Dict[int, int] = {}
    frontier = deque((v, 1) for v in succ.get(source, ()))
    while frontier:
        node, d = frontier.popleft()
        if node in dist:
            continue
        dist[node] = d
        frontier.extend((v, d + 1) for v in succ.get(node, ()))
    return dist


def closure(edges: Sequence[Edge]) -> Iterator[Edge]:
    """The transitive closure, one BFS per source."""
    succ = _successors(edges)
    for source in list(succ):
        for target in reachable(succ, source):
            yield source, target


def dag_closure_size(edges: Sequence[Edge]) -> int:
    """Closure size of an acyclic graph from memoised reachability bitsets:
    the per-step oracle of ``maintain_mix``, where 200 full BFS closures
    would cost more than the timed script. Recursion is as deep as the
    longest path, which the layered input keeps at its layer count."""
    succ = _successors(edges)
    bit: Dict[int, int] = {}
    reach: Dict[int, int] = {}
    path: Set[int] = set()

    def visit(node: int) -> int:
        if node in reach:
            return reach[node]
        if node in path:
            raise ValueError("graph has a cycle")
        path.add(node)
        mask = 0
        for child in succ.get(node, ()):
            mask |= bit.setdefault(child, 1 << len(bit)) | visit(child)
        path.discard(node)
        reach[node] = mask
        return mask

    return sum(bin(visit(node)).count("1") for node in list(succ))


def shortest_paths(vertices: Sequence[int],
                   edges: Sequence[Edge]) -> Iterator[Tuple[int, int, int]]:
    """All-pairs shortest path lengths: (v, v, 0) for every vertex and
    (x, y, d) for every other reachable pair."""
    succ = _successors(edges)
    for x in vertices:
        yield x, x, 0
        for y, d in reachable(succ, x).items():
            if y != x:
                yield x, y, d


def triangles(edges: Sequence[Edge]) -> Iterator[Tuple[int, int, int]]:
    """(a, b, c) with E(a, b), E(b, c) and E(a, c)."""
    succ = _successors(edges)
    for a, b in edges:
        for c in succ[a] & succ.get(b, set()):
            yield a, b, c


def cliques4(edges: Sequence[Edge]) -> Iterator[Tuple[int, int, int, int]]:
    """(a, b, c, d) with all six edges a->b, a->c, a->d, b->c, b->d, c->d."""
    succ = _successors(edges)
    empty: Set[int] = set()
    for a, b, c in triangles(edges):
        for d in succ[a] & succ.get(b, empty) & succ.get(c, empty):
            yield a, b, c, d


def wedges(edges: Sequence[Edge]) -> Iterator[Tuple[int, int, int]]:
    """(a, b, c) with E(a, b) and E(b, c)."""
    succ = _successors(edges)
    for a, b in edges:
        for c in succ.get(b, ()):
            yield a, b, c


def sources(edges: Iterable[Edge]) -> Set[int]:
    """Nodes with at least one outgoing edge (the ``Deg`` view)."""
    return {u for u, _ in edges}


# -- orders -------------------------------------------------------------------


class OrderBook:
    """Dict group-by over the order/payment base tables: what each order
    costs, what has been paid on it, who placed it. Payments can be added,
    so the same object answers for the state after any set of writes."""

    def __init__(self, base: Mapping[str, List[tuple]]) -> None:
        price = dict(base["ProductPrice"])
        self.total: Dict[str, int] = defaultdict(int)
        for order, product, quantity in base["OrderProductQuantity"]:
            self.total[order] += quantity * price[product]
        self.customer_orders: Dict[str, List[str]] = defaultdict(list)
        for order, customer in base["OrderCustomer"]:
            self.customer_orders[customer].append(order)
        order_of = dict(base["PaymentOrder"])
        self.paid: Dict[str, int] = defaultdict(int)
        for payment, amount in base["PaymentAmount"]:
            self.paid[order_of[payment]] += amount

    def pay(self, order: str, amount: int) -> None:
        self.paid[order] += amount

    def unpaid_of(self, customer: str) -> Set[Tuple[str, int]]:
        """(order, total) for the customer's orders on which less than the
        total has been paid."""
        return {(o, self.total[o]) for o in self.customer_orders[customer]
                if self.paid[o] < self.total[o]}

    def unpaid(self) -> Set[Tuple[str]]:
        return {(o,) for o, total in self.total.items()
                if self.paid[o] < total}

    def order_paid(self) -> Set[Tuple[str, int]]:
        return {(o, self.paid[o]) for o in self.total}
