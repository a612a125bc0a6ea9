"""The seven benchmark workloads.

Every workload drives only the public surface of the engine
(``repro.connect``, ``Session``, ``QueryServer``), builds its inputs with
``bench/inputs.py`` and checks every output against ``bench/oracles.py``.

A workload is a sequence of *timed units*. ``setup()`` builds inputs,
oracle and whatever warm state the units start from; ``unit(rec)`` runs one
unit between ``rec.start()`` and ``rec.stop()``, then checks what it saw
(checking is outside the timed part) and records per-operation latencies
and checks on ``rec``; ``finish(rec)`` makes the end-of-run checks and
releases everything. The runner repeats ``unit`` as often as the seconds it
was given are worth and reports the lower quartile of what its units
measured.
"""

from __future__ import annotations

import shutil
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Tuple, Type

from repro import QueryServer, connect

from bench import inputs, oracles

clock = time.perf_counter

#: End-to-end metrics that every workload measures itself.
ALWAYS_NATIVE = frozenset({"setup_s", "wall_s", "peak_rss_mb"})


class Recorder:
    """What one measured phase saw: the seconds of each timed unit, the
    operation latencies of each unit by kind, and how many checked
    operations were attempted and how many failed. With a tracer, each
    timed unit is one pass root of the trace."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.units: List[float] = []
        #: One dict per unit started: kind -> latencies, in seconds.
        self.unit_ops: List[Dict[str, List[float]]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._started = 0.0

    def start(self) -> None:
        self.unit_ops.append(defaultdict(list))
        if self.tracer is not None:
            self.tracer.begin(len(self.units))
        self._started = clock()

    def stop(self) -> None:
        elapsed = clock() - self._started
        if self.tracer is not None:
            self.tracer.end()
        self.units.append(elapsed)

    def abandon(self, exc: BaseException) -> None:
        """A unit raised: one failed operation, and no unit time."""
        self.check(False, f"unit raised {exc!r}")
        if self.tracer is not None and self.tracer.open:
            self.tracer.end()

    def op(self, kind: str, seconds: float) -> None:
        """A latency of the unit last started (its checks may record it
        after the clock has stopped)."""
        self.unit_ops[-1][kind].append(seconds)

    def ops(self, kind: str) -> List[float]:
        """Every latency of one kind, over all units."""
        return [seconds for unit in self.unit_ops
                for seconds in unit.get(kind, ())]

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


#: The ``Session.<name>_statistics()`` accessors read for layer counters.
_SESSION_COUNTERS = ("join", "plan", "maintenance", "columnar", "storage")


class Workload:
    """Base class: session bookkeeping shared by all workloads."""

    name = ""
    #: Seconds one timed unit took on the box the benchmark was sized on
    #: (README, "Sizing"). A run of S seconds is S / unit_seconds units —
    #: a fixed amount of work, so that runs are comparable in memory and in
    #: how warm they are, and a faster engine ends sooner rather than
    #: measuring more — but never fewer than ``run.MIN_UNITS``.
    unit_seconds = 1.0
    #: What the timed unit is, for the README and the spans file.
    unit_is = ""
    #: The end-to-end metrics, beyond ``ALWAYS_NATIVE``, whose operation
    #: this workload performs. Every run must report every end-to-end
    #: metric; the others are stand-ins that read the timed unit, and
    #: ``run.py`` marks them so that no reader or gate takes them for what
    #: their name says.
    native: FrozenSet[str] = frozenset()

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        #: A directory of the run's own, for workloads that store on disk.
        self.scratch = scratch
        self.session = None
        self._retired: Counter = Counter()
        #: (bytes, rows) of the base relations as the engine holds them in
        #: memory, by ``Session.statistics()``.
        self.stored: Tuple[int, int] = (0, 0)
        #: Layer inputs only some workloads have: checkpoint bytes written
        #: in a unit, the user's rows as text bytes, and the (submitted,
        #: resolved) clock readings of every server read.
        self.checkpoint_bytes = self.user_bytes = 0
        self.read_windows: List[Tuple[float, float]] = []

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, rec: Recorder) -> bool:
        """Run one timed unit; False when the script has run out."""
        raise NotImplementedError

    def finish(self, rec: Recorder) -> None:
        self._retire()

    def bytes_per_row(self) -> float:
        """Bytes the engine holds per row of base data: on disk where the
        workload stores them there, else (a stand-in) in memory."""
        if self.session is not None:
            self._measure_stored()
        held, rows = self.stored
        return held / rows

    # -- engine counters ----------------------------------------------------

    def counters(self) -> Counter:
        """Cumulative ``*_statistics()`` counters of every session this
        workload has used, keyed ``"<accessor>.<counter>"``."""
        total = Counter(self._retired)
        if self.session is not None:
            total.update(_session_counters(self.session))
        return total

    def _retire(self) -> None:
        """Close the current session and let go of it, keeping its
        counters (five dict copies, ~20 us)."""
        session, self.session = self.session, None
        if session is not None:
            session.close()
            self._retired.update(_session_counters(session))

    def _measure_stored(self) -> None:
        """Size the current session's base relations. Never inside a timed
        unit: the first ``Session.statistics()`` of a session walks every
        row."""
        sizes = [entry for name, entry in self.session.statistics().items()
                 if name != "interner"]
        self.stored = (sum(e["approx_bytes"] for e in sizes),
                       sum(e["rows"] for e in sizes))


def _session_counters(session) -> Counter:
    found: Counter = Counter()
    for prefix in _SESSION_COUNTERS:
        for key, value in getattr(session, f"{prefix}_statistics")().items():
            found[f"{prefix}.{key}"] = value
    return found


# -- batch workloads: one cold pass per unit ---------------------------------


class _ColdPass(Workload):
    """connect -> define -> load -> read every result, from nothing, once
    per unit; every result is digested and compared after the clock stops."""

    rules = ""
    load_stdlib = False
    unit_is = "one cold pass: connect, define, load, read every result"

    def build(self) -> Tuple[Dict[str, list], Dict[str, Iterable[tuple]]]:
        """(base relations, query -> oracle rows)."""
        raise NotImplementedError

    def read(self, session, query: str):
        return session.relation(query)

    def setup(self) -> None:
        self.base, expected = self.build()
        self.expected = {query: oracles.digest(rows)
                         for query, rows in expected.items()}
        # The warm-up pass: first-use costs (lazy imports, the string
        # interner, numpy's own set-up) belong to set-up, not to a pass.
        self.unit(Recorder())

    def unit(self, rec: Recorder) -> bool:
        rec.start()
        self.session = session = connect(load_stdlib=self.load_stdlib)
        for name, rows in self.base.items():
            session.define(name, rows)
        if self.rules:
            session.load(self.rules)
        results = {query: self.read(session, query)
                   for query in self.expected}
        sizes = {query: len(result) for query, result in results.items()}
        rec.stop()
        for query, result in results.items():
            want = self.expected[query]
            rec.check(sizes[query] == want[0]
                      and oracles.digest(result) == want, f"{query} rows")
        self._measure_stored()
        self._retire()
        return True


class _Closure(_ColdPass):
    """Right-linear transitive closure of one generated graph."""

    rules = """
def Path(x, y) : E(x, y)
def Path(x, y) : exists((z) | E(x, z) and Path(z, y))
"""
    graph = None

    def build(self):
        edges = self.graph(self.seed)
        return {"E": edges}, {"Path": oracles.closure(edges)}


class TcWide(_Closure):
    name = "tc_wide"
    unit_seconds = 0.65
    graph = staticmethod(inputs.hub_graph)


class TcDeep(_Closure):
    name = "tc_deep"
    unit_seconds = 1.4
    graph = staticmethod(inputs.chain_graph)


class ApspMin(_ColdPass):
    name = "apsp_min"
    unit_seconds = 2.7
    load_stdlib = True

    def build(self):
        vertices, edges = inputs.random_digraph(self.seed)
        return ({"V": [(v,) for v in vertices], "E": edges},
                {"APSP[V, E]": oracles.shortest_paths(vertices, edges)})

    def read(self, session, query):
        return session.execute(query)


class JoinsCyclic(_ColdPass):
    name = "joins_cyclic"
    unit_seconds = 0.35
    rules = """
def Triangle(a, b, c) : E(a, b) and E(b, c) and E(a, c)
def Clique4(a, b, c, d) :
    E(a, b) and E(a, c) and E(a, d) and E(b, c) and E(b, d) and E(c, d)
def Wedge(a, b, c) : E(a, b) and E(b, c)
def HubTriangle(a, b, c) : H(a, b) and H(b, c) and H(a, c)
"""

    def build(self):
        skewed = inputs.scale_free_graph(self.seed)
        hub = inputs.agm_hub_graph(self.seed)
        return ({"E": skewed, "H": hub},
                {"Triangle": oracles.triangles(skewed),
                 "Clique4": oracles.cliques4(skewed),
                 "Wedge": oracles.wedges(skewed),
                 "HubTriangle": oracles.triangles(hub)})


# -- maintain_mix -------------------------------------------------------------


class MaintainMix(Workload):
    name = "maintain_mix"
    native = frozenset({"insert_p50_ms", "delete_p50_ms"})
    unit_seconds = 1.4
    #: Insert/delete pairs per timed unit.
    block_pairs = 10
    unit_is = ("a block of 10 point inserts alternating with 10 point "
               "deletes, each followed by len(relation('Uses'))")
    rules = """
def Uses(x, y) : Dep(x, y)
def Uses(x, y) : exists((z) | Dep(x, z) and Uses(z, y))
"""

    def setup(self) -> None:
        self._retire()
        given = inputs.layered_dag(self.seed)
        self.script = given.script
        # Expected size of the view after every step of the script.
        self.sizes = [oracles.dag_closure_size(live)
                      for live in self._states(given.edges, self.script)]
        self.initial = given.edges
        self.done = 0
        self.session = session = connect(load_stdlib=False)
        session.define("Dep", given.edges)
        session.load(self.rules)
        if len(session.relation("Uses")) != \
                oracles.dag_closure_size(given.edges):
            raise AssertionError("Uses is wrong before the first update")

    @staticmethod
    def _states(edges, script):
        """The edge set after each step of ``script`` (one set, mutated)."""
        live = set(edges)
        for kind, edge in script:
            (live.add if kind == "insert" else live.discard)(edge)
            yield live

    def unit(self, rec: Recorder) -> bool:
        steps = self.script[self.done:self.done + 2 * self.block_pairs]
        if not steps:
            return False
        session = self.session
        seen: List[int] = []
        rec.start()
        for kind, edge in steps:
            began = clock()
            if kind == "insert":
                session.insert("Dep", [edge])
            else:
                session.delete("Dep", [edge])
            seen.append(len(session.relation("Uses")))
            rec.op(kind, clock() - began)
        rec.stop()
        for offset, ((kind, edge), size) in enumerate(zip(steps, seen)):
            rec.check(size == self.sizes[self.done + offset],
                      f"|Uses| after {kind} {edge}")
        self.done += len(steps)
        return True

    def finish(self, rec: Recorder) -> None:
        *_, live = self._states(self.initial, self.script[:self.done])
        rec.check(oracles.digest(self.session.relation("Uses"))
                  == oracles.digest(oracles.closure(sorted(live))),
                  "Uses rows after the script")
        self._retire()


# -- durable_cycle ------------------------------------------------------------


def _directory_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class DurableCycle(Workload):
    name = "durable_cycle"
    native = frozenset({"write_p50_ms", "ingest_rows_per_s", "checkpoint_s",
                        "reopen_s", "disk_bytes_per_row"})
    unit_seconds = 1.1
    unit_is = ("one cycle in a fresh directory: bulk-load, 3 x (checkpoint, "
               "30 point inserts each followed by sync), close, 5 "
               "reopen-and-read")
    rules = "def Deg(x) : exists((y) | E(x, y))\n"
    checkpoint_after = 30
    reopens = 5
    #: Rows of one ``bulk_load`` of events, which ``ingest_rows_per_s`` times.
    batch_rows = inputs.EVENT_ROWS // inputs.EVENT_BATCHES

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.cycles = 0
        #: Set by each cycle: bytes on disk after close, and rows they hold.
        self.disk_bytes = self.disk_rows = 0

    def bytes_per_row(self) -> float:
        return self.disk_bytes / self.disk_rows

    def setup(self) -> None:
        self.given = given = inputs.durable_rows(self.seed)
        events = [row for batch in given.event_batches for row in batch]
        self.want_events = oracles.digest(events)
        self.want_edges = oracles.digest(given.edges + given.inserts)
        self.want_sources = oracles.sources(given.edges + given.inserts)
        self.user_bytes = oracles.user_bytes(events) \
            + oracles.user_bytes(given.edges + given.inserts)

    def _open(self, path: Path):
        return connect(path=path, load_stdlib=False, fsync="batch",
                       checkpoint_every=0, schema=self.rules)

    def unit(self, rec: Recorder) -> bool:
        self.cycles += 1
        path = self.scratch / f"durable-{self.cycles}"
        path.mkdir(parents=True)
        try:
            self._cycle(rec, path)
        finally:
            self._retire()
            shutil.rmtree(path, ignore_errors=True)
        return True

    def _cycle(self, rec: Recorder, path: Path) -> None:
        """One cycle. Between ``rec.start()`` and ``rec.stop()`` the
        benchmark does nothing of its own but read the clock, keep what the
        engine returned, copy the counters of a closed session (~20 us)
        and stat the checkpoint files (~0.1 ms of ~1 s: the next checkpoint
        deletes them); every check and every costly reading waits until
        the clock has stopped."""
        given = self.given
        rec.start()
        self.session = session = self._open(path)
        loaded = []
        for batch in given.event_batches:
            began = clock()
            loaded.append(session.bulk_load("Events", batch))
            rec.op("ingest", clock() - began)
        session.bulk_load("E", given.edges)
        degrees = len(session.relation("Deg"))
        checkpoint_bytes = 0
        for i, edge in enumerate(given.inserts):
            if i % self.checkpoint_after == 0:
                # Before each thirty, not after them: the last thirty stay
                # in the log, so every reopen replays a WAL tail.
                began = clock()
                session.checkpoint()
                rec.op("checkpoint", clock() - began)
                checkpoint_bytes += sum(
                    f.stat().st_size for f in path.glob("checkpoint-*.ckpt"))
            # Acknowledged means durable: under fsync="batch" the insert
            # only reaches the OS, so each write ends with the barrier.
            began = clock()
            session.insert("E", [edge])
            session.sync()
            rec.op("write", clock() - began)
        # Closed and let go before the first reopen, as an application
        # would: held any longer it would sit in peak_rss_mb.
        self._retire()
        del session
        seen = []
        for _ in range(self.reopens):
            began = clock()
            with self._open(path) as again:
                seen.append((len(again.relation("Events")),
                             len(again.relation("E")),
                             len(again.relation("Deg"))))
            rec.op("reopen", clock() - began)
            self._retired.update(_session_counters(again))
        del again
        rec.stop()
        want = (self.want_events[0], self.want_edges[0],
                len(self.want_sources))
        checks: List[Tuple[bool, str]] = [
            (loaded == [len(batch) for batch in given.event_batches],
             "bulk_load Events"),
            (degrees == len(oracles.sources(given.edges)), "Deg after load"),
            (self._retired["storage.checkpoints"] == self.cycles
             * (len(given.inserts) // self.checkpoint_after),
             "checkpoints counted")]
        checks.extend((sizes == want, "sizes after reopen") for sizes in seen)
        self.disk_bytes = _directory_bytes(path)
        # Every bulk row and every acknowledged insert, after a last reopen.
        with self._open(path) as session:
            checks.append((oracles.digest(session.relation("Events"))
                           == self.want_events, "Events rows after reopen"))
            stored = session.relation("E")
            checks.extend((edge in stored, f"acknowledged insert {edge}")
                          for edge in given.inserts)
            checks.append((oracles.digest(stored) == self.want_edges,
                           "E rows after reopen"))
            checks.append(({row[0] for row in session.relation("Deg")}
                           == self.want_sources, "Deg rows after reopen"))
        for ok, what in checks:
            rec.check(ok, what)
        self.disk_rows = self.want_events[0] + self.want_edges[0]
        self.checkpoint_bytes = checkpoint_bytes


# -- orders_serve -------------------------------------------------------------

_ORDER_RULES = """
def Ord(x) : OrderProductQuantity(x, _, _)
def OrderPaymentAmount(x, y, z) : PaymentOrder(y, x) and PaymentAmount(y, z)
def OrderPaid[x in Ord] : sum[OrderPaymentAmount[x]] <++ 0
def OrderLineTotal(o, p, t) : exists((q, pr) |
    OrderProductQuantity(o, p, q) and ProductPrice(p, pr) and t = q * pr)
def OrderTotal[o in Ord] : sum[OrderLineTotal[o]]
def Unpaid(o) : exists((paid, total) |
    OrderPaid(o, paid) and OrderTotal(o, total) and paid < total)
"""
_Q_TOTAL = "OrderTotal[o]"
_Q_UNPAID = "(o, t) : OrderCustomer(o, c) and Unpaid(o) and t = OrderTotal[o]"
_PAYMENT = """
def insert(:PaymentOrder, p, o) : p = "{payment}" and o = "{order}"
def insert(:PaymentAmount, p, a) : p = "{payment}" and a = {amount}
"""


class OrdersServe(Workload):
    name = "orders_serve"
    native = frozenset({"ops_per_s", "read_p50_ms", "read_p90_ms",
                        "write_p50_ms"})
    unit_seconds = 0.25
    #: Reader threads of the server. One client drives it: with a second
    #: one, every read runs beside the other client's 0.4-s transaction and
    #: its latency is the interpreter lock's hand-over, 0.06 ms or 5 ms as
    #: the host schedules the threads, which is not the engine's to change.
    threads = 2
    unit_is = ("one block of the closed loop of 1 client: 50 ops (34 point "
               "reads, 15 ad-hoc joins, 1 payment transaction)")

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.server = None

    def setup(self) -> None:
        self._close()
        given = inputs.orders_database(self.seed)
        self.script = given.script
        self.book = oracles.OrderBook(given.base)
        self.done = 0
        self.session = session = connect()
        for name, rows in given.base.items():
            session.define(name, rows)
        session.load(_ORDER_RULES)
        if set(session.relation("Unpaid")) != self.book.unpaid():
            raise AssertionError("Unpaid is wrong before the first write")
        self.server = server = QueryServer(session, threads=self.threads)
        some_order, some_customer = given.base["OrderCustomer"][0]
        server.submit(_Q_TOTAL, {"o": some_order}).result()
        server.submit(_Q_UNPAID, {"c": some_customer}).result()

    def unit(self, rec: Recorder) -> bool:
        ops = self.script[self.done:self.done + inputs.WRITE_EVERY]
        if not ops:
            return False
        self.done += len(ops)
        server = self.server
        log = []
        rec.start()
        for op in ops:
            began = clock()
            try:
                if op.kind == "total":
                    seen = server.submit(_Q_TOTAL, {"o": op.key}).result()
                elif op.kind == "unpaid":
                    seen = server.submit(_Q_UNPAID, {"c": op.key}).result()
                else:
                    seen = server.transact(_PAYMENT.format(
                        payment=op.key, order=op.order,
                        amount=op.amount)).result()
            except Exception as exc:  # a failed operation, not a crash
                seen = exc
            log.append((op, began, clock(), seen))
        rec.stop()
        self._check(rec, log)
        return True

    def _check(self, rec: Recorder, log: list) -> None:
        """Every read exactly: the one client waits for each payment to be
        acknowledged, so a read sees all the payments before it in the
        script and none after."""
        book = self.book
        for op, began, ended, seen in log:
            if isinstance(seen, Exception):
                rec.check(False, f"{op.kind} raised {seen!r}")
            elif op.kind == "pay":
                rec.op("write", ended - began)
                rec.check(seen.committed, f"payment {op.key}")
                book.pay(op.order, op.amount)
                continue
            else:
                rec.op("read", ended - began)
                self.read_windows.append((began, ended))
            if op.kind == "total":
                rec.check(set(seen) == {(book.total[op.key],)},
                          f"OrderTotal[{op.key}]")
            elif op.kind == "unpaid":
                rec.check(set(seen) == book.unpaid_of(op.key),
                          f"unpaid of {op.key}")

    def counters(self) -> Counter:
        total = super().counters()
        if self.server is not None:
            for key, value in self.server.statistics().items():
                total[f"server.{key}"] = value
        return total

    def finish(self, rec: Recorder) -> None:
        self.server.flush()
        rec.check(set(self.session.relation("OrderPaid"))
                  == self.book.order_paid(), "OrderPaid after flush")
        rec.check(set(self.session.relation("Unpaid"))
                  == self.book.unpaid(), "Unpaid after flush")
        self._close()

    def _close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        self._retire()


def registry() -> Dict[str, Type[Workload]]:
    """name -> workload class, in the manifest's order."""
    return {cls.name: cls for cls in (TcWide, TcDeep, ApspMin, JoinsCyclic,
                                      MaintainMix, DurableCycle, OrdersServe)}
