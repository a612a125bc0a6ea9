"""Randomized concurrency stress: snapshot reads vs. a live writer.

The harness of the PR-5 tentpole: N reader threads run queries against
:meth:`Session.snapshot` views while a writer applies a seeded
insert/delete script. Every observation is recorded as ``(snapshot
version, query, result)``; after the interleaving, each one is checked
against a **from-scratch oracle** — a fresh session built from the exact
base state the writer had published at that version, with no write after
it first evaluates. A snapshot opened mid-write-burst must therefore
match a full rebuild of its generation vector, bit for bit.

Thread count comes from ``REPRO_STRESS_THREADS`` (default 4); CI runs the
suite a second time with it forced to 8.
"""

import contextlib
import os
import random
import threading

import pytest

from support import oracles
from support.generators import random_update_op

from repro import Relation, connect

THREADS = int(os.environ.get("REPRO_STRESS_THREADS", "4"))

# Stdlib-free catalog (cheap sessions: the oracle rebuilds one per
# observed version): recursion, negation, comparison, and a mixed join.
RULES = """
    def Path(x, y) : E(x, y)
    def Path(x, y) : exists((z) | E(x, z) and Path(z, y))
    def Reach(x) : S(x)
    def Reach(y) : exists((x) | Reach(x) and E(x, y))
    def Lonely(x) : V(x) and not Path(x, x)
    def Big(x) : V(x) and x > 5
    def Both(x, y) : E(x, y) and Path(y, x)
"""

BASE = {
    "E": [(1, 2), (2, 3)],
    "S": [(1,)],
    "V": [(i,) for i in range(1, 8)],
}

ARITIES = {"E": 2, "S": 1, "V": 1}

QUERIES = ["Path", "Path[1]", "Reach", "Lonely", "Big", "Both"]


@pytest.fixture
def hold():
    """An exit stack open for the whole test: an oracle entered on it
    covers every thread the test starts (a patch is process-wide)."""
    with contextlib.ExitStack() as stack:
        yield stack


def make_session(**kwargs):
    session = connect(load_stdlib=False, **kwargs)
    for name, tuples in BASE.items():
        session.define(name, tuples)
    session.load(RULES)
    return session


def oracle_session(base):
    """A genuinely fresh from-scratch evaluation of one base state: every
    write precedes the first read, so nothing is maintained."""
    session = connect(load_stdlib=False)
    for name, rel in base.items():
        session.define(name, rel)
    session.load(RULES)
    return session


class TestRandomizedStress:
    @pytest.mark.parametrize("seed", range(30))
    def test_snapshot_reads_match_generation_oracle(self, seed, hold):
        rng = random.Random(seed)
        if rng.choice(["delta", "auto"]) == "delta":
            hold.enter_context(oracles.always_delta())
        session = make_session()
        session.relation("Path")  # materialize before the burst
        session.snapshot()        # switch on eager publication

        # The writer's script, and a mirror of the base state per
        # published version (the oracle input for that generation vector).
        ops = [random_update_op(rng, ARITIES, domain=(1, 9))
               for _ in range(12)]
        mirror = {name: Relation(tuples) for name, tuples in BASE.items()}
        states = {session.version: dict(mirror)}

        observations = []
        obs_lock = threading.Lock()
        stop = threading.Event()
        errors = []

        def reader(tid):
            thread_rng = random.Random(seed * 1000 + tid)
            try:
                while True:
                    snapshot = session.snapshot()
                    query = thread_rng.choice(QUERIES)
                    result = snapshot.execute(query)
                    with obs_lock:
                        observations.append((snapshot.version, query, result))
                    if stop.is_set():
                        return
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(tid,))
                   for tid in range(THREADS)]
        for thread in threads:
            thread.start()
        try:
            for kind, name, tuples in ops:
                getattr(session, kind)(name, tuples)
                delta = Relation(tuples)
                mirror[name] = (mirror[name].union(delta) if kind == "insert"
                                else mirror[name].difference(delta))
                states[session.version] = dict(mirror)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors, errors
        assert observations, "readers never ran"

        # Distinct results per (version, query) must be unique AND equal
        # the from-scratch rebuild of that version's base state.
        seen = {}
        for version, query, result in observations:
            seen.setdefault(version, {}).setdefault(query, set()).add(result)
        assert set(seen) <= set(states)
        for version in sorted(seen):
            oracle = oracle_session(states[version])
            for query, results in seen[version].items():
                want = oracle.execute(query)
                assert len(results) == 1, \
                    (seed, version, query, "non-deterministic snapshot read")
                assert next(iter(results)) == want, (seed, version, query)

    def test_concurrent_direct_writers_are_serialized(self, hold):
        """Direct Session writes from many threads: no lost updates, and
        the final closure equals the from-scratch evaluation."""
        hold.enter_context(oracles.always_delta())
        session = make_session()
        session.relation("Path")

        def writer(base):
            for i in range(10):
                session.insert("E", [(base + i, base + i + 1)])

        threads = [threading.Thread(target=writer, args=(100 * (tid + 1),))
                   for tid in range(max(THREADS, 2))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = Relation(BASE["E"]).union(Relation(
            [(100 * (tid + 1) + i, 100 * (tid + 1) + i + 1)
             for tid in range(max(THREADS, 2)) for i in range(10)]))
        assert session.relation("E") == expected
        oracle = oracle_session({**{n: Relation(t) for n, t in BASE.items()},
                                 "E": expected})
        assert session.relation("Path") == oracle.relation("Path")


class TestSnapshotIsolation:
    def test_pinned_snapshot_survives_writes_and_rule_changes(self):
        session = make_session()
        pinned = session.snapshot()
        before = pinned.execute("Path")
        session.insert("E", [(3, 4), (4, 5)])
        session.delete("E", [(1, 2)])
        session.load("def Path(x, y) : V(x) and V(y)")
        assert pinned.execute("Path") == before
        assert pinned.relation("E") == Relation(BASE["E"])
        fresh = session.snapshot()
        assert fresh.version > pinned.version
        assert fresh.execute("Path") != before

    def test_snapshot_is_shared_between_writes(self):
        session = make_session()
        assert session.snapshot() is session.snapshot()
        session.insert("E", [(8, 9)])
        assert session.snapshot() is not None

    def test_snapshot_rejects_writes(self):
        from repro.engine.snapshot import SnapshotWriteError

        snapshot = make_session().snapshot()
        with pytest.raises(SnapshotWriteError):
            snapshot.program.define("E", Relation([(1, 1)]))
        with pytest.raises(SnapshotWriteError):
            snapshot.program.add_source("def X(x) : V(x)")

    def test_transactions_are_atomic_to_readers(self):
        """Readers polling during a burst of two-row transactions must
        always see an even number of P rows: both inserts or neither."""
        session = make_session()
        session.define("P", [])
        session.snapshot()
        odd_sightings = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                count = len(session.snapshot().relation("P"))
                if count % 2:
                    odd_sightings.append(count)

        threads = [threading.Thread(target=reader) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        try:
            for k in range(12):
                session.transact(
                    f"def insert(:P, x, y) : x = {k} and y = {k + 100}\n"
                    f"def insert(:P, x, y) : x = {k} and y = {k + 200}"
                )
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not odd_sightings, odd_sightings
        assert len(session.relation("P")) == 24


class TestQueryServerStress:
    def test_server_reads_during_write_burst(self, hold):
        """Pool reads racing a writer thread: every result must equal the
        oracle of one *published* version (never a half-applied state)."""
        hold.enter_context(oracles.always_delta())
        session = make_session(threads=THREADS)
        session.relation("Path")
        server = session.server

        mirror = {name: Relation(tuples) for name, tuples in BASE.items()}
        valid = [oracle_session(dict(mirror)).execute("Path")]

        def writer():
            current = mirror["E"]
            for i in range(15):
                delta = Relation([(20 + i, 21 + i)])
                session.insert("E", delta)
                current = current.union(delta)
                valid.append(oracle_session({**mirror, "E": current})
                             .execute("Path"))

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        futures = [server.submit("Path") for _ in range(40)]
        results = [future.result() for future in futures]
        writer_thread.join()
        session.close()
        allowed = set(valid)
        for result in results:
            assert result in allowed, sorted(result.sorted_tuples())

    def test_serve_thread_count_mismatch_raises(self):
        """One server per session: a different thread count must be an
        explicit error, never a silently wrong-sized pool."""
        session = make_session()
        server = session.serve(2)
        with pytest.raises(ValueError):
            session.serve(3)
        assert session.serve(2) is server
        session.close()
        replacement = session.serve(3)
        assert replacement.threads == 3
        session.close()

    def test_close_never_drops_accepted_writes(self):
        """Every write accepted before close() resolves its future (the
        close sentinel is gated behind the enqueue lock)."""
        session = make_session(threads=2)
        server = session.server
        futures = [server.insert("E", [(400 + i, 401 + i)])
                   for i in range(20)]
        server.close()
        for future in futures:
            assert future.result(timeout=10) is None
        assert (400, 401) in session.relation("E")
        from repro.server import ServerClosedError
        with pytest.raises(ServerClosedError):
            server.insert("E", [(1, 1)])

    def test_server_write_queue_preserves_order_and_coalesces(self):
        session = make_session(threads=2)
        server = session.server
        server.insert("E", [(50, 51)])
        server.insert("E", [(51, 52)])
        server.delete("E", [(50, 51)])
        last = server.insert("E", [(52, 53)])
        last.result()
        assert (50, 51) not in session.relation("E")
        assert (51, 52) in session.relation("E")
        assert (52, 53) in session.relation("E")
        session.close()
