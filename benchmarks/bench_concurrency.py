"""B7 — concurrent serving: snapshot reads scale across server threads.

Paper claim (Sections 1, 6): Rel is the language of a relational
knowledge-graph *system* — one shared database serving many concurrent
users. PR 5 adds the serving substrate: copy-on-write snapshots (readers
never block on writers, never see a half-applied transaction) and a
thread-pool :class:`repro.server.QueryServer` front end over one Session.

What the gate measures — and what it honestly can and cannot show on this
container: the benchmark box is a **single-CPU CPython build with the
GIL**, so pure-Python compute cannot run in parallel no matter how the
engine is structured. A real server's concurrency win on such a box comes
from *overlapping per-request latency* (network writes, response
serialization, client think time), which is what ``IO_DELAY_S`` models:
each request evaluates a prepared query against the shared warm snapshot
and then spends a few milliseconds of simulated response I/O in its worker
thread. The gated claim — 4 reader threads ≥ 2x the single-thread
throughput — therefore verifies the property that matters and that a
naive implementation would break: **the read path holds no global lock
across a request**. If snapshot reads serialized on the session's write
lock (the pre-PR-5 architecture), the ratio would pin to ~1x regardless
of I/O. A separate (ungated) series reports the pure-CPU ratio for
transparency, and a writer-interference check pins that a firehose of
concurrent writes neither blocks readers nor leaks half-applied states.

Run with:  pytest benchmarks/bench_concurrency.py -q --benchmark-disable
"""

import threading
import time

import pytest

from support import oracles

from repro import Relation, connect
from repro.server import QueryServer

#: Simulated per-request response latency (client/network side), seconds.
IO_DELAY_S = 0.003

N_REQUESTS = 120

RULES = """
    def Path(x, y) : E(x, y)
    def Path(x, y) : exists((z) | E(x, z) and Path(z, y))
"""

CHAIN_N = 60


@pytest.fixture(autouse=True)
def delta_maintenance():
    """Writes here always take delta maintenance; server threads share the
    process, so the oracle holds for each whole test."""
    with oracles.always_delta():
        yield


def serving_session():
    """A warm session over a 60-node chain closure, with the warm state
    already published as a snapshot (the steady-state of a server)."""
    session = connect(load_stdlib=False)
    session.define("E", [(i, i + 1) for i in range(1, CHAIN_N)])
    session.load(RULES)
    session.relation("Path")   # materialize + warm the plan/index caches
    session.snapshot()         # publish the warm state
    return session


def read_throughput(session, threads, n_requests=N_REQUESTS,
                    io_delay=IO_DELAY_S):
    """Requests/second for a prepared point-lookup workload: each request
    evaluates ``Path[k]`` against the current snapshot and then spends
    ``io_delay`` of simulated response I/O in its worker thread."""
    queries = [f"Path[{1 + (i % (CHAIN_N - 1))}]" for i in range(n_requests)]
    respond = (lambda _result: time.sleep(io_delay)) if io_delay else None
    with QueryServer(session, threads=threads) as server:
        for query in queries[:CHAIN_N - 1]:
            server._node(query)  # parse outside the timed window
        start = time.perf_counter()
        futures = [server.submit(query, on_result=respond)
                   for query in queries]
        results = [future.result() for future in futures]
        elapsed = time.perf_counter() - start
    return n_requests / elapsed, results


# -- gated shapes -----------------------------------------------------------


def test_shape_4_thread_read_throughput_at_least_2x():
    """The headline gate: with the shared plan cache warm, 4 reader
    threads serve ≥2x the single-thread request throughput (see the module
    docstring for exactly what this does and does not claim on a 1-CPU
    GIL box)."""
    session = serving_session()
    read_throughput(session, 1, n_requests=20)  # warm both code paths
    thr_1, results_1 = read_throughput(session, 1)
    thr_4, results_4 = read_throughput(session, 4)
    assert results_1 == results_4
    assert (CHAIN_N,) in results_1[0]
    assert thr_4 >= 2.0 * thr_1, (
        f"expected ≥2x read scaling from 1 → 4 threads, got "
        f"{thr_1:.0f} rps → {thr_4:.0f} rps ({thr_4 / thr_1:.2f}x)"
    )


def test_shape_readers_make_progress_during_write_firehose():
    """Readers never block on writers: while a writer streams 40 updates
    through the engine's maintenance path, concurrent snapshot reads keep
    completing, and every observed result is a fully-applied state (the
    closure of one published prefix of the writes)."""
    session = serving_session()
    valid = set()
    edges = Relation([(i, i + 1) for i in range(1, CHAIN_N)])
    extra = []

    def closure_of(edge_list):
        oracle = connect(load_stdlib=False)
        oracle.define("E", edges.union(Relation(edge_list)))
        oracle.load(RULES)
        return oracle.execute("Path[1]")

    valid.add(closure_of([]))
    with QueryServer(session, threads=4) as server:
        stop = threading.Event()

        def writer():
            for i in range(40):
                extra.append((1, 200 + i))
                # The post-state enters `valid` *before* it is published,
                # so a fast reader can never observe an unlisted state.
                valid.add(closure_of(extra))
                session.insert("E", [extra[-1]])
            stop.set()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        served = 0
        while not stop.is_set() or served < 30:
            result = server.submit("Path[1]").result()
            assert result in valid, "reader observed a half-applied state"
            served += 1
            if served >= 400:  # pragma: no cover - watchdog
                break
        writer_thread.join()
    assert served >= 30


def test_shape_pure_cpu_ratio_reported():
    """Transparency series (not gated): the same workload with zero
    simulated I/O. On a single-CPU GIL build this hovers around 1x — the
    engine cannot conjure CPU parallelism out of threads, and the
    assertion only pins that threading adds no pathological slowdown."""
    session = serving_session()
    thr_1, _ = read_throughput(session, 1, io_delay=0.0)
    thr_4, _ = read_throughput(session, 4, io_delay=0.0)
    assert thr_4 >= 0.4 * thr_1, (
        f"4-thread pure-CPU throughput collapsed: {thr_1:.0f} rps → "
        f"{thr_4:.0f} rps"
    )


def test_shape_write_coalescing_counts():
    """A burst of queued writes commits in fewer batches than ops (the
    write queue coalesces through one maintenance pass per drain)."""
    session = serving_session()
    with QueryServer(session, threads=2) as server:
        futures = [server.insert("E", [(300 + i, 301 + i)])
                   for i in range(30)]
        for future in futures:
            future.result()
        stats = server.statistics()
    assert stats["write_ops"] >= 30
    assert stats["write_batches"] < stats["write_ops"]
    assert stats["coalesced_ops"] > 0
    assert (300, 301) in session.relation("E")


# -- timing series (pytest-benchmark) ---------------------------------------


@pytest.mark.parametrize("threads", [1, 2, 4], ids=["t1", "t2", "t4"])
def test_read_throughput_series(benchmark, bench_rounds, threads):
    session = serving_session()
    read_throughput(session, threads, n_requests=20)
    benchmark.pedantic(
        lambda: read_throughput(session, threads, n_requests=60),
        **bench_rounds)
