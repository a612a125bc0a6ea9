"""Record the gated benchmark timings to BENCH_pr10.json.

The perf trajectory: each PR that claims a gated speedup appends a
machine-readable snapshot (started at PR 4, extended per PR since) so
future PRs can regress-check against recorded ratios instead of
re-deriving them from prose. Run from the repo root:

    PYTHONPATH=src python benchmarks/record_trajectory.py

CI runs this on every push and uploads the JSON as an artifact; the
committed copy is the reference snapshot from the PR that introduced each
gate. Gates recorded:

- ``plan_reuse_fixpoint``       — PR 4: compiled plans vs. interpretation
  on a deep reachability fixpoint (floor 2x);
- ``wcoj_hub_engine``           — PR 2: WCOJ conjunction routing vs. the
  per-conjunct fallback on the hub graph (floor 2x);
- ``incremental_insert``        — PR 3: delta maintenance vs. recompute
  for point inserts (floor 10x);
- ``incremental_delete``        — PR 3: DRed vs. recompute for point
  deletes (floor 3x);
- ``session_reuse``             — PR 1: warm session vs. cold program per
  update (floor 5x);
- ``concurrency_read_scaling``  — PR 5: 4 snapshot-reader threads vs. 1 on
  a prepared-query serving workload with per-request response latency
  (floor 2x; the ungated pure-CPU ratio rides along as ``extra`` — see
  benchmarks/bench_concurrency.py for what the gate does and does not
  claim on a single-CPU GIL box);
- ``bulk_ingest``               — PR 6: one-record bulk load vs. per-op
  inserts for the same rows (floor 5x);
- ``checkpoint_reopen``         — PR 6: recovery from a snapshot
  checkpoint vs. replaying the equivalent WAL tail (floor 10x);
- ``columnar_hub_tc``           — PR 7: columnar data plane vs. the
  interpreted row plane on hub-graph transitive closure at 10x the B1
  sizes (floor 3x);
- ``budget_overhead``           — PR 9: the hub TC evaluated under a
  generous-but-armed EvalBudget vs. unbudgeted — resource governance is
  an *overhead* gate, so the floor is 0.95x (at most ~5% cost for the
  deadline/row/iteration accounting), with the observed abort latency of
  a 50 ms deadline riding along as ``extra``.

The snapshot also carries an ungated ``scaled`` section: one-shot
timings of the B1/E12/E13 workloads at 10x their benchmark sizes
(chain/random TC, PageRank, APSP), recorded for trajectory tracking
only — no floors, no pass/fail.
"""

import json
import platform
import sys
import time
from pathlib import Path


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def gate(name, baseline_s, optimized_s, floor, extra=None):
    entry = {
        "name": name,
        "baseline_s": round(baseline_s, 4),
        "optimized_s": round(optimized_s, 4),
        "speedup": round(baseline_s / optimized_s, 2),
        "floor": floor,
        "passed": baseline_s / optimized_s >= floor,
    }
    if extra:
        entry.update(extra)
    return entry


def plan_reuse_gate():
    from bench_plan_cache import reach

    t_interp, (r_interp, _) = timed(lambda: reach(False))
    t_plans, (r_plans, program) = timed(lambda: reach(True))
    assert r_plans == r_interp
    stats = program.plan_statistics()
    return gate("plan_reuse_fixpoint", t_interp, t_plans, 2.0,
                {"plan_statistics": stats})


def wcoj_gate():
    from bench_wcoj import HUB, _session

    routed = _session("auto", HUB)
    fallback = _session("off", HUB)
    t_routed, r1 = timed(lambda: routed.relation("Triangle"))
    t_fallback, r2 = timed(lambda: fallback.relation("Triangle"))
    assert r1 == r2
    return gate("wcoj_hub_engine", t_fallback, t_routed, 2.0)


def incremental_gates():
    from bench_incremental import (delete_loop, insert_loop, leaf_edges,
                                   warm_session)

    # Sessions are warmed (stdlib parse + first fixpoint) outside the
    # timers — the gates measure the update loops, as in bench_incremental.
    delta_ins = warm_session("delta")
    rec_ins = warm_session("recompute")
    t_delta_ins, sizes_a = timed(lambda: insert_loop(delta_ins))
    t_rec_ins, sizes_b = timed(lambda: insert_loop(rec_ins))
    assert sizes_a == sizes_b
    delta_del = warm_session("delta", extra=leaf_edges())
    rec_del = warm_session("recompute", extra=leaf_edges())
    t_delta_del, sizes_c = timed(lambda: delete_loop(delta_del))
    t_rec_del, sizes_d = timed(lambda: delete_loop(rec_del))
    assert sizes_c == sizes_d
    return [gate("incremental_insert", t_rec_ins, t_delta_ins, 10.0),
            gate("incremental_delete", t_rec_del, t_delta_del, 3.0)]


def session_gate():
    from bench_session_reuse import (EDGES, RULES, SRC, UPDATES, cold_loop,
                                     warm_loop)
    from repro import connect

    t_cold, cold_results = timed(cold_loop)
    session = connect()
    session.define("E", EDGES)
    session.define("Src", SRC)
    session.define("F", UPDATES[0])
    session.load(RULES)
    session.execute("Hops")
    t_warm, warm_results = timed(lambda: warm_loop(session))
    assert cold_results == warm_results
    return gate("session_reuse", t_cold, t_warm, 5.0)


def concurrency_gate():
    from bench_concurrency import IO_DELAY_S, read_throughput, serving_session

    session = serving_session()
    read_throughput(session, 1, n_requests=20)  # warm both code paths
    rps_1, results_1 = read_throughput(session, 1)
    rps_4, results_4 = read_throughput(session, 4)
    assert results_1 == results_4
    cpu_1, _ = read_throughput(session, 1, io_delay=0.0)
    cpu_4, _ = read_throughput(session, 4, io_delay=0.0)
    # gate() compares seconds, so feed it seconds-per-request.
    return gate("concurrency_read_scaling", 1.0 / rps_1, 1.0 / rps_4, 2.0,
                {"threads": 4,
                 "io_delay_ms": IO_DELAY_S * 1000,
                 "rps_1_thread": round(rps_1, 1),
                 "rps_4_threads": round(rps_4, 1),
                 "pure_cpu_ratio": round(cpu_4 / cpu_1, 2)})


def storage_gates():
    import tempfile

    from bench_storage import (N_ROWS, REPLAY_RECORDS, build_checkpointed_dir,
                               build_wal_only_dir, bulk_session,
                               per_op_session, timed as best_of)
    from repro.storage.recovery import recover_state

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        t_slow, slow = timed(lambda: per_op_session(root / "perop"))
        t_fast, fast = timed(lambda: bulk_session(root / "bulk"))
        assert slow.relation("E") == fast.relation("E")
        ingest = gate("bulk_ingest", t_slow, t_fast, 5.0,
                      {"rows": N_ROWS,
                       "wal_appends_per_op":
                           slow.storage_statistics()["wal_appends"],
                       "wal_appends_bulk":
                           fast.storage_statistics()["wal_appends"]})
        slow.close()
        fast.close()

        build_wal_only_dir(root / "walonly")
        build_checkpointed_dir(root / "ckpt")
        recover_state(root / "ckpt")  # warm imports/caches off the clock
        t_replay, a = best_of(recover_state, root / "walonly", repeat=3)
        t_ckpt, b = best_of(recover_state, root / "ckpt", repeat=3)
        assert a.base == b.base
        reopen = gate("checkpoint_reopen", t_replay, t_ckpt, 10.0,
                      {"replayed_records": a.replayed_records,
                       "wal_records_after_checkpoint": b.replayed_records,
                       "records": REPLAY_RECORDS})
    return [ingest, reopen]


def columnar_gates():
    from bench_columnar import HUB300, best_of, tc_closure
    from repro.model import columns

    if not columns.KERNELS_AVAILABLE:
        return []
    t_on, (session_on, r_on) = best_of(lambda: tc_closure(HUB300, "auto"))
    t_off, (_, r_off) = best_of(lambda: tc_closure(HUB300, "off"))
    assert r_on == r_off
    tc = gate("columnar_hub_tc", t_off, t_on, 3.0,
              {"closure_rows": len(r_on),
               "columnar_statistics": session_on.columnar_statistics()})
    return [tc]


def robustness_gate():
    import time as _time

    from bench_robustness import budget_overhead, hub_tc_edges
    from repro import QueryTimeoutError, connect

    t_plain, t_budget, rows = budget_overhead()

    session = connect(load_stdlib=False)
    session.define("E", hub_tc_edges(400))
    session.load("""
        def TCr(x, y) : E(x, y)
        def TCr(x, y) : exists((z) | E(x, z) and TCr(z, y))
    """)
    started = _time.perf_counter()
    try:
        session.execute("TCr", deadline=0.05)
        raise AssertionError("deadline did not abort the hub TC")
    except QueryTimeoutError:
        abort_ms = (_time.perf_counter() - started) * 1000
    return gate("budget_overhead", t_plain, t_budget, 0.95,
                {"closure_rows": rows,
                 "abort_latency_ms": round(abort_ms, 1),
                 "abort_bound_ms": 500})


def scaled_timings():
    """Ungated one-shot timings at 10x the benchmark sizes (PR 7)."""
    from bench_apsp import networkx_apsp, rel_apsp
    from bench_pagerank import make_matrix, numpy_pagerank, rel_pagerank
    from bench_transitive_closure import rel_tc
    from repro.workloads import chain_graph, random_graph

    entries = []

    def record(name, fn, detail=None):
        seconds, result = timed(fn)
        entry = {"name": name, "seconds": round(seconds, 4)}
        if detail:
            entry.update(detail(result))
        entries.append(entry)
        return result

    record("tc_chain480_semi_naive",
           lambda: rel_tc(chain_graph(480)[1], True),
           lambda r: {"rows": len(r)})
    record("tc_random300_semi_naive",
           lambda: rel_tc(random_graph(300, 600, seed=13)[1], True),
           lambda r: {"rows": len(r)})

    matrix, _ = make_matrix(80, extra_seed=80)
    ranks = record("pagerank_n80", lambda: rel_pagerank(matrix),
                   lambda r: {"vertices": len(r)})
    reference = numpy_pagerank(matrix, 80)
    assert all(abs(ranks[i] - reference[i - 1]) < 0.02 for i in range(1, 81))

    vertices, edges = random_graph(120, 240, seed=5)
    result = record("apsp_random120_min", lambda: rel_apsp(
        vertices, edges, "APSP[V, E]"), lambda r: {"rows": len(r.tuples)})
    assert set(result.tuples) == networkx_apsp(vertices, edges)
    return entries


def main() -> int:
    sys.path.insert(0, str(Path(__file__).parent))
    sys.path.insert(0, str(Path(__file__).parents[1] / "tests"))
    gates = [plan_reuse_gate(), wcoj_gate()]
    gates.extend(incremental_gates())
    gates.append(session_gate())
    gates.append(concurrency_gate())
    gates.extend(storage_gates())
    gates.extend(columnar_gates())
    gates.append(robustness_gate())
    snapshot = {
        "pr": 10,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "gates": gates,
        "scaled": scaled_timings(),
    }
    out = Path(__file__).parent.parent / "BENCH_pr10.json"
    out.write_text(json.dumps(snapshot, indent=2) + "\n")
    failed = [g["name"] for g in gates if not g["passed"]]
    print(json.dumps(snapshot, indent=2))
    if failed:
        print(f"FAILED gates: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all {len(gates)} gates passed; wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
