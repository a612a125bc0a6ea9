"""The benchmark's one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``,
measured with no tracing code imported; with ``--trace 1`` they are its
per-layer metrics, from a second phase measured under ``bench/trace.py``
(and the spans go to ``bench/out/<workload>.spans.json``).

    python3 bench/run.py --check               validate BENCHMARK.json
    python3 bench/run.py --all --repeat K      K runs of every workload:
                                               medians, quartiles, spreads

``BENCHMARK.json`` is the one list of metric names and units: a run whose
metrics are not exactly the declared ones exits with an error and prints
no result. Every run reports every end-to-end metric; the ones a workload
is not native to are stand-ins, marked as such wherever they are printed.
See ``bench/README.md`` for what every name means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Sequence

clock = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
# `bench` is imported as a package from the checkout, never as loose modules
# from its own directory (bench/trace.py would shadow the stdlib's `trace`),
# and `repro` only from this checkout's sources.
sys.path[:] = [str(ROOT), str(ROOT / "src")] + [
    p for p in sys.path if Path(p or ".").resolve() != ROOT / "bench"]

#: Set-ups per untraced run; ``setup_s`` is import time plus their median.
SETUP_REPEATS = 3
#: Fewest timed units of a run (of each phase of a traced run: 2).
MIN_UNITS = 3
#: Share of ``--seconds`` a traced run spends on its untraced phase.
PLAIN_SHARE = 0.4
DEFAULT_SEED = 12


def load_manifest() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def lower_quartile(values: Sequence[float]) -> float:
    """What a run reports of the values its timed units measured. A
    neighbour on the shared host only ever adds time, in bursts of 5 to 15
    seconds that slow everything by half as much again: as long as the
    measured part of a run. The median unit of a run that a burst covers
    half of is a burst; the lower quartile is a unit the host left alone
    unless the burst covered three quarters of the run (README, "The
    lower quartile of a run's units")."""
    return percentile(values, 25)


def p50(values: Sequence[float]) -> float:
    """The mean of the middle fifth of the samples (the usual median for
    up to ten of them). Latencies come in clusters — a point insert costs
    12, 16, 21 or 25 ms by the layer of its edge — and the middle sample
    of a run sits on a boundary between two, where a nearest-rank median
    jumps by 20 % when three samples change sides; the band moves by what
    changed."""
    ordered = sorted(values)
    n = len(ordered)
    return statistics.fmean(ordered[2 * n // 5:math.ceil(3 * n / 5)])


# -- measuring ----------------------------------------------------------------


def measure(workload, seconds: float, least: int, tracer=None):
    """Run the timed units that ``seconds`` are worth at the workload's
    nominal unit time (at least ``least``), or until its script runs out."""
    from bench.workloads import Recorder

    rec = Recorder(tracer)
    try:
        for _ in range(max(least, round(seconds / workload.unit_seconds))):
            if not workload.unit(rec):
                break
    except Exception as exc:  # counted as a failed operation
        rec.abandon(exc)
    if not rec.units:
        rec.check(False, "no timed unit ran")
    return rec


def end_to_end(workload, rec, setup_s: float,
               units_of: Dict[str, str]) -> Dict[str, float]:
    """The end-to-end metrics of one untraced phase. The driver wants every
    metric from every workload, so a metric that is not ``native`` to this
    one is a stand-in that reads the timed unit: a time reads the unit
    time ``wall_s`` reports, a rate reads units per second, and bytes per
    row read the rows as the engine holds them in memory (README, "One key
    set for every workload")."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    unit = lower_quartile(rec.units)

    def of_units(kind: str, statistic=p50) -> float:
        """A latency statistic taken unit by unit, then over the units."""
        return lower_quartile([statistic(ops[kind]) for ops in rec.unit_ops
                               if kind in ops])

    native = {
        "insert_p50_ms": lambda: 1e3 * of_units("insert"),
        "delete_p50_ms": lambda: 1e3 * of_units("delete"),
        # Client operations per unit over the unit time reported: the
        # throughput of the loop as wall_s has it.
        "ops_per_s": lambda: (len(rec.ops("read")) + len(rec.ops("write")))
            / len(rec.units) / unit,
        "read_p50_ms": lambda: 1e3 * of_units("read"),
        "read_p90_ms": lambda: 1e3 * of_units(
            "read", lambda values: percentile(values, 90)),
        "write_p50_ms": lambda: 1e3 * of_units("write"),
        "ingest_rows_per_s": lambda: workload.batch_rows / of_units("ingest"),
        "checkpoint_s": lambda: of_units("checkpoint"),
        "reopen_s": lambda: of_units("reopen"),
        "disk_bytes_per_row": workload.bytes_per_row,
    }
    stand_in = {"s": unit, "ms": 1e3 * unit, "1/s": 1 / unit,
                "rows/s": 1 / unit, "bytes": workload.bytes_per_row()}
    metrics = {
        "setup_s": setup_s,
        "wall_s": unit,
        "peak_rss_mb": peak_rss_mb,
    }
    for name, read in native.items():
        metrics[name] = read() if name in workload.native \
            else stand_in[units_of[name]]
    return metrics


_KERNEL_EVENTS = ("join", "dedupe", "project", "union", "filter", "fold")


def per_layer(workload, plain, traced, tracer,
              delta: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced phase, per timed unit: ``_s``
    metrics are self time, counts are calls seen or the growth of the
    public ``*_statistics()`` counters; a ratio whose denominator is 0
    reads 0."""
    units = len(traced.units)
    seconds, calls = tracer.by_layer()

    def self_s(layer: str) -> float:
        return seconds.get(layer, 0.0) / units

    def seen(layer: str) -> float:
        return calls.get(layer, 0) / units

    def grown(key: str) -> float:
        return delta.get(key, 0) / units

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    engaged = sum(grown(f"columnar.{e}") for e in _KERNEL_EVENTS)
    declined = sum(grown(f"columnar.{e}_fallback") for e in _KERNEL_EVENTS)
    checkpoint_bytes = workload.checkpoint_bytes
    reads = traced.ops("read")
    # The k-th read submitted caused the k-th execute span started: the
    # pool runs reads in submission order.
    windows = sorted(workload.read_windows[-len(reads):])
    executed = tracer.durations("api.snapshot.execute")
    if reads and len(windows) == len(executed):
        overhead = statistics.median(
            (ended - began) - ran
            for (began, ended), (_, ran) in zip(windows, executed))
    else:
        overhead = 0.0
    return {
        "lang.parse_s": self_s("lang.parse"),
        "lang.parse_calls": seen("lang.parse"),
        "engine.program.evaluate_s": self_s("engine.program.evaluate"),
        "engine.program.apply_updates_s":
            self_s("engine.program.apply_updates"),
        "engine.program.maintained_strata":
            grown("maintenance.maintained_strata"),
        "engine.program.recomputed_strata":
            grown("maintenance.recomputed_strata"),
        "engine.program.overdeleted_rows":
            grown("maintenance.overdeleted_tuples"),
        "engine.program.rederived_rows":
            grown("maintenance.rederived_tuples"),
        "engine.program.rederive_ratio":
            ratio(grown("maintenance.rederived_tuples"),
                  grown("maintenance.overdeleted_tuples")),
        "engine.program.snapshot_s": self_s("engine.program.snapshot"),
        "engine.expand.rule_eval_s": self_s("engine.expand.rule_eval"),
        "engine.expand.rule_evals": seen("engine.expand.rule_eval"),
        "engine.plan.compiled": grown("plan.compiled"),
        "engine.plan.hits": grown("plan.hits"),
        "engine.plan.fallbacks": grown("plan.fallbacks"),
        "engine.table.setops_s": self_s("engine.table.setops"),
        "joins.multiway_join_s": self_s("joins.multiway_join"),
        "joins.multiway_join_calls": seen("joins.multiway_join"),
        "joins.strategy.leapfrog": grown("join.leapfrog"),
        "joins.strategy.columnar": grown("join.columnar"),
        "joins.strategy.binary": grown("join.binary"),
        "model.trie.build_s": self_s("model.trie.build"),
        "model.columns.join_s": self_s("model.columns.join"),
        "model.columns.setops_s": self_s("model.columns.setops"),
        "model.columns.convert_s": self_s("model.columns.convert"),
        "model.columns.kernel_calls": engaged,
        "model.columns.engaged_ratio": ratio(engaged, engaged + declined),
        "model.relation.setops_s": self_s("model.relation.setops"),
        "storage.wal.append_s": self_s("storage.wal.append"),
        "storage.wal.appends": grown("storage.wal_appends"),
        "storage.wal.bytes": grown("storage.wal_bytes"),
        "storage.wal.sync_s": self_s("storage.wal.sync"),
        "storage.codec.encode_s": self_s("storage.codec.encode"),
        "storage.codec.decode_s": self_s("storage.codec.decode"),
        "storage.checkpoint.write_s": self_s("storage.checkpoint.write"),
        "storage.checkpoint.bytes": checkpoint_bytes,
        "storage.recovery.recover_s": self_s("storage.recovery.recover"),
        "storage.recovery.replayed_records":
            grown("storage.replayed_records"),
        "storage.write_amp":
            ratio(grown("storage.wal_bytes") + checkpoint_bytes,
                  workload.user_bytes),
        "db.transaction_s": self_s("db.transaction"),
        "server.read_overhead_ms": 1e3 * overhead,
        "server.read_p99_ms": 1e3 * percentile(reads, 99) if reads else 0.0,
        "server.write_batches": grown("server.write_batches"),
        "server.coalesced_ops": grown("server.coalesced_ops"),
        # A high-water mark, not a sum: read as it stands after the phase.
        "server.queue_depth_max": delta.get("server.queue_depth_max", 0),
        "trace.overhead_ratio": lower_quartile(traced.units)
            / lower_quartile(plain.units),
    }


def _measured(workload, seconds: float, trace: bool, import_s: float,
              units_of: Dict[str, str]):
    """Set up, measure and finish one workload: (recorder, metrics)."""
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        began = clock()
        workload.setup()
        setups.append(clock() - began)
    # The benchmark's own inputs and oracles are not the engine's garbage:
    # keep them out of every collection the timed units trigger.
    gc.collect()
    gc.freeze()
    if not trace:
        rec = measure(workload, seconds, MIN_UNITS)
        metrics = end_to_end(workload, rec,
                             import_s + statistics.median(setups), units_of)
        workload.finish(rec)
        return rec, metrics
    from bench.trace import Tracer

    plain = measure(workload, seconds * PLAIN_SHARE, 2)
    tracer = Tracer()
    before = workload.counters()
    tracer.install()
    try:
        rec = measure(workload, seconds * (1 - PLAIN_SHARE), 2, tracer)
    finally:
        tracer.uninstall()
    after = workload.counters()
    delta = {key: after[key] - before[key] for key in after}
    delta["server.queue_depth_max"] = after["server.queue_depth_max"]
    metrics = per_layer(workload, plain, rec, tracer, delta)
    workload.finish(rec)
    for problem in tracer.problems():
        rec.check(False, f"trace: {problem}")
    seconds_by_layer, calls_by_layer = tracer.by_layer()
    tracer.dump(OUT / f"{workload.name}.spans.json", {
        "workload": workload.name, "seed": workload.seed,
        "unit": workload.unit_is, "units": len(rec.units),
        "unit_seconds": rec.units, "self_seconds": dict(seconds_by_layer),
        "calls": dict(calls_by_layer), "metrics": metrics})
    rec.attempted += plain.attempted
    rec.failed += plain.failed
    rec.failures = plain.failures + rec.failures
    return rec, metrics


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> Dict[str, Any]:
    """One run: set up, measure, check, and return the result object."""
    manifest = load_manifest()
    began = clock()
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"the engine's sources are not under {ROOT / 'src'}: "
                         f"{exc}") from None
    from bench import workloads

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro was imported from {repro.__file__}, "
                         "not from this checkout's src/")
    import_s = clock() - began
    scratch = OUT / f"tmp-{os.getpid()}"
    workload = workloads.registry()[name](seed, scratch)
    declared = manifest["per_layer" if trace else "end_to_end"]
    try:
        rec, metrics = _measured(workload, seconds, trace, import_s,
                                 {m["name"]: m["unit"] for m in declared})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit(
            "metrics computed and metrics declared in BENCHMARK.json differ: "
            f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for failure in rec.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }


def stand_ins(name: str) -> FrozenSet[str]:
    """The end-to-end metrics that workload ``name`` only stands in for."""
    from bench import workloads

    manifest = load_manifest()
    return frozenset(m["name"] for m in manifest["end_to_end"]) \
        - workloads.ALWAYS_NATIVE - workloads.registry()[name].native


def print_result(name: str, seed: int, trace: bool,
                 result: Dict[str, Any]) -> None:
    print(f"workload {name}  seed {seed}  attempted {result['attempted']}"
          f"  failed {result['failed']}")
    marked = frozenset() if trace else stand_ins(name)
    for metric, reading in result["metrics"].items():
        print(f"  {metric:36s} {reading['value']:16.6f} {reading['unit']:8s}"
              + ("(stand-in)" if metric in marked else ""))
    print(json.dumps(result))


# -- many runs: medians, quartiles, spreads ----------------------------------


def run_many(names: Sequence[str], seed: int, seconds: int,
             repeat: int) -> Dict[str, Any]:
    """``repeat`` untraced runs of each workload, each in its own process
    and with its own seed (as the driver makes them), summarised per
    (metric, workload): median, quartiles, and the distance between the
    quartiles as a share of the median, beside the metric's bound. Every
    pair is in the summary, marked ``native`` or not; only the native
    pairs are printed, because a stand-in repeats ``wall_s``."""
    manifest = load_manifest()
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    rows = []
    for name in names:
        not_native = stand_ins(name)
        readings: Dict[str, List[float]] = {m: [] for m in bounds}
        for k in range(repeat):
            done = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"),
                 "--workload", name, "--seed", str(seed + k),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed + k}: "
                                 f"{result['failed']} failed operations")
            for metric, reading in result["metrics"].items():
                readings[metric].append(reading["value"])
        for metric, values in readings.items():
            median = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median
            rows.append({"workload": name, "metric": metric,
                         "native": metric not in not_native,
                         "values": values,
                         "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bounds[metric],
                         "steady": spread <= bounds[metric] / 3
                         or metric == "setup_s"})
            if metric not in not_native:
                print(f"{name:14s} {metric:20s} median {median:14.4f}  "
                      f"q1 {q1:14.4f}  q3 {q3:14.4f}  "
                      f"spread {spread:7.2%} of bound {bounds[metric]:.0%}",
                      file=sys.stderr)
    return {"seed": seed, "seconds": seconds, "repeat": repeat,
            "rows": rows, "claim": None}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="validate BENCHMARK.json and exit")
    parser.add_argument("--all", action="store_true",
                        help="every workload (with --repeat)")
    parser.add_argument("--repeat", type=int,
                        help="summarise this many untraced runs")
    args = parser.parse_args(argv)
    if args.check:
        from bench import manifest_check

        problems = manifest_check.problems(ROOT)
        for problem in problems:
            print(problem, file=sys.stderr)
        print("BENCHMARK.json: " + ("ok" if not problems
                                    else f"{len(problems)} problems"))
        return 1 if problems else 0
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    seconds = args.seconds or manifest["run_seconds"]
    if not args.all and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if args.all or args.repeat:
        print(json.dumps(run_many(names if args.all else [args.workload],
                                  args.seed, int(seconds), args.repeat or 1),
                         indent=1))
    else:
        print_result(args.workload, args.seed, bool(args.trace),
                     run_workload(args.workload, args.seed, seconds,
                                  bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
