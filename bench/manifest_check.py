"""Validate ``BENCHMARK.json`` against the driver's contract, before any run.

Run by ``python3 bench/run.py --check``. PR 11's benchmark was refused as
``manifest_invalid`` before a single measurement, so this gate comes first:
it re-states every limit the contract puts on the manifest (key sets,
counts, name and unit alphabets, lengths, bounds, the ``setup_s`` metric,
paths and command that stay inside the benchmark's own directory, the run
budget) and the choices this benchmark adds (seven workloads that are
exactly the registry of ``bench/workloads.py``, thirteen end-to-end
metrics that are exactly the ones some workload is native to, ``paths`` of
exactly ``bench``).

That each run emits exactly the declared metrics is checked by the run
itself: ``bench/run.py`` exits with an error, and prints no result, when the
metrics it computed are not the ones the manifest declares for its mode.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, List

from bench.workloads import ALWAYS_NATIVE, registry

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
_PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")

_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
         "per_layer"}
#: Runs the driver makes, and the seconds all of them may take together.
_FIXED_RUNS, _RUNS_PER_WORKLOAD, _BUDGET_SECONDS = 4, 22, 3420
#: Seconds a run spends outside its measured ``run_seconds`` (set-up three
#: times over, checks, interpreter start): the most any workload needed on
#: the box the benchmark was sized on, rounded up.
_OVERHEAD_SECONDS = 10


def problems(root: Path) -> List[str]:
    """Everything wrong with ``root/BENCHMARK.json``; empty when valid."""
    path = root / "BENCHMARK.json"
    if path.stat().st_size > 64 * 1024:
        return ["BENCHMARK.json is larger than 64 KiB"]
    with open(path) as handle:
        manifest = json.load(handle)
    found: List[str] = []
    if set(manifest) != _KEYS:
        return [f"keys must be exactly {sorted(_KEYS)}"]
    found += _check_command_and_paths(manifest, root)
    seconds = manifest["run_seconds"]
    if type(seconds) is not int or not 1 <= seconds <= 60:
        found.append("run_seconds must be a whole number from 1 to 60")
    found += _check_workloads(manifest["workloads"], seconds)
    names = [w.get("name") for w in manifest["workloads"]]
    found += _check_metrics(manifest["end_to_end"], "end_to_end", 16,
                            {"name", "unit", "better", "bound"}, names)
    found += _check_metrics(manifest["per_layer"], "per_layer", 128,
                            {"name", "unit", "better"}, names)
    if len(manifest["end_to_end"]) != 13:
        found.append("this benchmark declares 13 end-to-end metrics")
    native = ALWAYS_NATIVE.union(*(w.native for w in registry().values()))
    if {m.get("name") for m in manifest["end_to_end"]} != native:
        found.append("the end-to-end metrics must be exactly those some "
                     f"workload of bench/workloads.py is native to: "
                     f"{sorted(native)}")
    setup = [m for m in manifest["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" \
            or setup[0].get("better") != "lower":
        found.append("end_to_end needs setup_s with unit s, better lower")
    elif any(m.get("bound", 0) > setup[0]["bound"]
             for m in manifest["end_to_end"]):
        found.append("setup_s must have the largest bound")
    return found


def _check_command_and_paths(manifest: Dict[str, Any],
                             root: Path) -> List[str]:
    found: List[str] = []
    paths, command = manifest["paths"], manifest["command"]
    if paths != ["bench"]:
        found.append('paths must be exactly ["bench"]')
    for entry in paths:
        if not isinstance(entry, str) or not _PATH.match(entry) \
                or entry.startswith("/") or ".." in entry.split("/"):
            found.append(f"path {entry!r} is not a plain relative path")
        elif any(f.is_symlink() for f in (root / entry).rglob("*")):
            found.append(f"path {entry!r} holds a link")
    if not isinstance(command, list) or not 1 <= len(command) <= 32 \
            or any(not isinstance(c, str) or len(c) > 200 for c in command):
        return found + ["command must be 1 to 32 strings of at most 200 "
                        "characters"]
    for word in command[1:]:
        if word.startswith("/") or ".." in word.split("/"):
            found.append(f"command word {word!r} leaves the checkout")
        elif (root / word).exists() and not any(
                word == p or word.startswith(p.rstrip("/") + "/")
                for p in paths):
            found.append(f"command word {word!r} names a file outside paths")
    return found


def _check_workloads(workloads: Any, seconds: Any) -> List[str]:
    found: List[str] = []
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        return ["workloads must be a list of 2 to 8"]
    for workload in workloads:
        if set(workload) != {"name", "why"}:
            found.append(f"workload {workload} must have exactly name, why")
        elif not _NAME.match(workload["name"]):
            found.append(f"workload name {workload['name']!r} is malformed")
        elif "\n" in workload["why"] or not 0 < len(workload["why"]) <= 200:
            found.append(f"why of {workload['name']} must be one line of "
                         "at most 200 characters")
    registered = list(registry())
    if [w.get("name") for w in workloads] != registered:
        found.append("workloads must be exactly the registry of "
                     f"bench/workloads.py, in order: {registered}")
    if isinstance(seconds, int):
        runs = _FIXED_RUNS + _RUNS_PER_WORKLOAD * len(workloads)
        needed = runs * (seconds + _OVERHEAD_SECONDS)
        if needed > _BUDGET_SECONDS:
            found.append(f"{runs} runs of {seconds}+{_OVERHEAD_SECONDS} s "
                         f"need {needed} s, over the {_BUDGET_SECONDS} s cap")
    return found


def _check_metrics(metrics: Any, section: str, most: int, keys: set,
                   taken: List[str]) -> List[str]:
    found: List[str] = []
    if not isinstance(metrics, list) or not 1 <= len(metrics) <= most:
        return [f"{section} must be a list of 1 to {most}"]
    for metric in metrics:
        if set(metric) != keys:
            found.append(f"{section} metric {metric} must have exactly "
                         f"{sorted(keys)}")
            continue
        name = metric["name"]
        if not _NAME.match(name):
            found.append(f"metric name {name!r} is malformed")
        if name in taken:
            found.append(f"name {name!r} is used twice")
        taken.append(name)
        if not _UNIT.match(metric["unit"]):
            found.append(f"unit {metric['unit']!r} of {name} is malformed")
        if metric["better"] not in ("lower", "higher"):
            found.append(f"better of {name} must be lower or higher")
        if "bound" in keys and not (
                isinstance(metric["bound"], (int, float))
                and 0 < metric["bound"] <= 0.25):
            found.append(f"bound of {name} must be in (0, 0.25]")
    return found
