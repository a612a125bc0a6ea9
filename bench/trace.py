"""Span recorder wrapped around the engine's public callables, from outside.

The engine has no tracing of its own yet (ROADMAP item 1), so the traced
run of the benchmark wraps the callables at each layer boundary here, in
the benchmark's own files. Many callers bind these by ``from ... import
name``, so :meth:`Tracer.install` rebinds every alias it finds *by identity*
in the loaded ``repro.*`` modules, and :meth:`Tracer.uninstall` puts every
original back. The untraced run never imports this module.

A span is ``[layer, start, end, parent, pass_id, thread]``. Spans are kept
in memory and written out when the run ends. A call made while the
innermost open span of its thread already belongs to the same layer is not
recorded again (recursive re-entry counts once, outermost). A layer's
*self time* is its spans' duration minus what their child spans on the same
thread cover. A thread other than the one that opened the pass hangs its
outermost spans under the pass root, so every span has a parent or is a
pass root; such children overlap the root in time and are not subtracted
from it.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro

clock = time.perf_counter

#: The pass root's layer: time inside a timed unit but outside every
#: wrapped callable (the Session/QueryServer surface, thread waits).
ROOT_LAYER = "bench.unit"

#: layer -> "module:function" or "module:Class.attribute" targets.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "lang.parse": (
        "repro.lang.parser:parse_program",
        "repro.lang.parser:parse_expression"),
    "engine.program.evaluate": (
        "repro.engine.program:RelProgram.relation",
        "repro.engine.program:RelProgram.query_node",
        "repro.engine.program:RelProgram.evaluate",
        "repro.engine.snapshot:ProgramSnapshot.relation",
        "repro.engine.snapshot:ProgramSnapshot.query_node",
        "repro.engine.snapshot:ProgramSnapshot.evaluate"),
    # Session.insert/delete reach maintenance through RelProgram.define,
    # batches and transactions through apply_updates.
    "engine.program.apply_updates": (
        "repro.engine.program:RelProgram.apply_updates",
        "repro.engine.program:RelProgram.define"),
    "engine.program.snapshot": (
        "repro.engine.program:RelProgram.snapshot",
        "repro.api:Session.snapshot"),
    "engine.expand.rule_eval": (
        "repro.engine.expand:eval_rule",
        "repro.engine.expand:eval_rule_relation",
        "repro.engine.expand:eval_relation"),
    "engine.table.setops": (
        "repro.engine.table:union_tables",
        "repro.engine.table:union_tables_typed",
        "repro.engine.table:dedupe_table",
        "repro.engine.table:project_table"),
    "joins.multiway_join": (
        "repro.joins.planner:multiway_join",
        "repro.joins.planner:binary_plan_join",
        "repro.joins.planner:columnar_plan_join",
        "repro.joins.leapfrog:leapfrog_triejoin"),
    "model.trie.build": (
        "repro.joins.leapfrog:build_sorted_trie",
        "repro.model.trie:RelationTrie.__init__",
        "repro.model.trie:RelationTrie.from_sorted",
        "repro.model.trie:RelationTrie.from_relation"),
    "model.columns.join": (
        "repro.model.columns:join_columnsets",
        "repro.model.columns:match_pairs"),
    "model.columns.setops": (
        "repro.model.columns:set_union",
        "repro.model.columns:set_difference",
        "repro.model.columns:set_intersect",
        "repro.model.columns:distinct_indices",
        "repro.model.columns:factorize_rows",
        "repro.model.columns:fold_values"),
    "model.columns.convert": (
        "repro.model.columns:type_column",
        "repro.model.columns:decode_column",
        "repro.model.relation:Relation.from_columns",
        "repro.model.relation:Relation.columns"),
    "model.relation.setops": (
        "repro.model.relation:Relation.union",
        "repro.model.relation:Relation.difference",
        "repro.model.relation:Relation.intersect",
        "repro.model.relation:Relation.project"),
    "storage.wal.append": ("repro.storage.wal:WALWriter.append",),
    "storage.wal.sync": ("repro.storage.wal:WALWriter.sync",),
    "storage.codec.encode": (
        "repro.storage.codec:encode_relation",
        "repro.storage.codec:dump_payload"),
    "storage.codec.decode": (
        "repro.storage.codec:decode_relation",
        "repro.storage.codec:load_payload"),
    "storage.checkpoint.write": (
        "repro.storage.checkpoint:write_checkpoint",),
    "storage.recovery.recover": ("repro.storage.recovery:recover_state",),
    "db.transaction": (
        "repro.db.transaction:Transaction.execute",
        "repro.db.transaction:check_constraints"),
    # What a server read costs once a pool thread has picked it up; client
    # latency minus this span is the queue-and-dispatch overhead.
    "api.snapshot.execute": ("repro.api:Snapshot.execute_node",),
}

_LAYER, _START, _END, _PARENT, _PASS, _THREAD = range(6)


def _repro_modules() -> List[Any]:
    """Every ``repro.*`` module, imported now so that none binds an
    original after the wrappers are in place."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    return [module for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]


def _resolve(target: str) -> Tuple[Any, str]:
    """(owner, attribute) of a target: the module, or the class in it."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attribute


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._root: Optional[list] = None
        #: (owner, attribute, original) for every name rebound; kept after
        #: uninstall, so the self-test can see that the originals are back.
        self._rebound: List[Tuple[Any, str, Any]] = []

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        modules = _repro_modules()
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, attribute = _resolve(target)
                original = vars(owner)[attribute]
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(
                        self._wrap(layer, original.__func__))
                else:
                    wrapped = self._wrap(layer, original)
                if isinstance(owner, type):
                    self._rebind(owner, attribute, original, wrapped)
                    continue
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, alias, original, wrapped)

    def _rebind(self, owner: Any, attribute: str, original: Any,
                wrapped: Any) -> None:
        setattr(owner, attribute, wrapped)
        self._rebound.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._rebound):
            setattr(owner, attribute, original)

    def _wrap(self, layer: str, fn: Any) -> Any:
        spans = self.spans
        local = self._local
        thread_id = threading.get_ident

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = local.__dict__.setdefault("stack", [])
            if stack:
                parent = stack[-1]
                if parent[_LAYER] == layer:
                    return fn(*args, **kwargs)
            else:
                parent = self._root
                if parent is None:  # outside every timed unit
                    return fn(*args, **kwargs)
            span = [layer, clock(), 0.0, parent, parent[_PASS], thread_id()]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
                spans.append(span)

        return traced

    # -- pass roots --------------------------------------------------------

    def begin(self, pass_id: int) -> None:
        """Open a pass root on the calling thread: the timed unit starts."""
        root = [ROOT_LAYER, clock(), 0.0, None, pass_id,
                threading.get_ident()]
        self._local.stack = [root]
        self._root = root

    @property
    def open(self) -> bool:
        """Whether a pass root is open."""
        return self._root is not None

    def end(self) -> None:
        root = self._root
        root[_END] = clock()
        self._root = None
        self._local.stack = []
        self.spans.append(root)

    # -- reading -----------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """id(span) -> duration minus same-thread children."""
        own = {id(s): s[_END] - s[_START] for s in self.spans}
        for span in self.spans:
            parent = span[_PARENT]
            if parent is not None and parent[_THREAD] == span[_THREAD]:
                own[id(parent)] -= span[_END] - span[_START]
        return own

    def by_layer(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """(self seconds, calls seen) per layer over every pass."""
        own = self.self_times()
        seconds: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            seconds[span[_LAYER]] += own[id(span)]
            calls[span[_LAYER]] += 1
        return seconds, calls

    def durations(self, layer: str) -> List[Tuple[float, float]]:
        """(start, duration) of one layer's spans, in start order."""
        return sorted((s[_START], s[_END] - s[_START])
                      for s in self.spans if s[_LAYER] == layer)

    def problems(self) -> List[str]:
        """The self-test: wrappers gone, every span has a parent or is a
        pass root, no child outlasts its parent, and per pass the self
        times of the root's thread add up to the pass's wall time within
        2 %. Returns what is wrong (nothing, when all is well)."""
        found: List[str] = []
        for owner, attribute, original in self._rebound:
            if vars(owner)[attribute] is not original:
                found.append(f"{owner.__name__}.{attribute} is not the "
                             "original again")
        own = self.self_times()
        per_pass: Dict[int, float] = defaultdict(float)
        roots: Dict[int, list] = {}
        slack = 1e-6
        for span in self.spans:
            parent = span[_PARENT]
            if parent is None:
                if span[_LAYER] != ROOT_LAYER:
                    found.append(f"orphan span in {span[_LAYER]}")
                roots[span[_PASS]] = span
            elif span[_START] < parent[_START] - slack \
                    or span[_END] > parent[_END] + slack:
                found.append(f"{span[_LAYER]} span outlasts its parent "
                             f"{parent[_LAYER]}")
        for span in self.spans:
            root = roots.get(span[_PASS])
            if root is None:
                found.append(f"pass {span[_PASS]} has no root")
            elif span[_THREAD] == root[_THREAD]:
                per_pass[span[_PASS]] += own[id(span)]
        for pass_id, root in roots.items():
            wall = root[_END] - root[_START]
            if abs(per_pass[pass_id] - wall) > 0.02 * wall:
                found.append(f"pass {pass_id}: self times sum to "
                             f"{per_pass[pass_id]:.6f}s of {wall:.6f}s")
        return found[:20]

    def dump(self, path: Path, header: Dict[str, Any]) -> None:
        """Write the header and every span as
        ``[id, layer, start, end, parent id, pass, thread]``; times are
        seconds since the first span."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        zero = min((s[_START] for s in self.spans), default=0.0)
        threads: Dict[int, int] = {}
        rows = [[i, s[_LAYER], round(s[_START] - zero, 7),
                 round(s[_END] - zero, 7),
                 None if s[_PARENT] is None else index[id(s[_PARENT])],
                 s[_PASS], threads.setdefault(s[_THREAD], len(threads))]
                for i, s in enumerate(self.spans)]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump({**header, "span_fields": [
                "id", "layer", "start", "end", "parent", "pass", "thread"],
                "spans": rows}, out)
