"""Program-level evaluation: stratification, fixpoints, and instances.

A :class:`RelProgram` holds parsed rules (grouped by relation name into
closures), base relations, and integrity constraints. Evaluation follows the
paper's semantics (Section 3.3 and Addendum A):

- the dependency graph of the program is condensed into strongly connected
  components, evaluated in topological order;
- recursive components whose rules use the recursive names only positively
  are evaluated by **semi-naive** iteration (delta rules);
- other recursive components — including non-stratified programs, which the
  paper explicitly permits — are evaluated by **Kleene iteration to
  stability**: all rules are re-evaluated from the previous approximation
  until the extents stop changing ("information is propagated in an
  iterative fashion until no new facts can be inferred");
- definitions with relation parameters (second-order) or whose bodies are
  unsafe without call-site bindings are never materialized; they are
  evaluated **on demand** per instance (frozen relation parameters plus
  demanded argument bindings), memoized, with the same iteration-to-
  stability treatment for self-recursive instances (APSP, PageRank).
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.engine import builtins as bi
from repro.engine import budget as _budget
from repro.engine.builtins import Builtin
from repro.engine.errors import (
    ConvergenceError,
    EvaluationError,
    SafetyError,
    UnknownRelationError,
)
from repro.engine.expand import (
    Frame,
    NotOrderable,
    eval_relation,
    eval_rule_relation,
    expand,
    rule_orderable,
)
from repro.engine.runtime import (Closure, Env, Rule, bounded_store,
                                  compile_rule)
from repro.lang import ast, parse_expression, parse_program
from repro.model import columns as _columns
from repro.model.relation import (EMPTY, Changes, Relation, apply_delta,
                                  replacements)
from repro.model.relation import row_key as model_row_key
from repro.model.values import value_key

# Deep demand-driven recursion (e.g. digit sums, BOM explosions) uses many
# Python frames per Rel-level call; raise the interpreter limit once.
if sys.getrecursionlimit() < 100_000:
    sys.setrecursionlimit(100_000)


@dataclasses.dataclass
class EngineOptions:
    """The evaluation limit.

    ``max_global_iterations`` caps every fixpoint loop (a stratum, an
    insert or over-delete maintenance pass, and a second-order instance),
    raising :class:`ConvergenceError` past it."""

    max_global_iterations: int = 100_000


def _delta_replaces_most(plus: Relation, minus: Relation,
                         before: int) -> bool:
    """The update replaces most of a relation of ``before`` rows: recomputing
    the dependent strata is at least as cheap as delta propagation."""
    after = before + len(plus) - len(minus)
    return len(plus) + len(minus) > max(8, (before + after) // 2)


@contextlib.contextmanager
def _plane_stats(state):
    """Route storage-plane and kernel events into this evaluation's
    ``columnar`` counters for the duration of the block.

    Neither the Relation layer nor the kernel wrappers in
    :mod:`repro.engine.expand` count into a state directly: they report
    through a thread-local sink (:func:`repro.model.columns.count_plane`),
    and installing the *state's* table here — at every evaluation entry
    point — attributes each event to the state doing the work. Snapshot
    reads therefore count into their own state (read-only views must
    never bump parent counters), and concurrent readers on different
    threads never cross-attribute."""
    prev = _columns.swap_stats_sink(
        state.counters["columnar"] if state is not None else None)
    try:
        yield
    finally:
        _columns.swap_stats_sink(prev)


#: The counter families of an :class:`EvalState`: rule evaluations per
#: name, multiway joins per strategy, maintenance events, plan-cache
#: events, and columnar-plane events (fed only through
#: :func:`_plane_stats`' sink).
COUNTER_FAMILIES = ("eval", "join", "maintenance", "plan", "columnar")


class EvalState:
    """Mutable evaluation state: extents, counters, instance memos, plans
    and indexes.

    Every name (base or derived) carries a *generation* counter, bumped
    whenever its extent changes. Instance memos are keyed by the generations
    of the names they (transitively) reference, so an update to one base
    relation only invalidates the memos that could observe it — the
    foundation of the session layer's incremental re-evaluation.

    The caches are bounded dicts: past its ``*_LIMIT`` a cache evicts its
    oldest half (:func:`~repro.engine.runtime.bounded_store`). Identity-
    keyed entries are ``key -> (pin, value)``: the pin is the object whose
    ``id()`` the key holds, so the key stays its own for exactly as long as
    the entry lives.

    A state built with a ``parent`` is the state of a snapshot or fork of
    that program: it copies the parent's extents and generation vectors,
    starts its own counters, and reads every cache own entry first, then
    the parent's — one atomic ``dict.get`` (safe against a concurrent
    writer under the GIL), validated by identity pin or rules generation.
    Everything it computes, evicts, drops or counts stays in its own dicts,
    so the parent is never written.
    """

    #: Soft caps for the long-lived session caches (entries, not bytes):
    #: on overflow the oldest half is evicted (dicts keep insertion order).
    MEMO_LIMIT = 4096
    INDEX_LIMIT = 256
    TRIE_LIMIT = 256
    PLAN_LIMIT = 4096
    SKELETON_LIMIT = 2048

    def __init__(self, parent: Optional["EvalState"] = None) -> None:
        if parent is None:
            self.extents: Dict[str, Relation] = {}
            self.name_gen: Dict[str, int] = {}
            # Rules-generation counters: bumped only when a name's *rules*
            # change (not on data updates), so plan signatures survive
            # fixpoint iterations and incremental maintenance.
            self.rule_gen: Dict[str, int] = {}
            # Demand evaluation's in-progress instances and touch sets (a
            # child state, SnapshotState, keeps them per thread).
            self.in_progress: Dict[Tuple[Any, ...], Relation] = {}
            self.touch_stack: List[Set[Tuple[Any, ...]]] = []
        else:
            self.extents = dict(parent.extents)
            self.name_gen = dict(parent.name_gen)
            self.rule_gen = dict(parent.rule_gen)
        self._parent = parent
        #: family (see COUNTER_FAMILIES) -> event -> count.
        self.counters: Dict[str, Dict[str, int]] = {
            family: {} for family in COUNTER_FAMILIES}
        # Instance memo: refs-signature key -> Relation (value-keyed, so
        # unpinned).
        self.memo: Dict[Tuple[Any, ...], Relation] = {}
        # Compiled executable plans (repro.engine.plan): plan key ->
        # (pinned anchor object, ConjunctionPlan), valid while the plan's
        # rules-generation signature matches.
        self.plans: Dict[Tuple[Any, ...], Tuple[Any, Any]] = {}
        # (id(relation), prefix length) -> (pinned relation, prefix index).
        # A base update installs a *new* Relation object (generation bump),
        # so no cache below can serve a stale entry.
        self._indexes: Dict[Tuple[int, int], Tuple[Relation, Any]] = {}
        # (id(relation), column permutation) -> (pinned relation, sorted
        # trie): prepared queries re-running against unchanged relations
        # hit it.
        self._tries: Dict[Tuple[int, Tuple[int, ...]],
                          Tuple[Relation, Any]] = {}
        # (id(relation), key positions) -> (pinned relation, hash index in
        # sort_key space): the binary-join analog of the sorted-trie cache,
        # so fixpoint iterations stop re-hashing unchanged relations.
        self._atom_indexes: Dict[Tuple[int, Tuple[int, ...]],
                                 Tuple[Relation, Any]] = {}
        # id(bindings-or-rule) -> (pinned key object, skeleton): memoized
        # _binding_guards results for stable AST binding tuples and rules.
        self._skeletons: Dict[int, Tuple[Any, Any]] = {}

    def _inherited(self, cache: str, key):
        """The parent's entry for ``key`` in the cache named ``cache``
        (``None`` without a parent or an entry)."""
        parent = self._parent
        return None if parent is None else getattr(parent, cache).get(key)

    def _build(self, cache: str, key, pin, limit: int, make, *args):
        """The miss path of an identity-pinned lookup in the cache named
        ``cache``: the parent's value if its entry pins ``pin``, else
        ``make(*args)``, stored here."""
        parent = self._parent
        if parent is not None:
            entry = getattr(parent, cache).get(key)
            if entry is not None and entry[0] is pin:
                return entry[1]
        value = make(*args)
        bounded_store(getattr(self, cache), key, (pin, value), limit)
        return value

    def bump_name(self, name: str) -> None:
        self.name_gen[name] = self.name_gen.get(name, 0) + 1

    def bump_rule_gen(self, name: str) -> None:
        self.rule_gen[name] = self.rule_gen.get(name, 0) + 1

    def count(self, family: str, event: str, n: int = 1) -> None:
        """Bump ``event`` in one counter family (the tables behind the
        ``*_statistics()`` and ``evaluation_counts()`` accessors)."""
        table = self.counters[family]
        table[event] = table.get(event, 0) + n

    # -- compiled plans ------------------------------------------------------

    def plan_sig(self, refs) -> Tuple[Tuple[str, int], ...]:
        """The rules-generation signature of a refs set, as stored in a
        plan at compile time."""
        gens = self.rule_gen
        return tuple(sorted((n, gens.get(n, 0)) for n in refs))

    def _plan_current(self, plan) -> bool:
        gens = self.rule_gen
        for name, gen in plan.sig:
            if gens.get(name, 0) != gen:
                return False
        return True

    def plan_lookup(self, key):
        """The cached plan for ``key``, if present and still valid under
        this state's rules generations: a stale own entry is dropped here,
        a stale parent entry is left alone (it may be valid over there)."""
        entry = self.plans.get(key)
        if entry is not None:
            if self._plan_current(entry[1]):
                return entry[1]
            self.plans.pop(key, None)
            self.count("plan", "invalidated")
        entry = self._inherited("plans", key)
        if entry is not None and self._plan_current(entry[1]):
            return entry[1]
        return None

    def install_plan(self, key, anchor, plan) -> None:
        bounded_store(self.plans, key, (anchor, plan), self.PLAN_LIMIT)
        self.count("plan", "compiled")

    def drop_plans_for(self, names: Set[str]) -> None:
        """Drop every plan whose transitive refs meet ``names`` (rule
        changes); plans over untouched strata stay warm."""
        if not self.plans:
            return
        dead = [key for key, (_, plan) in self.plans.items()
                if plan.refs & names]
        for key in dead:
            self.plans.pop(key, None)
        if dead:
            self.count("plan", "invalidated", len(dead))

    def skeleton(self, key_obj, builder):
        """Memoized ``builder(key_obj)`` keyed on the identity of a stable
        object (an AST bindings tuple or a compiled rule), which is pinned
        by the entry."""
        key = id(key_obj)
        entry = self._skeletons.get(key)
        if entry is not None and entry[0] is key_obj:
            return entry[1]
        return self._build("_skeletons", key, key_obj, self.SKELETON_LIMIT,
                           builder, key_obj)

    def memo_get(self, key: Tuple[Any, ...]) -> Optional[Relation]:
        """Instance-memo lookup: single atomic ``get`` calls, so concurrent
        readers sharing a state can never observe a half-deleted entry.
        A parent hit is valid by construction: its key embeds the
        (name, generation) signature this state computed."""
        hit = self.memo.get(key)
        return hit if hit is not None else self._inherited("memo", key)

    def memoize(self, key: Tuple[Any, ...], rel: Relation) -> None:
        bounded_store(self.memo, key, rel, self.MEMO_LIMIT)

    def set_extent(self, name: str, rel: Relation) -> bool:
        """Install ``rel`` and bump the generation iff it is a change."""
        old = self.extents.get(name)
        if old is None or old != rel:
            self.extents[name] = rel
            self.bump_name(name)
            return True
        return False

    def drop_extent(self, name: str) -> None:
        """Forget a computed extent without bumping its generation: if the
        recomputation reproduces the same relation, dependent memos stay
        valid."""
        self.extents.pop(name, None)

    def prune_memo(self, names: Set[str]) -> None:
        """Evict memo entries whose reference signature mentions ``names``
        (their keys are already unreachable; this just frees memory).
        Entries made stale through Relation-*valued* keys (e.g. ``TC[E]``
        after E changed) are not identifiable here; the MEMO_LIMIT cap
        bounds those."""
        if not self.memo:
            return
        dead = [key for key in self.memo
                if any(n in names for n, _ in key[0])]
        for key in dead:
            self.memo.pop(key, None)

    def carry_indexes(self, old: Relation, new: Relation, plus: Relation,
                      minus: Relation) -> None:
        """Give ``new``, which is ``old`` with ``minus`` removed and ``plus``
        added, the prefix indexes ``old`` has here, patched by that delta:
        one copy of the key table and of the touched buckets, where a probe
        of ``new`` would rebuild the whole index."""
        for (_, n), (pin, index) in list(self._indexes.items()):
            if pin is not old or (id(new), n) in self._indexes:
                continue
            index = dict(index)
            for t in minus.rows():
                gone = model_row_key(t)
                index[t[:n]] = [u for u in index.get(t[:n], ())
                                if model_row_key(u) != gone]
            for t in plus.rows():
                if len(t) >= n:
                    index[t[:n]] = index.get(t[:n], []) + [t]
            bounded_store(self._indexes, (id(new), n), (new, index),
                          self.INDEX_LIMIT)

    def drop_indexes_for(self, rels: Iterable[Relation]) -> None:
        """Drop atom-index and sorted-trie entries pinned to exactly the
        given relation objects (the replaced extents of an update). The
        id()-pinning already makes stale hits impossible; this frees the
        dead entries without nuking caches for unaffected relations — the
        point of stratum-level invalidation for prepared-query reuse."""
        ids = {id(r) for r in rels if r is not None}
        if not ids:
            return
        for cache in (self._indexes, self._tries, self._atom_indexes):
            for key in [k for k in cache if k[0] in ids]:
                cache.pop(key, None)

    def index(self, rel: Relation, prefix_len: int):
        """Hash index of ``rel`` on its first ``prefix_len`` positions."""
        key = (id(rel), prefix_len)
        entry = self._indexes.get(key)
        if entry is not None:
            return entry[1]
        return self._build("_indexes", key, rel, self.INDEX_LIMIT,
                           _prefix_index, rel, prefix_len)

    def sorted_trie(self, atom, perm: Tuple[int, ...]):
        """Cached sorted trie for a leapfrog join atom.

        ``atom`` is a :class:`repro.joins.planner.Atom` whose ``source`` is
        the backing :class:`Relation`; ``perm`` the column permutation the
        global variable order imposes. One trie build serves every
        evaluation until the relation's generation changes (updates
        install new Relation objects)."""
        source = atom.source
        key = (id(source), tuple(perm))
        entry = self._tries.get(key)
        if entry is not None and entry[0] is source:
            return entry[1]
        return self._build("_tries", key, source, self.TRIE_LIMIT,
                           _sorted_trie, atom, perm)

    def atom_index(self, atom, positions: Tuple[int, ...]):
        """Cached hash index of a join atom on the given column positions
        (``sort_key`` space — the binary join's key semantics).

        ``atom`` is a :class:`repro.joins.planner.Atom` whose ``source`` is
        the backing :class:`Relation`, so fixpoint iterations and
        prepared-query re-runs probe a prebuilt index instead of re-hashing
        the (unchanged) relation every call."""
        source = atom.source
        key = (id(source), tuple(positions))
        entry = self._atom_indexes.get(key)
        if entry is not None and entry[0] is source:
            return entry[1]
        return self._build("_atom_indexes", key, source, self.INDEX_LIMIT,
                           _atom_index, atom, positions)


def _prefix_index(rel: Relation, prefix_len: int):
    index: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
    for tup in rel.rows():
        if len(tup) >= prefix_len:
            index.setdefault(tup[:prefix_len], []).append(tup)
    return index


def _sorted_trie(atom, perm: Tuple[int, ...]):
    from repro.joins.leapfrog import build_sorted_trie
    from repro.joins.planner import permuted_rows
    return build_sorted_trie(permuted_rows(atom, perm))


def _atom_index(atom, positions: Tuple[int, ...]):
    from repro.model.values import sort_key
    index: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
    for row in atom.rows:
        index.setdefault(tuple(sort_key(row[i]) for i in positions),
                         []).append(row)
    return index


class EvalContext:
    """The ``ctx`` protocol consumed by :mod:`repro.engine.expand`."""

    def __init__(self, program: "RelProgram", state: EvalState,
                 options: EngineOptions) -> None:
        self.program = program
        self.state = state
        self.options = options
        self._orderable_cache: Dict[Tuple[Any, ...], bool] = {}
        self._orderable_stack: Set[Tuple[Any, ...]] = set()

    # -- name resolution -----------------------------------------------------

    def resolve(self, name: str) -> Tuple[str, Any]:
        """Runtime resolution to ("extent", Relation) | ("closure", Closure) |
        ("builtin", Builtin); raises UnknownRelationError otherwise.

        Materialized names that have not been evaluated yet are evaluated
        here (lazily, together with their stratum)."""
        state = self.state
        if name in state.extents:
            return "extent", state.extents[name]
        program = self.program
        if name in program.closures:
            if program.is_materialized(name):
                return "extent", program._materialize_single(name, self)
            return "closure", program.closures[name]
        base = program.base_relation(name)
        if base is not None:
            return "extent", base
        builtin = bi.lookup(name)
        if builtin is not None:
            return "builtin", builtin
        raise UnknownRelationError(name)

    def resolve_kind(self, name: str) -> Tuple[str, Any]:
        """Simulation-safe resolution: reports the kind without ever
        triggering materialization (the payload may be None for extents)."""
        state = self.state
        if name in state.extents:
            return "extent", state.extents[name]
        program = self.program
        if name in program.closures:
            closure = program.closures[name]
            if program.is_materialized(name):
                return "extent", state.extents.get(name)
            return "closure", closure
        base = program.base_relation(name)
        if base is not None:
            return "extent", base
        builtin = bi.lookup(name)
        if builtin is not None:
            return "builtin", builtin
        return "unknown", None

    # -- instance extents -----------------------------------------------------

    def cache_key(self, value: Any) -> Any:
        """Hashable identity of a runtime value under the engine's value
        identity: closures capturing ``True`` and ``1`` are different
        instances (and different groups of a per-row application)."""
        if isinstance(value, Relation):
            return value
        if isinstance(value, Builtin):
            return ("builtin", value.name)
        if isinstance(value, Closure):
            env_items = tuple(
                sorted(
                    (k, self.cache_key(v))
                    for k, v in value.env.flatten().items()
                )
            )
            return ("closure", value.name, tuple(id(r) for r in value.rules),
                    env_items)
        if type(value) is tuple:  # a captured tuple variable
            return model_row_key(value)
        return value_key(value)

    def closure_extent(self, closure: Closure, rel_values: Tuple[Any, ...],
                       demand: Tuple[Tuple[int, Any], ...],
                       full_arity: Optional[int] = None) -> Relation:
        """Extent of a closure instance (rules with matching parameter count),
        optionally restricted to demanded head-position bindings."""
        rules = tuple(
            r for r in closure.rules if len(r.rel_positions) == len(rel_values)
        )
        if not rules:
            return EMPTY
        if self.group_full_orderable(closure, len(rel_values)):
            demand = ()
            full_arity = None
        state = self.state
        key = (
            self._refs_signature(closure, rel_values),
            tuple(id(r) for r in rules),
            self.cache_key(closure),
            tuple(self.cache_key(v) for v in rel_values),
            demand,
            full_arity,
        )
        memoized = state.memo_get(key)
        if memoized is not None:
            return memoized
        if key in state.in_progress:
            for frame_keys in state.touch_stack:
                frame_keys.add(key)
            return state.in_progress[key]

        state.in_progress[key] = EMPTY
        touched: Set[Tuple[Any, ...]] = set()
        state.touch_stack.append(touched)
        try:
            iterations = 0
            while True:
                iterations += 1
                if iterations > self.options.max_global_iterations:
                    raise ConvergenceError(
                        f"instance of {closure.name} did not stabilize after "
                        f"{iterations - 1} iterations"
                    )
                _budget.count_iteration()
                result = EMPTY
                for rule in rules:
                    env = closure.env.extend(
                        dict(zip(rule.rel_param_names, rel_values))
                    )
                    result = result.union(
                        eval_rule_relation(rule, env, self, demand, full_arity)
                    )
                if result == state.in_progress[key]:
                    break
                state.in_progress[key] = result
                if key not in touched:
                    break  # not self-recursive: a single pass suffices
                touched.discard(key)
        finally:
            state.touch_stack.pop()
            del state.in_progress[key]
        foreign = touched - {key}
        if foreign:
            # Result depends on an enclosing in-progress approximation:
            # propagate the taint and skip memoization.
            for frame_keys in state.touch_stack:
                frame_keys.update(foreign)
        else:
            state.memoize(key, result)
        return result

    # -- generation-tagged memo signatures ---------------------------------------

    def _refs_signature(self, closure: Closure,
                        rel_values: Tuple[Any, ...]) -> Tuple[Tuple[str, int], ...]:
        """The (name, generation) pairs of every program name the instance
        can observe: the transitive references of the closure's rules, of
        any closure passed as a relation parameter, and of closures
        captured in environments. A memo entry is reusable exactly when
        this signature is unchanged — stratum-level instead of global
        invalidation. Only the generations are read per call: the names a
        rule tuple references are cached on the program."""
        names: Sequence[str] = self.program.rule_ref_names(closure.rules)
        extra: Set[str] = set()
        self._collect_env_refs(closure.env, extra)
        for value in rel_values:
            self._collect_value_refs(value, extra)
        if extra:
            names = sorted(extra.union(names))
        gens = self.state.name_gen
        return tuple((n, gens[n]) for n in names if n in gens)

    def _collect_value_refs(self, value: Any, refs: Set[str]) -> None:
        if isinstance(value, Closure):
            refs.update(self.program.rule_ref_names(value.rules))
            self._collect_env_refs(value.env, refs)

    def _collect_env_refs(self, env: Env, refs: Set[str]) -> None:
        if env is not Env.EMPTY:
            for captured in env.flatten().values():
                self._collect_value_refs(captured, refs)

    # -- static orderability ----------------------------------------------------

    def group_full_orderable(self, closure: Closure, k: int) -> bool:
        """Can an instance of the ``k``-parameter rule group be fully
        materialized (no demanded bindings)? The same for every instance:
        relation parameters are stand-in extents to the simulation."""
        return self.group_orderable_sim(closure, k, frozenset(), None)

    def group_orderable_sim(self, closure: Closure, k: int,
                            demanded: FrozenSet[int],
                            full_arity: Optional[int]) -> bool:
        rules = tuple(r for r in closure.rules if len(r.rel_positions) == k)
        if not rules:
            return False
        return self.rules_orderable_sim(rules, demanded, full_arity,
                                        base_env=closure.env)

    def rules_orderable_sim(self, rules: Sequence[Rule],
                            demanded: FrozenSet[int],
                            full_arity: Optional[int],
                            base_env: Optional[Env] = None) -> bool:
        key = (tuple(id(r) for r in rules), demanded, full_arity,
               id(base_env) if base_env is not None else 0)
        # Results are only cached for program closures (no captured env):
        # id()-keyed caching of transient environments would risk aliasing.
        cacheable = base_env is None or base_env is Env.EMPTY
        if cacheable:
            cached = self._orderable_cache.get(key)
            if cached is not None:
                return cached
        if key in self._orderable_stack:
            # Recursive query: assume orderable (the in-progress extent is a
            # finite approximation, enumerable in any pattern).
            return True
        self._orderable_stack.add(key)
        try:
            ok = all(
                rule_orderable(rule, _demand_names(rule, demanded, full_arity),
                               self, base_env)
                for rule in rules
            )
        finally:
            self._orderable_stack.discard(key)
        if cacheable:
            self._orderable_cache[key] = ok
        return ok


def _demand_names(rule: Rule, demanded: FrozenSet[int],
                  full_arity: Optional[int]) -> FrozenSet[str]:
    """Static counterpart of ``align_demand``: which head variables would the
    demanded positions bind?"""
    from repro.engine.expand import ALL_POSITIONS, _binding_guards

    _, _, positional = _binding_guards(rule.value_head)
    if demanded == ALL_POSITIONS:
        names = set()
        for b in positional:
            if isinstance(b, (ast.VarBinding, ast.TupleVarBinding)):
                names.add(b.name)
        return frozenset(names)
    tv_index = None
    for i, b in enumerate(positional):
        if isinstance(b, ast.TupleVarBinding):
            tv_index = i
            break
    names: Set[str] = set()
    for pos in demanded:
        if tv_index is None or pos < tv_index:
            if pos < len(positional) and isinstance(positional[pos], ast.VarBinding):
                names.add(positional[pos].name)
        elif full_arity is not None:
            n_after = len(positional) - tv_index - 1
            if pos >= full_arity - n_after:
                fpos = len(positional) - (full_arity - pos)
                if 0 <= fpos < len(positional) and \
                        isinstance(positional[fpos], ast.VarBinding):
                    names.add(positional[fpos].name)
    if tv_index is not None and full_arity is not None:
        n_before = tv_index
        n_after = len(positional) - tv_index - 1
        seg_len = full_arity - n_before - n_after
        if seg_len >= 0 and all(n_before + i in demanded for i in range(seg_len)):
            names.add(positional[tv_index].name)
    return frozenset(names)


# ---------------------------------------------------------------------------
# Occurrence analysis for semi-naive eligibility and delta rewriting
# ---------------------------------------------------------------------------


def _collect_occurrences(node: ast.Node, names: Set[str], restricted: bool,
                         out: List[Tuple[str, bool]]) -> None:
    """Collect references to ``names`` with a restriction flag.

    Restricted contexts (negation, universal quantification, aggregation
    arguments, comparisons, overrides) block delta rewriting."""
    if isinstance(node, ast.Ref):
        if node.name in names:
            out.append((node.name, restricted))
        return
    if isinstance(node, (ast.Not, ast.ForAll, ast.Implies, ast.Iff, ast.Xor,
                         ast.LeftOverride, ast.Compare)):
        for child in node.children():
            _collect_occurrences(child, names, True, out)
        return
    if isinstance(node, ast.Application):
        _collect_occurrences(node.target, names, restricted, out)
        target = node.target
        while isinstance(target, ast.Application):
            target = target.target
        args_restricted = restricted
        if isinstance(target, ast.Ref) and target.name == "reduce":
            args_restricted = True
        for arg in node.args:
            # A recursive name appearing *inside* an argument (as a relation
            # parameter) is an aggregation-style use: restricted.
            _collect_occurrences(arg, names, True if _contains_name_as_rel(arg, names)
                                 else args_restricted, out)
        return
    for child in node.children():
        _collect_occurrences(child, names, restricted, out)


def _contains_name_as_rel(node: ast.Node, names: Set[str]) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Ref) and sub.name in names:
            return True
    return False


def _transform(node: ast.Node, fn) -> ast.Node:
    """Generic bottom-up AST transformer over frozen dataclass nodes."""
    replacement = fn(node)
    if replacement is not None:
        return replacement
    changes = {}
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, ast.Node):
            new = _transform(value, fn)
            if new is not value:
                changes[field.name] = new
        elif isinstance(value, tuple) and value and isinstance(value[0], ast.Node):
            new_items = tuple(_transform(v, fn) for v in value)
            if any(a is not b for a, b in zip(new_items, value)):
                changes[field.name] = new_items
    if changes:
        return dataclasses.replace(node, **changes)
    return node


def _delta_variants_with_targets(
        rule: Rule, names: Set[str]) -> List[Tuple[str, ast.Node]]:
    """All delta rewrites of the rule body: one per positive occurrence of a
    name in ``names``, with that occurrence redirected to
    ``__delta__<name>``. Returns ``(target name, rewritten body)`` pairs so
    drivers can skip variants whose target delta is currently empty."""
    occurrences: List[Tuple[str, bool]] = []
    _collect_occurrences(rule.body, names, False, occurrences)
    variants: List[Tuple[str, ast.Node]] = []
    for target_idx, (target_name, _) in enumerate(occurrences):
        counter = {"i": -1}

        def replace(node: ast.Node):
            if isinstance(node, ast.Ref) and node.name in names:
                counter["i"] += 1
                if counter["i"] == target_idx:
                    return ast.Ref("__delta__" + node.name, pos=node.pos)
            return None

        variants.append((target_name, _transform(rule.body, replace)))
    return variants


def _delta_variants_of(rule: Rule,
                       watch: FrozenSet[str]) -> List[Tuple[str, Rule]]:
    return [(target, dataclasses.replace(rule, body=body))
            for target, body in _delta_variants_with_targets(rule, set(watch))]


def _shadows_any(node: ast.Node, names: Set[str]) -> bool:
    """Does any abstraction/quantifier binder rebind one of ``names``?
    Delta rewriting is purely name-based, so a shadowed occurrence would be
    redirected incorrectly — such rules are maintenance-ineligible."""
    for sub in ast.walk(node):
        bindings = getattr(sub, "bindings", None)
        if bindings:
            for binding in bindings:
                if getattr(binding, "name", None) in names:
                    return True
    return False


def _key_analysis(rule: Rule, changed: FrozenSet[str]):
    """``(i, {(name, column)})`` when every occurrence of a ``changed``
    name (body or head domain) is an application whose argument at
    ``column`` is the head variable at head position ``i``, the same ``i``
    for all, with only one-column arguments before it and no binder
    rebinding it; ``(None, set())`` when the rule reads no changed name;
    None when it cannot be keyed."""
    heads: Dict[str, int] = {}
    reads: List[ast.Node] = [rule.body]
    varargs = False  # past a tuple variable, position p is not column p
    for p, b in enumerate(rule.value_head):
        if isinstance(b, (ast.TupleVarBinding, ast.TupleWildcardBinding)):
            varargs = True
        elif isinstance(b, (ast.VarBinding, ast.InBinding)) and not varargs:
            heads.setdefault(b.name, p)
        if isinstance(b, ast.InBinding):
            reads.append(ast.Application(b.domain, (ast.Ref(b.name),), False))
        elif isinstance(b, ast.ConstBinding):
            reads.append(b.expr)
    found: Set[Tuple[str, int, str]] = set()

    def keyed(node: ast.Node, scope: FrozenSet[str]) -> bool:
        # ``scope``: the binder variables in force, one-column arguments.
        if isinstance(node, ast.Ref):
            return node.name not in changed
        if isinstance(node, (ast.Exists, ast.ForAll, ast.Abstraction)):
            inner = scope | {b.name for b in node.bindings
                             if isinstance(b, (ast.VarBinding, ast.InBinding))}
            return all(keyed(b, scope) for b in node.bindings) and \
                keyed(node.body, inner)
        if isinstance(node, ast.Application) and \
                isinstance(node.target, ast.Ref) and node.target.name in changed:
            for col, arg in enumerate(node.args):
                if isinstance(arg, ast.Ref) and arg.name in heads and \
                        arg.name not in scope:
                    found.add((node.target.name, col, arg.name))
                    return all(keyed(a, scope) for a in node.args)
                if not (isinstance(arg, (ast.Const, ast.Wildcard)) or
                        isinstance(arg, ast.Ref) and arg.name in scope):
                    return False
            return False
        return all(keyed(child, scope) for child in node.children())

    if rule.rel_positions or _shadows_any(rule.body, changed) or \
            changed & {getattr(b, "name", None) for b in rule.head} or \
            not all(keyed(node, frozenset()) for node in reads):
        return None
    keys = {h for _, _, h in found}
    positions = {heads[h] for h in keys}
    if len(positions) > 1 or _shadows_any(rule.body, keys):
        return None
    return (positions.pop() if positions else None,
            {(name, col) for name, col, _ in found})


# ---------------------------------------------------------------------------
# The program
# ---------------------------------------------------------------------------


class RelProgram:
    """A Rel program: rules + base relations, with query evaluation.

    >>> program = RelProgram()
    >>> program.define("E", Relation([(1, 2), (2, 3)]))
    >>> program.add_source('''
    ...     def TC(x, y) : E(x, y)
    ...     def TC(x, y) : exists((z) | E(x, z) and TC(z, y))
    ... ''')
    >>> sorted(program.relation("TC").tuples)
    [(1, 2), (1, 3), (2, 3)]
    """

    #: Cap for the identity-pinned delta-variant cache (entries evict
    #: oldest-half on overflow, like the EvalState caches) and for the
    #: rule-reference cache (dropped whole): replaced rules must not stay
    #: pinned forever in long-lived sessions.
    VARIANT_LIMIT = 2048

    def __init__(self, source: str = "",
                 database: Optional[Mapping[str, Relation]] = None,
                 load_stdlib: bool = True,
                 options: Optional[EngineOptions] = None) -> None:
        self.options = options or EngineOptions()
        # The one ingest point of base data: a caller's list or generator
        # is materialized here, so no later change on their side reaches
        # the immutable values snapshots and checkpoints capture.
        self._base: Dict[str, Relation] = {
            name: rel if isinstance(rel, Relation) else Relation(rel)
            for name, rel in (database or {}).items()}
        self._rules: Dict[str, List[Rule]] = {}
        self._constraints: List[ast.ICDef] = []
        self.closures: Dict[str, Closure] = {}
        self._materialized: Optional[Dict[str, bool]] = None
        self._recursive: Set[str] = set()
        self._state: Optional[EvalState] = None
        self._ctx: Optional[EvalContext] = None
        self._strata: Optional[List[List[str]]] = None
        self._refs_cache: Dict[str, FrozenSet[str]] = {}
        self._rule_refs: Dict[Tuple[int, ...],
                              Tuple[Tuple[Rule, ...], Tuple[str, ...]]] = {}
        self._all_refs: Optional[FrozenSet[str]] = None
        # (id(rule), watch set, analysis) -> (pinned rule, result): delta
        # rewrites and key analyses are pure functions of the rule body, so
        # each is built once, and the rewritten Rule objects stay
        # identity-stable — which is what lets compiled plans for delta
        # bodies survive across fixpoints and maintenance passes.
        self._variant_cache: Dict[Tuple[int, FrozenSet[str], Any],
                                  Tuple[Rule, Any]] = {}
        if load_stdlib:
            from repro.stdlib import standard_library_source

            self._ingest(parse_program(standard_library_source()))
        if source:
            self.add_source(source)

    # -- building --------------------------------------------------------------

    def add_source(self, source: str) -> None:
        """Parse and add declarations; invalidates dependent evaluation."""
        self._ingest(parse_program(source))

    def _ingest(self, program: ast.Program) -> None:
        # Copy-on-write: the rule catalog and constraint list are *replaced*,
        # never mutated in place, so snapshots (which share the previous
        # containers) keep observing exactly the catalog they captured.
        added: Dict[str, List[Rule]] = {}
        new_ics: List[ast.ICDef] = []
        for decl in program.declarations:
            if isinstance(decl, ast.RuleDef):
                added.setdefault(decl.name, []).append(compile_rule(decl))
            elif isinstance(decl, ast.ICDef):
                new_ics.append(decl)
        if new_ics:
            self._constraints = self._constraints + new_ics
        if added:
            rules = dict(self._rules)
            for name, fresh in added.items():
                rules[name] = list(rules.get(name, ())) + fresh
            self._rules = rules
            self._invalidate_rules(set(added))

    def define(self, name: str, relation: Relation) -> None:
        """Install or replace a base (EDB) relation.

        Replacing an existing relation computes the insert/delete deltas and
        maintains dependent materialized extents incrementally when the
        delta size and occurrence analysis allow it; otherwise only
        the strata that (transitively) depend on it are dirtied. Everything
        else keeps its computed extent and instance memos."""
        self._apply_updates_inner(replacements({name: relation}, self._base))

    def _define_new_base(self, name: str) -> None:
        """First touch of a brand-new base name.

        Installing a name that nothing refers to cannot change name
        resolution, safety, or orderability of anything already analyzed —
        no extent or memo can observe it, so nothing is invalidated (the
        targeted first-touch path). Only when the name is also rule-defined,
        shadows a builtin, or is referenced by existing rules (it may have
        been classified as unknown/unsafe) does the analysis start over."""
        if name in self._rules or bi.lookup(name) is not None \
                or name in self._all_rule_refs():
            self._invalidate()

    def base_relation(self, name: str) -> Optional[Relation]:
        return self._base.get(name)

    @property
    def base_relations(self) -> Mapping[str, Relation]:
        return dict(self._base)

    def durable_state(self) -> Mapping[str, Relation]:
        """The base mapping as a frozen capture for checkpoint serialization.

        Unlike :attr:`base_relations` this does *not* copy: every mutator
        on this class rebinds ``_base`` to a fresh dict rather than
        mutating in place (the same copy-on-write discipline snapshots
        rely on), so the returned mapping is immutable from the moment it
        is captured and can be serialized from a background thread while
        writers continue. Derived relations are deliberately absent — they
        are reconstructible from sources + base, which is the storage
        layer's whole contract."""
        return self._base

    @property
    def constraints(self) -> List[ast.ICDef]:
        return list(self._constraints)

    def rules_of(self, name: str) -> List[Rule]:
        return list(self._rules.get(name, []))

    def _invalidate(self) -> None:
        """Full reset: discard every computed extent, memo, and analysis."""
        self.closures = {
            name: Closure(name, tuple(rules), Env.EMPTY)
            for name, rules in self._rules.items()
        }
        self._materialized = None
        self._state = None
        self._ctx = None
        self._strata = None
        self._refs_cache = {}
        self._rule_refs = {}
        self._all_refs = None
        self._variant_cache = {}

    def _invalidate_rules(self, changed: Set[str]) -> None:
        """Rules were added for ``changed`` names: rebuild their closures,
        redo the (cheap) static analyses, and drop only the extents that can
        observe the change."""
        closures = dict(self.closures)
        for name in changed:
            closures[name] = Closure(name, tuple(self._rules[name]),
                                     Env.EMPTY)
        self.closures = closures
        self._materialized = None
        self._strata = None
        self._refs_cache = {}
        self._rule_refs = {}
        self._all_refs = None
        # Rebind to a *copy* (never mutate in place): published snapshots
        # share the old dict and must stop observing our writes, while the
        # parent keeps its warm entries — they stay valid under rule
        # changes because each is a pure function of its identity-pinned
        # Rule object (replaced rules age out via the LIMIT eviction).
        self._variant_cache = dict(self._variant_cache)
        if self._state is None:
            return
        if self._ctx is not None:
            # New rules can flip orderability of anything referencing them.
            self._ctx._orderable_cache.clear()
        state = self._state
        for name in changed:
            state.bump_name(name)
            # Rule changes (unlike data updates) can flip scheduling and
            # atom-eligibility decisions: stale compiled plans are dropped
            # stratum-level via their refs/generation signatures.
            state.bump_rule_gen(name)
        state.drop_plans_for(changed)
        dropped = self._drop_dependent_extents(changed)
        state.prune_memo(changed)
        state.drop_indexes_for(dropped)

    def _invalidate_data(self, name: str, old: Relation) -> None:
        """A base relation changed in place: dirty only dependent strata.
        Index/trie cache entries are dropped only for the relations actually
        replaced (``old``) or discarded — unaffected relations keep their
        prepared-query tries warm."""
        if self._state is None:
            return
        state = self._state
        state.bump_name(name)
        dropped = self._drop_dependent_extents({name})
        state.prune_memo({name})
        state.drop_indexes_for(dropped + [old])
        state.count("maintenance", "full_invalidations")

    def _drop_dependent_extents(self, changed: Set[str]) -> List[Relation]:
        """Drop every extent that can observe ``changed``; returns the
        dropped relation objects (for targeted index-cache eviction)."""
        state = self._state
        dropped: List[Relation] = []
        for extent_name in list(state.extents):
            if extent_name in changed or changed & self._refs_of(extent_name):
                rel = state.extents.get(extent_name)
                if rel is not None:
                    dropped.append(rel)
                state.drop_extent(extent_name)
        return dropped

    def delta_variants_of(self, rule: Rule,
                          watch: FrozenSet[str]) -> List[Tuple[str, Rule]]:
        """Cached ``(target name, delta-variant rule)`` pairs for one rule
        under one watch set (see :func:`_delta_variants_with_targets`).

        The variant Rule objects are identity-stable across calls, so the
        plan cache and the orderability caches key on them reliably."""
        return self._rule_analysis(rule, watch, _delta_variants_of)

    def _rule_analysis(self, rule: Rule, watch: FrozenSet[str], analyse):
        """``analyse(rule, watch)``, cached per rule and watch set."""
        key = (id(rule), watch, analyse)
        cached = self._variant_cache.get(key)
        if cached is not None and cached[0] is rule:
            return cached[1]
        result = analyse(rule, watch)
        bounded_store(self._variant_cache, key, (rule, result),
                      self.VARIANT_LIMIT)
        return result

    def _all_rule_refs(self) -> FrozenSet[str]:
        """The union of every rule body's free names (cached): the set of
        names whose first definition could change existing analysis."""
        if self._all_refs is None:
            refs: Set[str] = set()
            for rules in self._rules.values():
                for rule in rules:
                    refs |= rule.free
            self._all_refs = frozenset(refs)
        return self._all_refs

    def _refs_of(self, name: str) -> FrozenSet[str]:
        """Every name reachable from ``name`` through rule bodies (including
        ``name`` itself and base/unresolved leaves)."""
        cached = self._refs_cache.get(name)
        if cached is not None:
            return cached
        seen = {name}
        stack = [name]
        while stack:
            current = stack.pop()
            for rule in self._rules.get(current, ()):
                for ref in rule.free:
                    if ref not in seen:
                        seen.add(ref)
                        stack.append(ref)
        refs = frozenset(seen)
        self._refs_cache[name] = refs
        return refs

    def rule_ref_names(self, rules: Tuple[Rule, ...]) -> Tuple[str, ...]:
        """The sorted names reachable from the rules' bodies — what
        :meth:`_refs_of` gives for each of their free names — cached per
        rule tuple. An entry pins its rules, so their ids stay theirs; the
        cache is dropped with ``_refs_cache`` whenever rules change."""
        key = tuple(map(id, rules))
        entry = self._rule_refs.get(key)
        if entry is None:
            refs: Set[str] = set()
            for rule in rules:
                for name in rule.free:
                    refs |= self._refs_of(name)
            if len(self._rule_refs) >= self.VARIANT_LIMIT:
                self._rule_refs = {}
            self._rule_refs[key] = entry = (rules, tuple(sorted(refs)))
        return entry[1]

    # -- analysis ---------------------------------------------------------------

    def dependencies(self, name: str) -> Set[str]:
        """Defined names referenced (directly) by the rules of ``name``."""
        deps: Set[str] = set()
        for rule in self._rules.get(name, []):
            deps |= {n for n in rule.free if n in self._rules}
        return deps

    def _compute_strata(self) -> List[List[str]]:
        """SCC condensation in topological order (Tarjan)."""
        names = list(self._rules)
        graph = {n: self.dependencies(n) for n in names}
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        def strongconnect(v: str) -> None:
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            for w in graph[v]:
                if w not in index:
                    strongconnect(w)
                    low[v] = min(low[v], low[w])
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                sccs.append(component)

        for name in names:
            if name not in index:
                strongconnect(name)
        # Tarjan emits SCCs in reverse topological order of the condensation
        # for dependency edges; dependencies-first is exactly this order.
        self._recursive = set()
        for component in sccs:
            if len(component) > 1:
                self._recursive |= set(component)
            else:
                n = component[0]
                if n in self.dependencies(n):
                    self._recursive.add(n)
        return sccs

    def is_recursive(self, name: str) -> bool:
        if self._strata is None:
            self._strata = self._compute_strata()
        return name in self._recursive

    def is_materialized(self, name: str) -> bool:
        if self._materialized is None:
            self._classify()
        return self._materialized.get(name, False)

    def _classify(self) -> None:
        """Decide which names are materializable (first-order + safe)."""
        ctx = self._context()
        self._materialized = {}
        for name, closure in self.closures.items():
            if any(r.rel_positions for r in closure.rules):
                self._materialized[name] = False
                continue
            try:
                ok = ctx.rules_orderable_sim(closure.rules, frozenset(), None)
            except UnknownRelationError:
                ok = False
            self._materialized[name] = ok

    # -- evaluation --------------------------------------------------------------

    def _context(self) -> EvalContext:
        if self._ctx is None:
            self._state = EvalState()
            self._ctx = EvalContext(self, self._state, self.options)
        return self._ctx

    def evaluate(self) -> Dict[str, Relation]:
        """Materialize every materializable defined relation."""
        ctx = self._context()
        if getattr(self, "_evaluating", False):
            return dict(ctx.state.extents)
        self._evaluating = True
        try:
            with _plane_stats(ctx.state):
                return self._evaluate_all(ctx)
        finally:
            self._evaluating = False

    def _evaluate_all(self, ctx: EvalContext) -> Dict[str, Relation]:
        if self._strata is None:
            self._strata = self._compute_strata()
        if self._materialized is None:
            self._classify()
        for component in self._strata:
            materializable = [n for n in component if self.is_materialized(n)]
            if not materializable:
                continue
            if all(n in ctx.state.extents for n in materializable):
                continue
            self._materialize_component(component, materializable, ctx)
        return dict(ctx.state.extents)

    def _is_recursive_component(self, component: List[str]) -> bool:
        return (len(component) > 1
                or component[0] in self.dependencies(component[0]))

    def _materialize_component(self, component: List[str],
                               materializable: List[str],
                               ctx: EvalContext) -> None:
        """From-scratch evaluation of one SCC (shared by the global
        evaluation walk and the maintenance driver's recompute fallback)."""
        state = ctx.state
        try:
            if not self._is_recursive_component(component):
                self._materialize_stratum_once(materializable, ctx)
            elif self._stratum_sn_eligible(component):
                # Round 0 from empty member extents; everything it derives
                # is the first frontier of the semi-naive rounds.
                for name in materializable:
                    state.set_extent(name, EMPTY)
                self._materialize_stratum_once(materializable, ctx)
                self._delta_rounds(
                    materializable, frozenset(materializable),
                    {n: state.extents[n] for n in materializable},
                    self._grow(state, True, {}), True, "evaluation", ctx)
            else:
                self._materialize_kleene(materializable, ctx)
        except BaseException:
            # Whatever stopped the fixpoint (a budget abort, a
            # ConvergenceError, an evaluation error), no partial
            # approximation may stay installed: drop the in-flight members'
            # extents so the next query recomputes them and fails or
            # succeeds the same way. Round 0 of that recomputation always
            # bumps the member generations past any transient ones, so
            # memos minted against the partial state are unreachable.
            self._discard_partial_component(materializable, ctx)
            raise

    def _discard_partial_component(self, names: List[str],
                                   ctx: EvalContext) -> None:
        state = ctx.state
        dropped = []
        for name in names:
            rel = state.extents.get(name)
            if rel is not None:
                dropped.append(rel)
            state.drop_extent(name)
        state.drop_indexes_for(dropped)

    def _materialize_single(self, name: str, ctx: EvalContext) -> Relation:
        """Materialize one name lazily (with its component if recursive)."""
        if not getattr(self, "_evaluating", False):
            self.evaluate()
        return ctx.state.extents.get(name, self._base.get(name, EMPTY))

    def _eval_name_once(self, name: str, ctx: EvalContext) -> Relation:
        ctx.state.count("eval", name)
        result = self._base.get(name, EMPTY)
        for rule in self._rules[name]:
            result = result.union(eval_rule_relation(rule, Env.EMPTY, ctx))
        return result

    def _materialize_stratum_once(self, names: List[str], ctx: EvalContext) -> None:
        for name in names:
            ctx.state.set_extent(name, self._eval_name_once(name, ctx))

    def _stratum_sn_eligible(self, component: List[str]) -> bool:
        recursive = set(component)
        for name in component:
            if not self.is_materialized(name):
                return False
            for rule in self._rules[name]:
                occurrences: List[Tuple[str, bool]] = []
                _collect_occurrences(rule.body, recursive, False, occurrences)
                if any(restricted for _, restricted in occurrences):
                    return False
        return True

    def _materialize_kleene(self, names: List[str], ctx: EvalContext) -> None:
        """Iterate all rules from the previous approximation until stable."""
        state = ctx.state
        for name in names:
            state.set_extent(name, self._base.get(name, EMPTY))
        iterations = 0
        while True:
            iterations += 1
            if iterations > self.options.max_global_iterations:
                raise ConvergenceError(
                    f"stratum {names} did not stabilize after {iterations - 1} "
                    f"iterations"
                )
            _budget.count_iteration()
            new_extents = {name: self._eval_name_once(name, ctx)
                           for name in names}
            changed = [state.set_extent(name, new_extents[name])
                       for name in names]  # every member: no short-circuit
            if not any(changed):
                return

    def _delta_rounds(self, members: List[str], watch: FrozenSet[str],
                      frontier: Dict[str, Relation], absorb,
                      recursive: bool, what: str, ctx: EvalContext) -> None:
        """The one semi-naive round loop: materialisation of a positive
        recursive stratum, insert propagation and DRed's over-delete search
        all run here.

        Each round installs ``frontier[x]`` as ``__delta__<x>`` for every
        watched name, evaluates each member's delta variants (one rewrite
        per positive occurrence of a watched name, see
        :meth:`delta_variants_of`) whose target frontier is non-empty, and
        hands their union to ``absorb(member, derived)``, which keeps what
        it needs and returns the fresh part: that member's next frontier.
        A non-recursive stratum stops after one round. The ``__delta__``
        extents are removed however the loop ends."""
        state = ctx.state
        variants = {m: [entry for rule in self._rules[m]
                        for entry in self.delta_variants_of(rule, watch)]
                    for m in members}
        iterations = 0
        try:
            while any(frontier.values()):
                iterations += 1
                if iterations > self.options.max_global_iterations:
                    raise ConvergenceError(
                        f"{what} of {members} did not stabilize after "
                        f"{iterations - 1} iterations"
                    )
                _budget.count_iteration()
                for x in watch:
                    state.extents["__delta__" + x] = frontier.get(x, EMPTY)
                next_frontier: Dict[str, Relation] = {}
                for m in members:
                    derived = EMPTY
                    evaluated = False
                    for target, variant_rule in variants[m]:
                        if frontier.get(target):
                            evaluated = True
                            derived = derived.union(eval_rule_relation(
                                variant_rule, Env.EMPTY, ctx))
                    if evaluated:
                        state.count("eval", m)
                        fresh = absorb(m, derived)
                        if fresh:
                            next_frontier[m] = fresh
                if not recursive:
                    break
                frontier = next_frontier
        finally:
            for x in watch:
                state.extents.pop("__delta__" + x, None)

    @staticmethod
    def _grow(state: EvalState, bump: bool, accs: Dict[str, Any]):
        """``absorb`` for materialisation and insert propagation: derived
        tuples the extent lacks join it and form the next frontier.

        Each member grows through a :class:`repro.model.columns.Accumulator`
        started from its extent at its first absorb, so a round costs time
        proportional to the change: the extent after a round is the new
        prefix view, the same object when nothing was fresh. A member it
        declines (untypeable rows, a tag change, kernels off) takes Relation
        difference and union for the rest of the call. ``accs`` collects
        each member's accumulator (``None`` once declined). With ``bump``
        every growth moves the member's generation (materialisation keeps
        generations exact round by round); insert propagation bumps once
        per stratum, in :meth:`_maintain_component_delta`."""
        def absorb(member: str, derived: Relation) -> Relation:
            extent = state.extents[member]
            acc = accs[member] if member in accs else \
                _columns.Accumulator.start(extent)
            fresh = acc.absorb(derived) \
                if acc is not None and acc.view is extent else None
            if fresh is None:
                accs[member] = None
                fresh = derived.difference(extent)
                grown = extent.union(fresh)
                _columns.count_plane("accumulate_fallback")
            else:
                accs[member], grown = acc, acc.view
                _columns.count_plane("accumulate")
            if fresh:
                state.extents[member] = grown
                if bump:
                    state.bump_name(member)
            return fresh
        return absorb

    # -- incremental maintenance (materialized views under updates) -------------
    #
    # The paper's engine (Section 5) keeps derived relations consistent
    # under base-relation updates. Instead of dropping every dependent
    # extent and recomputing (what :meth:`apply_updates` falls back to when
    # :meth:`_try_maintain` declines), the maintenance pass below walks the
    # affected SCC strata in topological order and, per stratum:
    #
    # - **inserts** run the delta rounds of :meth:`_delta_rounds` (the same
    #   ``__delta__<name>`` rewrites materialisation uses) seeded with the
    #   base delta, evaluated through the ordinary scheduler, so the WCOJ
    #   multiway-join path serves the delta joins;
    # - **deletes** run DRed: over-delete every tuple with a derivation
    #   through a deleted tuple (the same delta rounds, against the
    #   pre-update state), then re-derive the candidates that still have
    #   support in a separate loop of candidate-seeded rule evaluations;
    # - a non-recursive stratum whose rules use a changed name in a
    #   restricted context (negation, aggregation, comparisons, overrides)
    #   keyed on one head variable is re-evaluated on the keys the delta
    #   touches only (:meth:`_maintain_keyed`, counted as "keyed_strata"
    #   and "keyed_keys");
    # - other strata with a restricted occurrence are recomputed from
    #   scratch and diffed ("recomputed_strata"). Either way their *net*
    #   delta keeps propagating incrementally downstream.

    def maintenance_statistics(self) -> Dict[str, int]:
        """Per-event maintenance counters ("maintained_strata",
        "keyed_strata", "keyed_keys", "recomputed_strata",
        "overdeleted_tuples", …) — the explain hook mirroring
        :meth:`join_statistics`."""
        if self._state is None:
            return {}
        return dict(self._state.counters["maintenance"])

    def apply_updates(
        self,
        updates: Changes,
    ) -> None:
        """Apply a batch of net deltas, ``name → (plus, minus)`` (``plus``
        disjoint from the base, ``minus`` inside it; a missing name is
        created, even empty), through one maintenance pass — the entry
        point of every committed write."""
        with contextlib.ExitStack() as stack:
            if self._state is not None:
                stack.enter_context(_plane_stats(self._state))
            self._apply_updates_inner(updates)

    def _apply_updates_inner(self, updates: Changes) -> None:
        fresh: List[str] = []
        pre: Dict[str, Relation] = {}
        # Copy-on-write: the base mapping is replaced, never mutated in
        # place, so snapshots sharing the previous mapping stay frozen.
        base = dict(self._base)
        for name, (plus, minus) in updates.items():
            old = base.get(name)
            if old is None:
                fresh.append(name)
                base[name] = plus
            elif plus or minus:
                base[name], pre[name] = apply_delta(old, plus, minus), old
        self._base = base
        for name in fresh:
            self._define_new_base(name)
            if self._state is None:
                # The new name forced a full reset; nothing left to maintain.
                return
        if not pre:
            return
        maintained = False
        try:
            maintained = self._try_maintain(
                {name: updates[name] for name in pre}, pre)
        finally:
            # Declined maintenance, or an error (a budget abort, a
            # ConvergenceError) that left dependent strata stale relative
            # to the installed base: drop-and-recompute invalidation is
            # the consistent state either way.
            if not maintained:
                for name, old in pre.items():
                    self._invalidate_data(name, old)

    def _try_maintain(self, deltas: Changes,
                      pre: Dict[str, Relation]) -> bool:
        """Incrementally maintain materialized extents after base updates.

        ``deltas`` maps names to their non-empty net ``(plus, minus)``,
        already applied to ``_base``; ``pre`` holds their previous values.
        Returns True when the evaluation state has been brought up to date
        (possibly via per-stratum recompute fallbacks); False means the
        caller should fall back to drop-and-recompute invalidation."""
        state = self._state
        if state is None:
            return False
        ctx = self._ctx
        if any(_delta_replaces_most(plus, minus, len(pre[name]))
               for name, (plus, minus) in deltas.items()):
            return False
        for name in deltas:
            state.bump_name(name)
        state.prune_memo(set(deltas))
        try:
            # The base's previous values keep their indexes while the
            # strata are walked, so keyed re-evaluation can carry them.
            return self._maintain_strata(deltas, dict(pre), ctx)
        finally:
            state.drop_indexes_for(list(pre.values()))

    def _maintain_strata(self, deltas: Changes, pre: Dict[str, Relation],
                         ctx: EvalContext) -> bool:
        """The walk over the affected strata, in topological order."""
        state = ctx.state
        if not state.extents:
            # Nothing materialized yet: the generation bumps are all the
            # invalidation needed.
            return True
        if self._strata is None:
            self._strata = self._compute_strata()
        if self._materialized is None:
            self._classify()

        changed: Dict[str, Tuple[Relation, Relation]] = dict(deltas)
        # Affected names without a computable delta. ``unknown`` names lost
        # their extents (dependents must be dropped too); ``opaque`` names
        # are affected non-materialized closures — they have no extent to
        # diff (instances re-evaluate freshly via generation-keyed memos),
        # so materialized dependents are recomputed-and-diffed instead of
        # delta-maintained.
        unknown: Set[str] = set()
        opaque: Set[str] = set()
        for component in self._strata:
            comp_refs = set(component)
            for n in component:
                for rule in self._rules[n]:
                    comp_refs |= rule.free
            if not (comp_refs & (set(changed) | unknown | opaque)):
                continue
            materializable = [n for n in component
                              if self.is_materialized(n)]
            if not materializable:
                # On-demand only: generation bumps refresh its instance
                # memos, but its delta is unobservable — dependents must
                # not assume "no delta recorded" means "unchanged".
                opaque |= set(component)
                continue
            if comp_refs & unknown or \
                    not all(n in state.extents for n in materializable):
                # No delta available (or nothing to maintain): drop and
                # let the next evaluation recompute lazily.
                dropped = []
                for n in materializable:
                    rel = state.extents.get(n)
                    if rel is not None:
                        dropped.append(rel)
                    state.drop_extent(n)
                state.drop_indexes_for(dropped)
                unknown |= set(component)
                state.count("maintenance", "dropped_strata")
                continue
            trigger = {n: changed[n] for n in comp_refs if n in changed}
            net = None
            if not (comp_refs & opaque):
                if self._maintenance_eligible(component, set(trigger)):
                    net = self._maintain_component_delta(
                        component, materializable, trigger, pre, ctx)
                    state.count("maintenance", "maintained_strata")
                else:
                    net = self._maintain_keyed(component, trigger, pre, ctx)
            if net is None:
                net = self._recompute_component_diff(
                    component, materializable, pre, ctx)
                state.count("maintenance", "recomputed_strata")
            changed.update(net)
            if len(materializable) < len(component):
                # Mixed component: the non-materialized members remain
                # delta-opaque even though the extents were diffed.
                opaque |= set(component) - set(materializable)
        return True

    def _maintenance_eligible(self, component: List[str],
                              changed: Set[str]) -> bool:
        """Can the stratum be maintained by delta rules
        ("maintained_strata")? Every occurrence of a changed name (and, for
        recursive strata, of the member names) must be positive and
        unrestricted, and no binder may shadow a watched name. A stratum
        declined here for negation, aggregation, a comparison or an
        override goes to keyed re-evaluation ("keyed_strata",
        :meth:`_maintain_keyed`) and, failing that, to the
        recompute-and-diff fallback ("recomputed_strata")."""
        recursive = self._is_recursive_component(component)
        watch = set(changed)
        if recursive:
            watch |= set(component)
        for name in component:
            if recursive and not self.is_materialized(name):
                return False
            for rule in self._rules[name]:
                if rule.rel_positions:
                    return False
                head_names = {getattr(b, "name", None) for b in rule.head}
                if head_names & watch:
                    return False
                occurrences: List[Tuple[str, bool]] = []
                _collect_occurrences(rule.body, watch, False, occurrences)
                for binding in rule.head:
                    if isinstance(binding, ast.InBinding):
                        _collect_occurrences(binding.domain, watch, True,
                                             occurrences)
                    elif isinstance(binding, ast.ConstBinding):
                        _collect_occurrences(binding.expr, watch, True,
                                             occurrences)
                if any(restricted for _, restricted in occurrences):
                    return False
                if _shadows_any(rule.body, watch):
                    return False
        return True

    def _maintain_component_delta(
        self,
        component: List[str],
        members: List[str],
        trigger: Dict[str, Tuple[Relation, Relation]],
        pre: Dict[str, Relation],
        ctx: EvalContext,
    ) -> Dict[str, Tuple[Relation, Relation]]:
        """Delta-maintain one eligible stratum; returns the members' net
        ``(inserted, deleted)`` deltas and registers their pre-states in
        ``pre`` for downstream over-deletion."""
        state = ctx.state
        recursive = self._is_recursive_component(component)
        watch = frozenset(trigger).union(component if recursive else ())
        old_ext = {m: state.extents[m] for m in members}

        minus_frontier = {n: mi for n, (_, mi) in trigger.items() if mi}
        removed = self._overdelete_and_rederive(
            members, watch, minus_frontier, old_ext, trigger, pre,
            recursive, ctx) if minus_frontier else {}

        accs: Dict[str, Any] = {}
        grow = self._grow(state, False, accs)
        plus_frontier = {n: pl for n, (pl, _) in trigger.items()
                         if pl and n not in members}
        for m in members:
            if m in trigger and trigger[m][0]:
                # The member's own base grew: new base tuples join the
                # extent directly and seed the member's delta.
                fresh = grow(m, trigger[m][0])
                if fresh:
                    plus_frontier[m] = fresh
        self._delta_rounds(members, watch, plus_frontier, grow, recursive,
                           "insert maintenance", ctx)

        net: Dict[str, Tuple[Relation, Relation]] = {}
        for m in members:
            final = state.extents[m]
            old = old_ext[m]
            if final is old:
                continue
            acc = accs.get(m)
            if m not in accs:
                # Only DRed moved it: the candidates it left are the delta.
                plus, minus = EMPTY, removed.get(m, EMPTY)
            elif acc is not None and acc.origin is old and acc.view is final:
                # Appends to ``old`` only: the suffix is the net delta.
                plus, minus = acc.appended(), EMPTY
            else:
                plus = final.difference(old)
                minus = old.difference(final)
            if plus or minus:
                net[m] = (plus, minus)
                pre[m] = old
                state.bump_name(m)
                state.drop_indexes_for([old])
            else:
                # Value-unchanged: restore the old object so id()-pinned
                # trie/index cache entries stay warm.
                state.extents[m] = old
        return net

    def _maintain_keyed(
        self,
        component: List[str],
        trigger: Dict[str, Tuple[Relation, Relation]],
        pre: Dict[str, Relation],
        ctx: EvalContext,
    ) -> Optional[Dict[str, Tuple[Relation, Relation]]]:
        """Keyed re-evaluation of a non-recursive stratum the delta rules
        decline: when every rule keys its changed-name occurrences on one
        head position (:func:`_key_analysis`), only the keys the trigger
        deltas hold there can change. Each rule is evaluated once seeded on
        them, and the member's rows with those keys are replaced by the
        result. Returns the net delta as :meth:`_maintain_component_delta`
        does, or None to decline to the recompute."""
        member = component[0]
        rules = self._rules[member]
        if self._is_recursive_component(component) or member in self._base:
            return None
        analyses = [self._rule_analysis(rule, frozenset(trigger),
                                        _key_analysis) for rule in rules]
        positions = {a[0] for a in analyses if a is not None} - {None}
        if None in analyses or len(positions) != 1:
            return None
        (position,) = positions
        keys = EMPTY
        for name, col in set().union(*(a[1] for a in analyses)):
            for delta in trigger[name]:
                keys = keys.union(delta.project((col,)))
        state = ctx.state
        for name, (plus, minus) in trigger.items():
            if name in self._base and name not in state.extents:
                state.carry_indexes(pre[name], self._base[name], plus, minus)
        derived = EMPTY
        try:
            for rule in rules if keys else ():
                derived = derived.union(eval_rule_relation(
                    rule, Env.EMPTY, ctx, seed=keys, seed_at=(position,)))
        except (SafetyError, NotOrderable):
            return None
        state.count("maintenance", "keyed_strata")
        state.count("maintenance", "keyed_keys", len(keys))
        if not keys:
            return {}
        state.count("eval", member)
        old = state.extents[member]
        if all(r.formula_head and len(r.value_head) == 1 for r in rules):
            hit = old.intersect(keys)  # the rows are the keys themselves
        else:
            wanted = {value_key(t[0]) for t in keys.rows()}
            hit = old.select(lambda t: len(t) > position
                             and value_key(t[position]) in wanted)
        plus, minus = derived.difference(hit), hit.difference(derived)
        if not (plus or minus):
            return {}
        state.extents[member] = apply_delta(old, plus, minus)
        pre[member] = old
        state.bump_name(member)
        state.drop_indexes_for([old])
        return {member: (plus, minus)}

    def _overdelete_and_rederive(
        self,
        members: List[str],
        watch: FrozenSet[str],
        minus_frontier: Dict[str, Relation],
        old_ext: Dict[str, Relation],
        trigger: Dict[str, Tuple[Relation, Relation]],
        pre: Dict[str, Relation],
        recursive: bool,
        ctx: EvalContext,
    ) -> Dict[str, Relation]:
        """DRed within one stratum: over-delete candidates whose derivations
        pass through deleted tuples (evaluated against the pre-update
        state), remove them, then re-derive, round by round, those still
        supported in the post-update state. Returns each member's net
        removed set: the candidates no round re-derived."""
        state = ctx.state
        # Over-deletion must see the *pre-update* contents of the changed
        # upstream names (a derivation may combine several deleted tuples):
        # overlay them with old ∪ current for the candidate search. Members
        # still hold their old extents here, so they need no overlay.
        overlays: Dict[str, Tuple[bool, Optional[Relation]]] = {}
        for n in set(trigger) - set(members):
            current = state.extents.get(n)
            if current is None:
                current = self._base.get(n, EMPTY)
            overlays[n] = (n in state.extents, state.extents.get(n))
            state.extents[n] = pre[n].union(current)
        cand: Dict[str, Relation] = {m: EMPTY for m in members}
        for m in members:
            if m in trigger and trigger[m][1]:
                cand[m] = trigger[m][1].intersect(old_ext[m])

        def overdelete(member: str, derived: Relation) -> Relation:
            fresh = derived.intersect(old_ext[member]).difference(cand[member])
            if fresh:
                cand[member] = cand[member].union(fresh)
            return fresh

        try:
            self._delta_rounds(members, watch, minus_frontier, overdelete,
                               recursive, "over-deletion", ctx)
        finally:
            for n, (present, value) in overlays.items():
                if present:
                    state.extents[n] = value
                else:
                    state.extents.pop(n, None)

        remaining = {m: c for m, c in cand.items() if c}
        if not remaining:
            return remaining
        state.count("maintenance", "overdeleted_tuples",
                    sum(len(c) for c in remaining.values()))
        for m, c in remaining.items():
            state.extents[m] = old_ext[m].difference(c)
        while True:
            _budget.count_iteration()
            added = False
            for m in members:
                c = remaining.get(m)
                if not c:
                    continue
                survivors = self._rederive_candidates(m, c, ctx)
                if survivors:
                    state.extents[m] = state.extents[m].union(survivors)
                    remaining[m] = c.difference(survivors)
                    added = True
                    state.count("maintenance", "rederived_tuples",
                                len(survivors))
            if not added or not recursive:
                return remaining

    def _rederive_candidates(self, name: str, candidates: Relation,
                             ctx: EvalContext) -> Relation:
        """Which over-deleted ``candidates`` are still derivable from the
        current state? One evaluation per rule, seeded with the candidates
        not yet re-derived; a head that cannot be seeded is evaluated in
        full and intersected (valid: the stratum is materialised)."""
        ctx.state.count("eval", name)
        survivors = candidates.intersect(self._base.get(name, EMPTY))
        rest = candidates.difference(survivors)
        for rule in self._rules[name]:
            if not rest:
                break
            try:
                derived = eval_rule_relation(rule, Env.EMPTY, ctx, seed=rest)
            except (SafetyError, NotOrderable):
                derived = rest.intersect(
                    eval_rule_relation(rule, Env.EMPTY, ctx))
            if derived:
                survivors = survivors.union(derived)
                rest = rest.difference(derived)
        return survivors

    def _recompute_component_diff(
        self,
        component: List[str],
        materializable: List[str],
        pre: Dict[str, Relation],
        ctx: EvalContext,
    ) -> Dict[str, Tuple[Relation, Relation]]:
        """Maintenance fallback for ineligible strata: recompute the SCC
        from scratch against the already-maintained upstream state, then
        diff old vs. new so the *net* delta keeps propagating."""
        state = ctx.state
        old_ext = {m: state.extents[m] for m in materializable}
        old_gen = {m: state.name_gen.get(m, 0) for m in materializable}
        for m in materializable:
            state.drop_extent(m)
        self._materialize_component(component, materializable, ctx)
        net: Dict[str, Tuple[Relation, Relation]] = {}
        for m in materializable:
            final = state.extents.get(m, EMPTY)
            old = old_ext[m]
            plus = final.difference(old)
            minus = old.difference(final)
            if plus or minus:
                net[m] = (plus, minus)
                pre[m] = old
            else:
                # Unchanged: restore the old object (keeping id()-pinned
                # cache entries warm) and the old generation, so memos
                # keyed on it stay valid — set_extent bumped it during the
                # recompute regardless of the value. Memos minted against
                # the transient generations sit above the restored value
                # and must be evicted, or a future bump could alias them.
                state.extents[m] = old
                restored = old_gen[m]
                if state.name_gen.get(m, 0) != restored:
                    state.name_gen[m] = restored
                    stale = [k for k in state.memo
                             if any(n == m and g > restored
                                    for n, g in k[0])]
                    for k in stale:
                        del state.memo[k]
        state.drop_indexes_for([old_ext[m] for m in net])
        return net

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> "RelProgram":
        """An immutable, copy-on-write snapshot of the program's current
        state (see :mod:`repro.engine.snapshot`).

        The snapshot captures the base mapping, rule catalog, and
        generation vectors by reference/shallow copy (every mutator on this
        class rebinds fresh containers instead of mutating, exactly so
        these captures stay frozen), and evaluates against its own
        :class:`SnapshotState` that shares this program's warm plan, trie,
        and hash-index caches read-only. The caller must ensure no writer
        is mid-flight — the Session layer serializes writers and publishes
        snapshots atomically between transactions."""
        from repro.engine.snapshot import ProgramSnapshot

        return self._capture(ProgramSnapshot)

    def fork(self) -> "RelProgram":
        """A private, writable capture of the program's current state: like
        :meth:`snapshot`, but ``add_source`` and ``apply_updates`` work on
        it without touching this program (see
        :class:`repro.engine.snapshot.ProgramFork`)."""
        from repro.engine.snapshot import ProgramFork

        return self._capture(ProgramFork)

    def _capture(self, view):
        # Force the cheap static analyses now, so views share completed
        # results instead of racing to rebuild them per capture.
        self._context()
        if self._strata is None:
            self._strata = self._compute_strata()
        if self._materialized is None:
            self._classify()
        return view(self)

    # -- querying ---------------------------------------------------------------

    def relation(self, name: str) -> Relation:
        """The full extent of a defined or base relation."""
        ctx = self._context()
        with _plane_stats(ctx.state):
            kind, payload = ctx.resolve(name)
            if kind == "extent":
                return payload
            if kind == "closure":
                return ctx.closure_extent(payload, (), (), full_arity=None)
        raise EvaluationError(f"{name} is a builtin and cannot be enumerated")

    def query(self, source: str) -> Relation:
        """Evaluate a Rel expression against the program."""
        return self.query_node(parse_expression(source))

    def query_node(self, node: ast.Node) -> Relation:
        """Evaluate an already-parsed Rel expression (the fast path used by
        prepared queries: parse once, execute many)."""
        ctx = self._context()
        self.evaluate()
        with _plane_stats(ctx.state):
            try:
                return eval_relation(node, Frame(Env.EMPTY, frozenset()), ctx)
            except NotOrderable as exc:
                raise SafetyError(str(exc)) from exc

    def evaluation_counts(self) -> Dict[str, int]:
        """How many times each defined name has had its rules evaluated
        (fixpoint iterations included). Diagnostics hook for session tests
        and benchmarks: unchanged strata keep their counts across updates."""
        if self._state is None:
            return {}
        return dict(self._state.counters["eval"])

    def join_statistics(self) -> Dict[str, int]:
        """How many conjunctions were routed through the multiway-join path,
        per strategy ("leapfrog" / "binary"). The explain hook: a query that
        should hit the WCOJ path can assert its counter moved."""
        if self._state is None:
            return {}
        return dict(self._state.counters["join"])

    def plan_statistics(self) -> Dict[str, int]:
        """Plan-cache explain counters: "compiled" (fresh interpreted
        passes that recorded a plan), "hits" (evaluations served by a
        cached plan), "fallbacks" (stale plans re-interpreted), and
        "invalidated" (plans dropped by rule changes)."""
        if self._state is None:
            return {}
        return dict(self._state.counters["plan"])

    def columnar_statistics(self) -> Dict[str, int]:
        """Columnar-kernel explain counters: per-kernel hit counts
        ("join", "dedupe", "project", "union", "filter", "fold") and the
        matching "*_fallback" counts for inputs the typed plane declined
        (mixed arity, untypeable values, numpy unavailable)."""
        if self._state is None:
            return {}
        return dict(self._state.counters["columnar"])

    def output(self) -> Relation:
        """The contents of the ``output`` control relation (Section 3.4)."""
        if "output" not in self._rules:
            return EMPTY
        return self.relation("output")
