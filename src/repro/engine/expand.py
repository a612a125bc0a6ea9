"""The production evaluator: compositional expansion over binding tables.

Every Rel expression is evaluated by *expanding* it over a :class:`Table` of
candidate variable bindings: the expansion filters rows (formulas), binds new
variables (atoms, equalities, aggregations), and appends output values to
each row's payload (general expressions). This uniform treatment mirrors the
paper's identification of formulas with Boolean-valued expressions
(Section 5.3.1, "Expressions vs Formulas").

Safety (Section 3.1) is enforced *operationally*: conjuncts are scheduled
greedily, each attempted only when a variable-level simulation
(:func:`simulate`) confirms it is finitely enumerable given the bindings
available so far. If no conjunct can be scheduled, the expression is
potentially unsafe and a :class:`SafetyError` is raised — unless an
enclosing context later supplies the missing bindings, which is how the
paper's ``AdditiveInverse`` example becomes evaluable when intersected with
a finite set.

Second-order applications (Section 4.2–4.3) never materialize the infinite
second-order relation: the relation arguments are frozen into an instance
key and the instance's *extent* — a finite first-order relation — is
computed on demand by the program layer (``ctx.closure_extent``), with
Kleene iteration for self-recursive instances such as ``APSP[V,E]`` and
``PageRank[G]``.

Thread-safety contract: the expansion read path touches shared state
*only* through ``ctx`` — ``ctx.resolve`` / ``ctx.closure_extent`` and the
methods of ``ctx.state``, an :class:`~repro.engine.program.EvalState`
(``plan_lookup`` / ``install_plan`` / ``index`` / ``sorted_trie`` /
``atom_index`` / ``skeleton`` / ``count``) — plus the columnar counter
sink (:func:`repro.model.columns.count_plane`), which is thread-local.
Tables and per-call intermediates are thread-confined; module-level state
is limited to the ``_FRESH`` column counter (an atomic
``itertools.count``) and immutable handler/constant tables. Concurrent
snapshot readers therefore isolate by evaluating against a state built
with the live one as its parent, which reads the parent's caches and
never writes them (:mod:`repro.engine.snapshot`) — nothing in this module
may cache into globals or mutate a Relation/AST in place.
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Collection, Dict, FrozenSet, Iterable,
                    Iterator, List, Optional, Sequence, Set, Tuple)

from repro.engine import builtins as bi
from repro.engine.budget import _local as _budget_local
from repro.engine.builtins import FREE, Builtin
from repro.engine.errors import (
    ArityError,
    DispatchError,
    EvaluationError,
    SafetyError,
    UnknownRelationError,
)
from repro.engine.plan import AtomPlan, ConjunctionPlan, MultiwayPlan, plan_refs
from repro.engine.runtime import Closure, Env, Rule, literal_closure
from repro.engine.table import (Table, dedupe_table, project_table, row_ident,
                                union_tables, union_tables_typed)
from repro.joins import planner as joins_planner
from repro.lang import ast
from repro.model import columns as _columns
from repro.model.relation import EMPTY, Relation
from repro.model.relation import row_key as model_row_key
from repro.model.values import UnknownValueError


class NotOrderable(Exception):
    """Internal: a node cannot be expanded with the current bindings.

    Caught by conjunct schedulers, which defer the node; escapes to the user
    as :class:`SafetyError` only when no evaluation order exists.
    """


#: Sentinel demand set: "every value position is bound" — used when a bound
#: tuple splice covers an unknown number of positions.
ALL_POSITIONS: FrozenSet[int] = frozenset({-1})

_FRESH = itertools.count()


def _fresh(prefix: str) -> str:
    """A globally fresh hidden column name (nested expansions must not
    collide on stash columns)."""
    return f"__{prefix}{next(_FRESH)}"


# ---------------------------------------------------------------------------
# Columnar kernel routing (repro.model.columns)
# ---------------------------------------------------------------------------

#: The vectorized kernels only engage at or above this input size — below
#: it the Python→numpy round-trip costs more than it saves.
_COLUMNAR_MIN_ROWS = 64


def _kernel_wanted(n: int) -> bool:
    """Route an input of ``n`` rows through the columnar kernels: large
    enough to amortize, and the typed plane available (numpy present, not
    ablated by ``REPRO_COLUMNAR=off``)."""
    return n >= _COLUMNAR_MIN_ROWS and _columns.available()


def _budget_checkpoint() -> None:
    """Unamortized budget check at a work-amortizing boundary.

    One vectorized kernel dispatch (or one scheduled conjunct replaying a
    multiway join) can stand in for millions of row operations, so the
    amortized tick in :func:`expand` — one clock read per 256 node
    expansions — lets deadlines overshoot by whole kernel calls. These
    boundaries check the clock every time; the clock read is noise next
    to the kernel it brackets."""
    budget = getattr(_budget_local, "budget", None)
    if budget is not None:
        budget.check()


def _dedupe(table: Table) -> Table:
    """:meth:`Table.dedupe` routed through the columnar kernel when the
    input size allows — the result is identical either way."""
    if table.distinct:
        return table
    if len(table) and _kernel_wanted(len(table)):
        _budget_checkpoint()
        result = dedupe_table(table)
        if result is not None:
            _columns.count_plane("dedupe")
            return result
        _columns.count_plane("dedupe_fallback")
    return table.dedupe()


def _project(table: Table, keep: Sequence[str]) -> Table:
    """:meth:`Table.project` routed through the columnar kernel.

    Sized checks only (``len``, never ``.rows``): a columnar-backed table
    must reach :func:`project_table` unmaterialized for the vectorized
    fast path to pay off."""
    if len(table) and _kernel_wanted(len(table)):
        _budget_checkpoint()
        result = project_table(table, keep)
        if result is not None:
            _columns.count_plane("project")
            return result
        _columns.count_plane("project_fallback")
    return table.project(keep)


def _union(tables: List[Table], cols: Tuple[str, ...]) -> Table:
    """:func:`union_tables` routed through the columnar kernel."""
    total = sum(len(t) for t in tables)
    if total and _kernel_wanted(total):
        _budget_checkpoint()
        result = union_tables_typed(tables, cols)
        if result is not None:
            _columns.count_plane("union")
            return result
        _columns.count_plane("union_fallback")
    return union_tables(tables, cols)


class Frame:
    """Static evaluation frame: captured environment and variable scope."""

    __slots__ = ("env", "scope")

    def __init__(self, env: Env, scope: FrozenSet[str]) -> None:
        self.env = env
        self.scope = scope

    def with_scope(self, extra: Iterable[str]) -> "Frame":
        return Frame(self.env, self.scope | frozenset(extra))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def expand(node: ast.Node, table: Table, frame: Frame, ctx) -> Table:
    """Expand ``node`` over ``table``; the result's payload column holds the
    node's output tuples (empty tuples for formulas)."""
    # Cooperative budget check, amortized inside tick(): every node
    # expansion (and through it every kernel dispatch, row or columnar)
    # charges one tick, so a long conjunction chain stays cancellable
    # between fixpoint rounds. The inlined thread-local read is the whole
    # cost when no budget is installed.
    budget = getattr(_budget_local, "budget", None)
    if budget is not None:
        budget.tick()
    handler = _HANDLERS.get(type(node))
    if handler is None:
        raise EvaluationError(f"cannot evaluate node of type {type(node).__name__}")
    return handler(node, table, frame, ctx)


def eval_relation(node: ast.Node, frame: Frame, ctx) -> Relation:
    """Evaluate a closed expression to a finite relation."""
    table = expand(node, Table.unit(), frame, ctx)
    return Relation._from_rows(row[-1] for row in table.rows)


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


def _expand_const(node: ast.Const, table: Table, frame: Frame, ctx) -> Table:
    if isinstance(node.value, bool):
        # The keywords true/false denote {()} and {} (Section 4.3).
        if node.value:
            return Table(table.cols, list(table.rows),
                         distinct=table.distinct)
        return table.clone_cols()
    value = node.value
    # Appending the same constant to every payload is row-bijective.
    rows = [row[:-1] + (row[-1] + (value,),) for row in table.rows]
    return Table(table.cols, rows, distinct=table.distinct)


def _expand_ref(node: ast.Ref, table: Table, frame: Frame, ctx) -> Table:
    name = node.name
    if name in frame.scope:
        if table.has_col(name):
            idx = table.col_index(name)
            # Row-bijective: the appended value comes from the row itself.
            rows = [row[:-1] + (row[-1] + (row[idx],),) for row in table.rows]
            return Table(table.cols, rows, distinct=table.distinct)
        raise NotOrderable(f"variable {name} is not yet bound")
    found, value = frame.env.get(name)
    if found:
        return _payload_from_value(value, table, name, ctx)
    kind, payload = ctx.resolve(name)
    if kind == "extent":
        return _payload_relation(payload, table)
    if kind == "builtin":
        raise NotOrderable(f"builtin relation {name} cannot be enumerated")
    if kind == "closure":
        extent = ctx.closure_extent(payload, (), (), full_arity=None)
        return _payload_relation(extent, table)
    raise UnknownRelationError(name)


def _payload_from_value(value: Any, table: Table, name: str, ctx) -> Table:
    if isinstance(value, Relation):
        return _payload_relation(value, table)
    if isinstance(value, Closure):
        # A closure-valued parameter (e.g. a literal abstraction passed to
        # reduce) enumerates via its computed extent.
        extent = ctx.closure_extent(value, (), (), full_arity=None)
        return _payload_relation(extent, table)
    if isinstance(value, Builtin):
        raise NotOrderable(f"second-order value {name} cannot be enumerated")
    if isinstance(value, tuple):  # captured tuple variable
        rows = [row[:-1] + (row[-1] + value,) for row in table.rows]
        return Table(table.cols, rows, distinct=table.distinct)
    rows = [row[:-1] + (row[-1] + (value,),) for row in table.rows]
    return Table(table.cols, rows, distinct=table.distinct)


def _payload_relation(rel: Relation, table: Table) -> Table:
    rows = []
    for row in table.rows:
        base, payload = row[:-1], row[-1]
        for tup in rel:
            rows.append(base + (payload + tup,))
    # Relation tuples are row_key-distinct by storage; with a uniform
    # arity, base + (payload + tup) splits back unambiguously, so distinct
    # table rows × distinct tuples stay distinct (the satellite fix: base
    # extents reach binding tables without a redundant re-keying pass).
    distinct = table.distinct and len(rel.arities()) <= 1
    return Table(table.cols, rows, distinct=distinct)


def _expand_tupleref(node: ast.TupleRef, table: Table, frame: Frame, ctx) -> Table:
    name = node.name
    if name in frame.scope:
        if table.has_col(name):
            idx = table.col_index(name)
            rows = [row[:-1] + (row[-1] + row[idx],) for row in table.rows]
            return Table(table.cols, rows, distinct=table.distinct)
        raise NotOrderable(f"tuple variable {name}... is not yet bound")
    found, value = frame.env.get(name)
    if found and isinstance(value, tuple):
        rows = [row[:-1] + (row[-1] + value,) for row in table.rows]
        return Table(table.cols, rows, distinct=table.distinct)
    raise UnknownRelationError(f"{name}...")


def _expand_wildcard(node: ast.Node, table: Table, frame: Frame, ctx) -> Table:
    raise SafetyError("a bare wildcard ranges over all values and is unsafe")


# ---------------------------------------------------------------------------
# Conjunction scheduling (And / Product / Where)
# ---------------------------------------------------------------------------


def _flatten_conjuncts(node: ast.Node) -> List[Tuple[Optional[int], ast.Node]]:
    """Flatten nested products/conjunctions/wheres into (payload-slot, node).

    Slots record syntactic payload order; ``where`` conditions and ``and``
    operands contribute no separate treatment — formulas simply produce
    empty payloads.
    """
    items: List[Tuple[bool, ast.Node]] = []  # (contributes_payload, node)

    def visit(n: ast.Node, payload: bool) -> None:
        if isinstance(n, ast.And):
            visit(n.lhs, payload)
            visit(n.rhs, payload)
        elif isinstance(n, ast.ProductExpr):
            for item in n.items:
                visit(item, payload)
        elif isinstance(n, ast.WhereExpr):
            visit(n.expr, payload)
            visit(n.condition, False)
        else:
            items.append((payload, n))

    visit(node, True)
    out: List[Tuple[Optional[int], ast.Node]] = []
    slot = 0
    for payload, n in items:
        out.append((slot if payload else None, n))
        if payload:
            slot += 1
    return out


def _expand_conjunction(node: ast.Node, table: Table, frame: Frame, ctx) -> Table:
    items = _flatten_conjuncts(node)
    return _schedule(items, table, frame, ctx, anchor=node)


def _plan_state(ctx, table: Table, frame: Frame, anchor):
    """The (state, plan key) pair for plan caching — (None, None) for a
    call with no anchor or no bindings.

    The key is the anchor's identity (a stable AST node or compiled rule)
    and the *bound-variable pattern* (which scope variables the incoming
    table already binds — delta variants share anchors with nothing, and
    demanded-head lookups get their own patterns). A recorded multiway
    extraction picks its join strategy afresh on every replay."""
    if anchor is None or not len(table):
        return None, None
    return ctx.state, (id(anchor),
                       frozenset(c for c in table.cols if c in frame.scope))


def _absorb_conjunct(expanded: Table, slot: Optional[int],
                     slot_cols: Dict[int, str], ctx) -> Table:
    """Fold one expanded conjunct back into the running binding table.

    Normally the payload is stashed under a fresh slot column (payload
    order differs from evaluation order) or cleared. A columnar-backed
    table whose payload is the empty-tuple constant skips both: stash and
    clear would only append/reset ``()`` per row — forcing the vectors
    into Python tuples for nothing — and an unrecorded slot contributes
    exactly ``()`` at gather time. This is what lets a rule body that is
    one big multiway join stay columnar end-to-end through scheduling."""
    if expanded.colsrc is not None and expanded.colsrc[2] == ():
        return expanded
    if slot is not None:
        col = _fresh("slot")
        slot_cols[slot] = col
        return expanded.stash_payload(col)
    return expanded.clear_payload()


def _schedule(
    items: List[Tuple[Optional[int], ast.Node]], table: Table, frame: Frame,
    ctx, anchor=None,
) -> Table:
    """Greedy safety-driven conjunct scheduling with payload slots.

    With a plan-cache anchor, the scheduling decisions of a successful pass
    (conjunct order, multiway-join extraction) are recorded as a
    :class:`repro.engine.plan.ConjunctionPlan` and replayed on subsequent
    evaluations under the same bound-variable pattern —
    :func:`_execute_plan` skips every ``simulate`` call and speculative
    ``expand`` attempt, falling back here whenever the plan no longer fits.

    Before the per-conjunct loop, conjuncts that are plain positive atoms
    over fully-materialized relations are extracted and evaluated as ONE
    multiway join (leapfrog triejoin or a greedy binary plan) — the paper's
    worst-case-optimal-join substrate for GNF's many-joins style (Section
    7). Everything else (builtins, negation, comparisons, abstractions,
    demand-driven closures) takes the fallback scheduler below.
    """
    state, plan_key = _plan_state(ctx, table, frame, anchor)
    if plan_key is not None:
        plan = state.plan_lookup(plan_key)
        if plan is not None:
            result = _execute_plan(plan, items, table, frame, ctx)
            if result is not None:
                state.count("plan", "hits")
                return result
            state.count("plan", "fallbacks")
    pending = [(i, slot, n) for i, (slot, n) in enumerate(items)]
    slot_cols: Dict[int, str] = {}
    multiway_rec = None
    order_rec: List[int] = []
    if len(pending) >= 2 and len(table):
        table, pending, multiway_rec = _schedule_multiway(pending, table,
                                                          frame, ctx)
    while pending:
        _budget_checkpoint()
        scheduled = None
        bound = set(table.cols)
        for i, (orig, slot, n) in enumerate(pending):
            if simulate(n, bound, frame, ctx) is None:
                continue
            try:
                expanded = expand(n, table, frame, ctx)
            except NotOrderable:
                continue
            scheduled = i
            order_rec.append(orig)
            table = _dedupe(_absorb_conjunct(expanded, slot, slot_cols, ctx))
            break
        if scheduled is None:
            raise NotOrderable(
                "expression is potentially unsafe: no evaluation order binds "
                + ", ".join(sorted(_pending_names(pending, frame)))
            )
        pending.pop(scheduled)
    if plan_key is not None:
        _record_plan(state, plan_key, anchor, items, order_rec, multiway_rec,
                     frame, ctx)
    ordered = [slot_cols[s] for s in sorted(slot_cols)]
    return table.gather_payload(ordered) if ordered else table


def _record_plan(state, key, anchor, items, order, multiway, frame: Frame,
                 ctx) -> None:
    """Freeze one successful scheduling pass into the plan cache."""
    names: Set[str] = set()
    for _, n in items:
        names |= ast.free_names(n)
    # Scope variables are not program names: keeping them out of the refs
    # avoids polluting _refs_cache and spurious invalidation when a local
    # variable shadows a relation name.
    names -= frame.scope
    refs = plan_refs(names, ctx)
    state.install_plan(
        key, anchor,
        ConjunctionPlan(tuple(order), multiway, refs, state.plan_sig(refs)),
    )


def _execute_plan(plan, items, table: Table, frame: Frame, ctx) -> Optional[Table]:
    """Replay a compiled plan: the recorded multiway join (re-resolving
    relations by name), then the recorded conjunct order — no simulation,
    no speculative attempts. Returns None (caller falls back to the
    interpreted scheduler) whenever the plan no longer fits."""
    consumed = plan.multiway.consumed if plan.multiway is not None \
        else frozenset()
    if len(plan.order) + len(consumed) != len(items):
        return None
    try:
        if plan.multiway is not None:
            attached = _replay_multiway(plan.multiway, table, frame, ctx)
            if attached is None:
                return None
            table = attached
        slot_cols: Dict[int, str] = {}
        for orig in plan.order:
            _budget_checkpoint()
            slot, n = items[orig]
            expanded = expand(n, table, frame, ctx)
            table = _dedupe(_absorb_conjunct(expanded, slot, slot_cols, ctx))
    except NotOrderable:
        return None
    ordered = [slot_cols[s] for s in sorted(slot_cols)]
    return table.gather_payload(ordered) if ordered else table


def _pending_names(pending, frame: Frame) -> Set[str]:
    names: Set[str] = set()
    for _, _, n in pending:
        names |= ast.free_names(n) & frame.scope
    return names or {"<expression>"}


# ---------------------------------------------------------------------------
# Multiway-join routing (worst-case optimal joins, Section 7)
# ---------------------------------------------------------------------------


def _join_atom_spec(node: ast.Node, frame: Frame, ctx):
    """Recognize a conjunct as a plain positive atom over a materialized
    relation.

    Eligible: a non-partial application of a name that resolves to a finite
    extent (base relation, already-materialized derived name, or an
    environment-bound Relation), whose arguments are scope variables,
    constants, or scalar wildcards. Returns ``(name, relation, args)`` with
    args as ``("var", name) | ("const", value) | ("any", None)``, else
    None. The name is what compiled plans store: the relation is
    re-resolved on every replay, so data updates never stale a plan.
    """
    if not isinstance(node, ast.Application) or node.partial:
        return None
    target = node.target
    if not isinstance(target, ast.Ref) or target.name in frame.scope:
        return None
    name = target.name
    rel = _resolve_atom_relation(name, frame, ctx)
    if rel is None:
        return None
    args = []
    for arg in node.args:
        if isinstance(arg, ast.Const):
            args.append(("const", arg.value))
        elif isinstance(arg, ast.Wildcard):
            args.append(("any", None))
        elif isinstance(arg, ast.Ref) and arg.name in frame.scope:
            args.append(("var", arg.name))
        else:
            return None
    return name, rel, args


def _resolve_atom_relation(name: str, frame: Frame, ctx) -> Optional[Relation]:
    """Resolve a join-atom name to its current finite extent (environment
    first, then the context), or None when it is not (or no longer) an
    eligible materialized relation."""
    found, value = frame.env.get(name)
    if found:
        return value if isinstance(value, Relation) else None
    kind, payload = ctx.resolve_kind(name)
    if kind != "extent":
        return None
    # A materialized derived name may not have been evaluated yet;
    # resolve() materializes it (exactly as the fallback path would).
    return payload if payload is not None else ctx.resolve(name)[1]


def _spec_to_atom(rel: Relation, args) -> joins_planner.Atom:
    """Lower a recognized atom to a planner Atom: constants become row
    filters, wildcards drop their column, variables become columns. Atoms
    that need no rewriting keep the relation as their trie-cache ``source``."""
    names = tuple(d for k, d in args if k == "var")
    n = len(args)
    if all(k == "var" for k, _ in args) and rel.arities() <= frozenset({n}):
        # Zero-copy: the relation itself serves as the row collection (the
        # planner only sizes and iterates it), so a leapfrog run that hits
        # the cached trie never touches the rows at all — and a
        # columnar-native relation feeding the vectorized join hands over
        # its ColumnSet without ever decoding a tuple.
        return joins_planner.Atom(rel, names, source=rel)
    keep = [i for i, (k, _) in enumerate(args) if k == "var"]
    consts = [(i, v) for i, (k, v) in enumerate(args) if k == "const"]
    rows: List[Tuple[Any, ...]] = []
    seen: Set[Tuple[Any, ...]] = set()
    for tup in rel.rows():
        if len(tup) != n:
            continue
        if any(not _vals_eq(tup[i], v) for i, v in consts):
            continue
        proj = tuple(tup[i] for i in keep)
        key = joins_planner.row_key(proj)
        if key not in seen:
            seen.add(key)
            rows.append(proj)
    return joins_planner.Atom(tuple(rows), names)


def _schedule_multiway(pending, table: Table, frame: Frame, ctx):
    """Extract eligible atom conjuncts and evaluate them as one multiway
    join, reattaching the result to the binding table.

    ``pending`` holds ``(original index, slot, node)`` triples. Returns
    ``(table, remaining_conjuncts, record)`` where ``record`` is the
    :class:`MultiwayPlan` for the plan cache (None when nothing was
    extracted); on any ineligibility the inputs come back unchanged and
    the fallback scheduler handles everything. Extracted atoms contribute
    empty payloads (they are full applications), so their payload slots
    need no stash columns.
    """
    specs = []
    for i, (orig, _, node) in enumerate(pending):
        spec = _join_atom_spec(node, frame, ctx)
        if spec is not None:
            specs.append((i, orig, spec))
    if len(specs) < 2:
        return table, pending, None

    atoms: List[joins_planner.Atom] = []
    join_vars: List[str] = []
    seen_vars: Set[str] = set()
    for _, _, (_, rel, args) in specs:
        for kind, data in args:
            if kind == "var" and data not in seen_vars:
                seen_vars.add(data)
                join_vars.append(data)
        atoms.append(_spec_to_atom(rel, args))

    joined = _attach_multiway(atoms, tuple(join_vars), table, ctx)
    if joined is None:
        return table, pending, None
    taken = {i for i, _, _ in specs}
    remaining = [item for i, item in enumerate(pending) if i not in taken]
    record = MultiwayPlan(
        frozenset(orig for _, orig, _ in specs),
        tuple(AtomPlan(name, tuple(args))
              for _, _, (name, _, args) in specs),
        tuple(join_vars),
    )
    return joined, remaining, record


def _replay_multiway(mw, table: Table, frame: Frame, ctx) -> Optional[Table]:
    """Execute a recorded multiway extraction: re-resolve each atom's
    relation by name (so the current extents — deltas included — are
    joined) and reattach. None when an atom is no longer eligible."""
    atoms: List[joins_planner.Atom] = []
    for ap in mw.atoms:
        rel = _resolve_atom_relation(ap.name, frame, ctx)
        if rel is None:
            return None
        atoms.append(_spec_to_atom(rel, ap.args))
    return _attach_multiway(atoms, mw.join_vars, table, ctx)


def _attach_multiway(atoms: List[joins_planner.Atom],
                     join_vars: Tuple[str, ...], table: Table,
                     ctx) -> Optional[Table]:
    """Run one multiway join over ``atoms`` and reattach the result to the
    binding table (shared by the interpreted scheduler and plan replay).

    The current binding table participates as one more atom on its columns
    shared with the join (semi-naive deltas, outer bindings). Returns None
    when a shared column holds a non-value binding (tuple variable) — the
    join layer cannot key it and the caller falls back entirely."""
    seen_vars = set(join_vars)
    shared = [c for c in table.cols if c in seen_vars]
    atoms = list(atoms)
    if shared:
        idx = [table.col_index(c) for c in shared]
        rows: List[Tuple[Any, ...]] = []
        seen_rows: Set[Tuple[Any, ...]] = set()
        try:
            for row in table.rows:
                proj = tuple(row[i] for i in idx)
                key = joins_planner.row_key(proj)
                if key not in seen_rows:
                    seen_rows.add(key)
                    rows.append(proj)
        except UnknownValueError:
            return None
        atoms.append(joins_planner.Atom(tuple(rows), tuple(shared)))

    state = ctx.state
    new = [v for v in join_vars if v not in table.cols]
    output = tuple(shared) + tuple(new)

    result = None
    result_cols = None
    if _kernel_wanted(sum(len(a.rows) for a in atoms)):
        # Vectorized probe first: every participating column typed means
        # the whole join runs as numpy kernels; any untypeable atom makes
        # it decline and the interpreted strategies below take over. The
        # result stays columnar (a ColumnSet) so the reattach below can
        # hand downstream projection the vectors instead of tuples.
        out = joins_planner.columnar_plan_join(atoms, output,
                                               as_columns=True)
        if out is not None:
            _columns.count_plane("join")
            state.count("join", "columnar")
            if isinstance(out, list):
                result = out
            else:
                result_cols = out
        else:
            _columns.count_plane("join_fallback")

    if result is None and result_cols is None:
        strategy = joins_planner.choose_strategy(atoms)
        trie_builder = state.sorted_trie if strategy == "leapfrog" else None
        index_builder = state.atom_index if strategy == "binary" else None
        # Every atom handed over is row_key-distinct (relation-backed rows,
        # deduplicated spec projections, deduplicated binding-table atom), so
        # the join layer may skip its output dedup when no columns collapse.
        result = joins_planner.multiway_join(atoms, output, strategy,
                                             trie_builder=trie_builder,
                                             index_builder=index_builder,
                                             distinct_inputs=True)
        state.count("join", strategy)

    if not shared and len(table) == 1:
        # One-row binding table (a rule's unit seed is the fixpoint hot
        # case): the join result is already value-distinct and attaches to
        # the single row directly — skip the bucket-and-dedupe pass. A
        # columnar result attaches lazily: the prefix and payload are
        # constants, so the rows need never exist as Python tuples unless
        # something downstream asks for them.
        row = table.rows[0]
        if result_cols is not None:
            return Table.from_columns(table.cols + tuple(new), row[:-1],
                                      result_cols, row[-1])
        out_rows = [row[:-1] + suffix + (row[-1],) for suffix in result]
        return Table(table.cols + tuple(new), out_rows, distinct=True)
    if result_cols is not None:
        result = result_cols.to_rows()
    ns = len(shared)
    by_key: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
    for row in result:
        by_key.setdefault(joins_planner.row_key(row[:ns]),
                          []).append(row[ns:])
    sidx = [table.col_index(c) for c in shared]
    out_rows: List[Tuple[Any, ...]] = []
    for row in table.rows:
        key = joins_planner.row_key(tuple(row[i] for i in sidx))
        for suffix in by_key.get(key, ()):
            out_rows.append(row[:-1] + suffix + (row[-1],))
    if table.distinct:
        # Join results are row_key-distinct and bucketed by shared-prefix
        # key, so per table row the suffixes are distinct; with the table
        # rows themselves distinct no output row can repeat.
        return Table(table.cols + tuple(new), out_rows, distinct=True)
    return _dedupe(Table(table.cols + tuple(new), out_rows))


# ---------------------------------------------------------------------------
# Union / Or
# ---------------------------------------------------------------------------


def _merge_branch_tables(expanded: List[Table], table: Table) -> Table:
    common_new = None
    for t in expanded:
        new = set(t.cols) - set(table.cols)
        common_new = new if common_new is None else (common_new & new)
    cols = table.cols + tuple(sorted(common_new or ()))
    return _union(expanded, cols)


def _expand_union(node: ast.Node, table: Table, frame: Frame, ctx) -> Table:
    branches = node.items if isinstance(node, ast.UnionExpr) else (node.lhs, node.rhs)
    if not branches:
        return table.clone_cols()  # {} — the empty relation
    expanded = [expand(branch, table, frame, ctx) for branch in branches]
    return _merge_branch_tables(expanded, table)


# ---------------------------------------------------------------------------
# Negation and quantifiers
# ---------------------------------------------------------------------------


def _scope_frees(node: ast.Node, frame: Frame) -> Set[str]:
    return ast.free_names(node) & frame.scope


_NNF_PUSHABLE = (ast.Or, ast.And, ast.Implies, ast.Iff, ast.Xor,
                 ast.Exists, ast.ForAll, ast.Compare, ast.WhereExpr)


def _expand_not(node: ast.Not, table: Table, frame: Frame, ctx) -> Table:
    inner = node.operand
    if isinstance(inner, ast.Not):
        # Double negation: ¬¬φ ≡ φ — keep φ's bindings, drop its payload.
        return expand(inner.operand, table, frame, ctx).clear_payload()
    frees = _scope_frees(inner, frame)
    unbound = frees - set(table.cols)
    if unbound and isinstance(inner, _NNF_PUSHABLE):
        # Push the negation inward: the rewritten formula may expose
        # positive generators for the unbound variables (e.g.
        # ¬(G → F) ≡ G ∧ ¬F).
        from repro.lang.nnf import negate

        return expand(negate(inner), table, frame, ctx).clear_payload()
    if unbound:
        raise NotOrderable(f"negation over unbound variables {sorted(unbound)}")
    keep_idx = [table.col_index(c) for c in sorted(frees)]
    rows: List[Tuple[Any, ...]] = []
    cache: Dict[Tuple[Any, ...], bool] = {}
    for row in table.rows:
        key = tuple(row[i] for i in keep_idx)
        holds = cache.get(key)
        if holds is None:
            single = Table(table.cols, [row[:-1] + ((),)])
            holds = bool(expand(inner, single, frame, ctx).rows)
            cache[key] = holds
        if not holds:
            rows.append(row)
    return Table(table.cols, rows)


def _binding_guards(
    bindings: Sequence[ast.Binding],
) -> Tuple[List[str], List[ast.Node], List[ast.Binding]]:
    """Split quantifier/abstraction bindings into local names, guard atoms,
    and the positional binding list with duplicates and wildcards renamed."""
    locals_: List[str] = []
    guards: List[ast.Node] = []
    positional: List[ast.Binding] = []
    seen: Set[str] = set()
    for b in bindings:
        if isinstance(b, ast.VarBinding):
            name = b.name
            if name in seen:
                alias = _fresh("dup") + "_" + name
                guards.append(ast.Compare("=", ast.Ref(alias), ast.Ref(name)))
                positional.append(ast.VarBinding(alias))
                locals_.append(alias)
                continue
            seen.add(name)
            locals_.append(name)
            positional.append(b)
        elif isinstance(b, ast.InBinding):
            seen.add(b.name)
            locals_.append(b.name)
            guards.append(ast.Application(b.domain, (ast.Ref(b.name),), partial=False))
            positional.append(ast.VarBinding(b.name))
        elif isinstance(b, ast.TupleVarBinding):
            seen.add(b.name)
            locals_.append(b.name)
            positional.append(b)
        elif isinstance(b, (ast.WildcardBinding, ast.TupleWildcardBinding)):
            alias = _fresh("anon")
            locals_.append(alias)
            if isinstance(b, ast.WildcardBinding):
                positional.append(ast.VarBinding(alias))
            else:
                positional.append(ast.TupleVarBinding(alias))
        elif isinstance(b, ast.ConstBinding):
            positional.append(b)
        else:  # RelVarBinding in a first-order position
            raise EvaluationError("relation variable binding not allowed here")
    return locals_, guards, positional


def _skeleton_builder(bindings):
    locals_, guards, positional = _binding_guards(bindings)
    return tuple(locals_), tuple(guards), tuple(positional)


def _rule_skeleton_builder(rule: Rule):
    locals_, guards, positional = _binding_guards(rule.value_head)
    return tuple(locals_), tuple(guards), tuple(positional)


def _cached_binding_guards(bindings, ctx):
    """Memoized :func:`_binding_guards` for a stable AST bindings tuple
    (quantifiers/abstractions re-split their binders on every expansion
    otherwise). The generated guard nodes are identity-stable, which also
    keeps plan anchors and orderability caches warm."""
    return ctx.state.skeleton(bindings, _skeleton_builder)


def _rule_skeleton(rule: Rule, ctx):
    """Memoized head split (locals, guards, positional) of one rule."""
    return ctx.state.skeleton(rule, _rule_skeleton_builder)


def _expand_exists(node: ast.Exists, table: Table, frame: Frame, ctx) -> Table:
    locals_, guards, _ = _cached_binding_guards(node.bindings, ctx)
    inner_frame = frame.with_scope(locals_)
    flat = _flatten_conjuncts(node.body)
    items: List[Tuple[Optional[int], ast.Node]] = [(None, g) for g in guards]
    items += [(None, n) for _, n in flat]  # quantified body yields no payload
    result = _schedule(items, table, inner_frame, ctx, anchor=node)
    unbound = set(locals_) - set(result.cols)
    if unbound and len(result):
        raise SafetyError(
            f"existential variables {sorted(unbound)} are unconstrained"
        )
    # Project away only the quantifier's own locals: outer-scope variables
    # bound by the body (classic FO semantics) are exported.
    drop = set(locals_)
    keep = [c for c in result.cols if c not in drop]
    projected = _project(result, keep)
    if projected.colsrc is not None:
        if projected.colsrc[2] == ():
            return projected
        # The payload is one shared constant: clearing it cannot split or
        # merge rows, so distinctness survives and the vectors stay put.
        prefix, colset, _ = projected.colsrc
        return Table.from_columns(projected.cols, prefix, colset, ())
    if not any(row[-1] for row in projected.rows):
        # Payloads are already empty (the usual case: the body is a pure
        # formula), so clearing cannot introduce duplicates — the
        # projection's dedupe stands.
        return projected
    return _dedupe(projected.clear_payload())


def _expand_forall(node: ast.ForAll, table: Table, frame: Frame, ctx) -> Table:
    # forall(b | F)  ≡  not exists(b | not F)
    rewritten = ast.Not(ast.Exists(node.bindings, ast.Not(node.body)))
    return _expand_not(rewritten, table, frame, ctx)


# ---------------------------------------------------------------------------
# Comparisons and arithmetic
# ---------------------------------------------------------------------------

_CMP_FUNCS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda x, y: _vals_eq(x, y),
    "!=": lambda x, y: not _vals_eq(x, y),
    "<": lambda x, y: _vals_ord(x, y) and x < y,
    "<=": lambda x, y: _vals_ord(x, y) and x <= y,
    ">": lambda x, y: _vals_ord(x, y) and x > y,
    ">=": lambda x, y: _vals_ord(x, y) and x >= y,
}


def _vals_eq(x: Any, y: Any) -> bool:
    if isinstance(x, (int, float)) and isinstance(y, (int, float)) \
            and not isinstance(x, bool) and not isinstance(y, bool):
        return x == y
    return type(x) is type(y) and x == y


def _vals_ord(x: Any, y: Any) -> bool:
    if isinstance(x, bool) or isinstance(y, bool):
        return False
    if isinstance(x, (int, float)) and isinstance(y, (int, float)):
        return True
    return type(x) is type(y) and isinstance(x, str)


def _is_unbound_var(node: ast.Node, table: Table, frame: Frame) -> Optional[str]:
    if isinstance(node, ast.Ref) and node.name in frame.scope \
            and not table.has_col(node.name) and node.name not in frame.env:
        return node.name
    return None


def _expand_compare(node: ast.Compare, table: Table, frame: Frame, ctx) -> Table:
    lhs_var = _is_unbound_var(node.lhs, table, frame)
    rhs_var = _is_unbound_var(node.rhs, table, frame)
    if node.op == "=" and (lhs_var or rhs_var) and not (lhs_var and rhs_var):
        var = lhs_var or rhs_var
        expr = node.rhs if lhs_var else node.lhs
        expanded = expand(expr, table, frame, ctx)
        rows = []
        for row in expanded.rows:
            payload = row[-1]
            if len(payload) != 1:
                raise EvaluationError(
                    "assignment requires a single value per result tuple"
                )
            rows.append(row[:-1] + (payload[0], ()))
        return _dedupe(Table(expanded.cols + (var,), rows))
    # Filter: expand both sides over the table, compare pointwise.
    stash = _fresh("cmpl")
    t1 = expand(node.lhs, table, frame, ctx).stash_payload(stash)
    t2 = expand(node.rhs, t1, frame, ctx)
    li = t2.col_index(stash)
    rows = _compare_filter_kernel(t2, li, node.op)
    if rows is None:
        fn = _CMP_FUNCS[node.op]
        rows = []
        for row in t2.rows:
            left, right = row[li], row[-1]
            if len(left) != 1 or len(right) != 1:
                raise EvaluationError("comparison requires scalar operands")
            if fn(left[0], right[0]):
                rows.append(row)
    kept = Table(t2.cols, rows, distinct=t2.distinct)
    keep_cols = [c for c in kept.cols if c != stash]
    projected = _project(kept, keep_cols)
    return _dedupe(Table(projected.cols,
                         [r[:-1] + ((),) for r in projected.rows]))


def _compare_filter_kernel(t2: Table, li: int,
                           op: str) -> Optional[List[Tuple[Any, ...]]]:
    """Vectorized comparison filter over the paired operand columns, or
    ``None`` to fall back (untypeable operands, string orderings — whose
    interning codes are not lexicographic — or a non-scalar operand, whose
    user-facing error the interpreted loop raises)."""
    rows = t2.rows
    if not rows or not _kernel_wanted(len(rows)):
        return None
    lvals: List[Any] = []
    rvals: List[Any] = []
    for row in rows:
        left, right = row[li], row[-1]
        if len(left) != 1 or len(right) != 1:
            return None
        lvals.append(left[0])
        rvals.append(right[0])
    left_col = _columns.type_column(lvals)
    right_col = _columns.type_column(rvals)
    mask = None
    if left_col is not None and right_col is not None:
        mask = _columns.compare_mask(left_col[0], left_col[1], op,
                                     right_col[0], right_col[1])
    if mask is None:
        _columns.count_plane("filter_fallback")
        return None
    _columns.count_plane("filter")
    return [row for row, keep in zip(rows, mask.tolist()) if keep]


_ARITH_FUNCS: Dict[str, str] = {
    "+": "add",
    "-": "subtract",
    "*": "multiply",
    "/": "divide",
    "%": "modulo",
    "^": "power",
}


def _expand_binop(node: ast.BinOp, table: Table, frame: Frame, ctx) -> Table:
    builtin = bi.lookup(_ARITH_FUNCS[node.op])
    stash = _fresh("opl")
    t1 = expand(node.lhs, table, frame, ctx).stash_payload(stash)
    t2 = expand(node.rhs, t1, frame, ctx)
    li = t2.col_index(stash)
    rows = []
    for row in t2.rows:
        left, right = row[li], row[-1]
        if len(left) != 1 or len(right) != 1:
            raise EvaluationError(f"operator {node.op} requires scalar operands")
        for result in builtin.solve((left[0], right[0], FREE)):
            rows.append(row[:-1] + ((result[2],),))
    t3 = Table(t2.cols, rows)
    return _project(t3, [c for c in t3.cols if c != stash])


def _expand_neg(node: ast.Neg, table: Table, frame: Frame, ctx) -> Table:
    expanded = expand(node.operand, table, frame, ctx)
    rows = []
    for row in expanded.rows:
        payload = row[-1]
        if len(payload) != 1 or not isinstance(payload[0], (int, float)) \
                or isinstance(payload[0], bool):
            raise EvaluationError("unary minus requires a numeric operand")
        rows.append(row[:-1] + ((-payload[0],),))
    return Table(expanded.cols, rows)


# ---------------------------------------------------------------------------
# Dot join and left override (infix library operators, Section 5.1)
# ---------------------------------------------------------------------------


def _expand_dotjoin(node: ast.DotJoin, table: Table, frame: Frame, ctx) -> Table:
    stash = _fresh("dotl")
    t1 = expand(node.lhs, table, frame, ctx).stash_payload(stash)
    t2 = expand(node.rhs, t1, frame, ctx)
    li = t2.col_index(stash)
    rows = []
    for row in t2.rows:
        left, right = row[li], row[-1]
        if left and right and _vals_eq(left[-1], right[0]):
            rows.append(row[:-1] + (left[:-1] + right[1:],))
    t3 = Table(t2.cols, rows)
    return _dedupe(_project(t3, [c for c in t3.cols if c != stash]))


def _expand_left_override(node: ast.LeftOverride, table: Table, frame: Frame,
                          ctx) -> Table:
    frees = _scope_frees(node, frame)
    unbound = frees - set(table.cols)
    if unbound:
        raise NotOrderable(
            f"left override over unbound variables {sorted(unbound)}"
        )
    rows: List[Tuple[Any, ...]] = []
    for row in table.rows:
        single = Table(table.cols, [row[:-1] + ((),)])
        left = expand(node.lhs, single, frame, ctx)
        right = expand(node.rhs, single, frame, ctx)
        left_payloads = {r[-1] for r in left.rows}
        keys = {(len(p), p[:-1]) for p in left_payloads if p}
        for payload in left_payloads:
            rows.append(row[:-1] + (row[-1] + payload,))
        for r in right.rows:
            payload = r[-1]
            if payload and (len(payload), payload[:-1]) not in keys:
                rows.append(row[:-1] + (row[-1] + payload,))
    return _dedupe(Table(table.cols, rows))


# ---------------------------------------------------------------------------
# Abstraction as an expression
# ---------------------------------------------------------------------------


def _expand_abstraction(node: ast.Abstraction, table: Table, frame: Frame,
                        ctx) -> Table:
    locals_, guards, positional = _cached_binding_guards(node.bindings, ctx)
    inner_frame = frame.with_scope(locals_)
    items: List[Tuple[Optional[int], ast.Node]] = [(None, g) for g in guards]
    items.append((0, node.body))
    result = _schedule(items, table, inner_frame, ctx, anchor=node)
    unbound = set(locals_) - set(result.cols)
    if unbound and len(result):
        raise SafetyError(
            f"abstraction variables {sorted(unbound)} are unconstrained"
        )

    # Evaluate constant bindings per row, then assemble payloads: binding
    # values first, then the body's payload.
    work = result
    const_cols: Dict[int, str] = {}
    for i, b in enumerate(positional):
        if isinstance(b, ast.ConstBinding):
            const_cols[i] = _fresh("const")
            work = expand(b.expr, work, inner_frame, ctx).stash_payload(const_cols[i])

    cols = work.cols
    # Keep the original columns plus outer-scope variables bound by the body
    # (exported, as for quantifiers); drop the abstraction's own locals and
    # internal stash columns.
    drop = set(locals_) | set(const_cols.values())
    keep = [c for c in cols if c not in drop]
    keep_idx = [cols.index(c) for c in keep]
    local_idx: Dict[int, int] = {}
    for i, b in enumerate(positional):
        if isinstance(b, (ast.VarBinding, ast.TupleVarBinding)):
            local_idx[i] = cols.index(b.name)
        elif isinstance(b, ast.ConstBinding):
            local_idx[i] = cols.index(const_cols[i])
    rows: List[Tuple[Any, ...]] = []
    for row in work.rows:
        prefix: Tuple[Any, ...] = ()
        ok = True
        for i, b in enumerate(positional):
            if isinstance(b, ast.VarBinding):
                prefix += (row[local_idx[i]],)
            elif isinstance(b, ast.TupleVarBinding):
                prefix += row[local_idx[i]]
            elif isinstance(b, ast.ConstBinding):
                cval = row[local_idx[i]]
                if len(cval) != 1:
                    ok = False
                    break
                prefix += (cval[0],)
        if ok:
            rows.append(tuple(row[i] for i in keep_idx) + (prefix + row[-1],))
    return _dedupe(Table(tuple(keep), rows))


# ---------------------------------------------------------------------------
# Argument classification
# ---------------------------------------------------------------------------


class ArgClass:
    VALUE = "value"      # first-order: a value, bind-position, or wildcard
    REL = "rel"          # second-order: a relation/closure/builtin
    AMBI = "ambi"        # could be either (braced literals, applications)


def _classify_arg(node: ast.Node, frame: Frame, ctx) -> str:
    if isinstance(node, ast.Annotated):
        return ArgClass.REL if node.second_order else ArgClass.VALUE
    if isinstance(node, (ast.Const, ast.Wildcard, ast.TupleWildcard, ast.TupleRef,
                         ast.BinOp, ast.Neg, ast.Compare)):
        return ArgClass.VALUE
    if isinstance(node, ast.Ref):
        if node.name in frame.scope:
            return ArgClass.VALUE
        found, value = frame.env.get(node.name)
        if found:
            if isinstance(value, (Relation, Closure, Builtin)):
                return ArgClass.REL
            return ArgClass.VALUE
        ctx.resolve(node.name)  # raises UnknownRelationError if unknown
        return ArgClass.REL
    if isinstance(node, ast.Abstraction):
        return ArgClass.REL
    return ArgClass.AMBI  # applications, braced literals, products, where…


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------


def _expand_application(node: ast.Application, table: Table, frame: Frame,
                        ctx) -> Table:
    callee, pre_args = _resolve_callee(node.target, table, frame, ctx)
    args = tuple(pre_args) + tuple(node.args)
    if isinstance(callee, Relation):
        return _match_relation(callee, args, node.partial, table, frame, ctx)
    if isinstance(callee, Builtin):
        return _apply_builtin(callee, args, node.partial, table, frame, ctx)
    if isinstance(callee, Closure):
        return _apply_closure(callee, args, node.partial, table, frame, ctx)
    if callee == "reduce":
        return _apply_reduce(args, node.partial, table, frame, ctx)
    raise EvaluationError(f"cannot apply {callee!r}")


def _resolve_callee(target: ast.Node, table: Table, frame: Frame, ctx):
    """Resolve an application target to a callee plus curried arguments."""
    if isinstance(target, ast.Ref):
        name = target.name
        if name == "reduce":
            return "reduce", ()
        if name in frame.scope:
            raise EvaluationError(
                f"variable {name} is first-order and cannot be applied"
            )
        found, value = frame.env.get(name)
        if found:
            if isinstance(value, (Relation, Closure, Builtin)):
                return value, ()
            raise EvaluationError(f"{name} is not a relation")
        kind, payload = ctx.resolve(name)
        if kind in ("extent", "builtin", "closure"):
            return payload, ()
        raise UnknownRelationError(name)
    if isinstance(target, ast.Application):
        # Curried application, e.g. APSP[V,E](z,y,j-1).
        callee, pre = _resolve_callee(target.target, table, frame, ctx)
        return callee, tuple(pre) + tuple(target.args)
    if isinstance(target, ast.Abstraction):
        return literal_closure(target, _capture_env(target, table, frame, ctx)), ()
    if isinstance(target, (ast.UnionExpr, ast.ProductExpr, ast.WhereExpr,
                           ast.DotJoin, ast.LeftOverride, ast.Annotated,
                           ast.Const)):
        if _scope_frees(target, frame):
            raise NotOrderable("application target depends on unbound variables")
        return eval_relation(target, frame, ctx), ()
    raise EvaluationError(
        f"cannot apply expression of type {type(target).__name__}"
    )


def _capture_env(node: ast.Node, table: Table, frame: Frame, ctx) -> Env:
    """Build the captured environment for a closure literal, provided the
    captured variables hold the same value in every row."""
    frees = _scope_frees(node, frame)
    if not frees:
        return frame.env
    values: Dict[str, Any] = {}
    for name in frees:
        if not table.has_col(name):
            raise NotOrderable(f"captured variable {name} is not yet bound")
        idx = table.col_index(name)
        vals = {row[idx] for row in table.rows}
        if len(vals) != 1:
            raise EvaluationError(
                "closure capture requires per-row grouping (internal error)"
            )
        values[name] = next(iter(vals))
    return frame.env.extend(values)


# -- matching a finite relation ------------------------------------------------


class _Matcher:
    """Matcher item kinds for argument patterns."""

    VAL = 0         # fixed value (per-row function)
    VALSET = 1      # set of candidate values (enumerated expression)
    BIND = 2        # unbound scalar variable
    BIND_TUPLE = 3  # unbound tuple variable
    ANY = 4         # wildcard _
    ANY_SEG = 5     # tuple wildcard _...
    SPLICE = 6      # bound tuple variable: fixed segment (per-row function)
    INVERT = 7      # invertible expression of one unbound variable
    RELVAL = 8      # second-order element equality (per-row function)
    SAMEVAR = 9     # repeated variable: equals an earlier BIND in this atom
    SAMETUPLE = 10  # repeated tuple variable within this atom


def _invertible(node: ast.Node, table: Table, frame: Frame):
    """Recognize ``x ± c``, ``c ± x``, ``x * c``, ``x / c`` with ``x``
    unbound; returns (variable, inverse: matched value → x) or None."""
    if not isinstance(node, ast.BinOp):
        return None
    lhs_var = _is_unbound_var(node.lhs, table, frame)
    rhs_var = _is_unbound_var(node.rhs, table, frame)
    var = None
    const = None
    var_on_left = True
    if lhs_var and isinstance(node.rhs, ast.Const):
        var, const, var_on_left = lhs_var, node.rhs.value, True
    elif rhs_var and isinstance(node.lhs, ast.Const):
        var, const, var_on_left = rhs_var, node.lhs.value, False
    if var is None or not isinstance(const, (int, float)) or isinstance(const, bool):
        return None
    op = node.op

    def num(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if op == "+":
        return var, lambda v: v - const if num(v) else None
    if op == "-" and var_on_left:
        return var, lambda v: v + const if num(v) else None
    if op == "-":
        return var, lambda v: const - v if num(v) else None
    if op == "*" and const != 0:
        return var, lambda v: _safe_div(v, const) if num(v) else None
    if op == "/" and var_on_left and const != 0:
        return var, lambda v: v * const if num(v) else None
    return None


def _safe_div(v: Any, c: Any) -> Optional[Any]:
    if isinstance(v, int) and isinstance(c, int):
        if v % c == 0:
            return v // c
        return v / c
    return v / c


def _compile_arg_items(args, table: Table, frame: Frame, ctx):
    """Compile argument expressions to matcher items.

    Per-row parts are positional closures over the raw row tuple: column
    positions are resolved once here (against ``table``'s schema), never
    per row. Raises :class:`NotOrderable` when an argument is not yet
    computable."""
    items = []
    bound = set(table.cols)
    local: Set[str] = set()
    for arg in args:
        if isinstance(arg, ast.Wildcard):
            items.append((_Matcher.ANY, None))
        elif isinstance(arg, ast.TupleWildcard):
            items.append((_Matcher.ANY_SEG, None))
        elif isinstance(arg, ast.Const):
            # In argument position every literal is a value — including
            # true/false, which denote the Boolean *values* stored in
            # relations (not the {()}/{} relations they mean as formulas).
            items.append((_Matcher.VAL, _const_fn(arg.value)))
        elif isinstance(arg, ast.Ref):
            items.append(_compile_ref_arg(arg.name, bound, table, frame, ctx,
                                          local))
            kind = items[-1][0]
            if kind == _Matcher.BIND:
                bound.add(items[-1][1])
                local.add(items[-1][1])
        elif isinstance(arg, ast.TupleRef):
            items.append(_compile_tupleref_arg(arg.name, bound, table, frame,
                                               local))
            if items[-1][0] == _Matcher.BIND_TUPLE:
                bound.add(items[-1][1])
                local.add(items[-1][1])
        elif isinstance(arg, ast.Annotated) and not arg.second_order:
            items.append((_Matcher.VALSET, _valset_fn(arg.expr, table, frame, ctx)))
        elif isinstance(arg, ast.Annotated) and arg.second_order:
            items.append((_Matcher.RELVAL, _relval_fn(arg.expr, table, frame, ctx)))
        else:
            inv = _invertible(arg, table, frame)
            if inv is not None:
                items.append((_Matcher.INVERT, inv))
                bound.add(inv[0])
                local.add(inv[0])
                continue
            frees = _scope_frees(arg, frame)
            if frees - bound:
                raise NotOrderable(
                    f"argument depends on unbound variables {sorted(frees - bound)}"
                )
            items.append((_Matcher.VALSET, _valset_fn(arg, table, frame, ctx)))
    return items


def _const_fn(value: Any):
    """Per-row function returning a fixed value regardless of the row."""
    return lambda row: value


def _col_fn(table: Table, name: str):
    """Per-row accessor for one named column, index resolved once."""
    idx = table.col_index(name)
    return lambda row: row[idx]


def _compile_ref_arg(name: str, bound: Set[str], table: Table, frame: Frame,
                     ctx, local: Set[str] = frozenset()):
    if name in frame.scope:
        if name in local:
            # Repeated variable within this argument list: an equality
            # against the value matched earlier in the same tuple.
            return (_Matcher.SAMEVAR, name)
        if name in bound:
            return (_Matcher.VAL, _col_fn(table, name))
        return (_Matcher.BIND, name)
    found, value = frame.env.get(name)
    if found:
        if isinstance(value, tuple):
            return (_Matcher.SPLICE, _const_fn(value))
        if isinstance(value, Relation):
            return (_Matcher.RELVAL, _const_fn(value))
        if isinstance(value, (Closure, Builtin)):
            raise NotOrderable(f"cannot match second-order value {name}")
        return (_Matcher.VAL, _const_fn(value))
    kind, payload = ctx.resolve(name)
    if kind == "extent":
        return (_Matcher.RELVAL, _const_fn(payload))
    if kind == "closure":
        extent = ctx.closure_extent(payload, (), (), full_arity=None)
        return (_Matcher.RELVAL, _const_fn(extent))
    raise NotOrderable(f"cannot match builtin {name} as a value")


def _compile_tupleref_arg(name: str, bound: Set[str], table: Table,
                          frame: Frame, local: Set[str] = frozenset()):
    if name in frame.scope:
        if name in local:
            return (_Matcher.SAMETUPLE, name)
        if name in bound:
            return (_Matcher.SPLICE, _col_fn(table, name))
        return (_Matcher.BIND_TUPLE, name)
    found, value = frame.env.get(name)
    if not found or not isinstance(value, tuple):
        raise UnknownRelationError(f"{name}...")
    return (_Matcher.SPLICE, _const_fn(value))


def _valset_fn(node: ast.Node, table: Table, frame: Frame, ctx):
    """Per-row function yielding the list of first-order values of ``node``.

    Free-variable positions are resolved against ``table`` once; results
    are cached per distinct free-variable valuation (value semantics:
    ``True`` and ``1`` key separately)."""
    cache: Dict[Tuple[Any, ...], List[Any]] = {}
    frees = sorted(_scope_frees(node, frame))
    fidx = [table.col_index(n) for n in frees]

    def fn(row: Tuple[Any, ...]):
        key = tuple(row[i] for i in fidx)
        ckey = row_ident(key)
        if ckey not in cache:
            sub = Table(tuple(frees), [key + ((),)])
            expanded = expand(node, sub, frame, ctx)
            values = []
            for r in expanded.rows:
                payload = r[-1]
                if len(payload) != 1:
                    raise EvaluationError(
                        "first-order argument must evaluate to unary tuples"
                    )
                values.append(payload[0])
            cache[ckey] = values
        return cache[ckey]

    return fn


def _relval_fn(node: ast.Node, table: Table, frame: Frame, ctx):
    """Per-row function yielding the relation value of ``node``."""
    cache: Dict[Tuple[Any, ...], Relation] = {}
    frees = sorted(_scope_frees(node, frame))
    fidx = [table.col_index(n) for n in frees]

    def fn(row: Tuple[Any, ...]):
        key = tuple(row[i] for i in fidx)
        ckey = row_ident(key)
        if ckey not in cache:
            sub = Table(tuple(frees), [key + ((),)])
            expanded = expand(node, sub, frame, ctx)
            cache[ckey] = Relation._from_rows(
                r[-1] for r in expanded.rows
            )
        return cache[ckey]

    return fn


def _pregenerate_value_args(args, table: Table, frame: Frame, ctx):
    """Expand self-binding value arguments ahead of matching.

    An argument like ``Vec1[k] - Vec2[k]`` with ``k`` unbound cannot be
    matched directly, but its own expansion *binds* ``k`` (the applications
    enumerate the vectors' domains). Such arguments are expanded over the
    table first; the argument is replaced by a hidden bound column."""
    new_args: List[ast.Node] = []
    for arg in args:
        inner = arg.expr if isinstance(arg, ast.Annotated) else arg
        if isinstance(arg, ast.Annotated) or isinstance(
            inner, (ast.Const, ast.Ref, ast.TupleRef, ast.Wildcard,
                    ast.TupleWildcard, ast.Abstraction)
        ):
            new_args.append(arg)
            continue
        frees = _scope_frees(inner, frame) - set(table.cols)
        if not frees or _invertible(inner, table, frame) is not None:
            new_args.append(arg)
            continue
        sim = simulate(inner, set(table.cols), frame, ctx)
        if sim is None or (frees - sim):
            new_args.append(arg)
            continue
        expanded = expand(inner, table, frame, ctx)
        col = _fresh("genarg")
        rows = []
        for row in expanded.rows:
            payload = row[-1]
            if len(payload) != 1:
                raise EvaluationError(
                    "first-order argument must evaluate to unary tuples"
                )
            rows.append(row[:-1] + (payload[0], ()))
        table = _dedupe(Table(expanded.cols + (col,), rows))
        frame = frame.with_scope([col])
        new_args.append(ast.Ref(col))
    return tuple(new_args), table, frame


def _strip_hidden(table: Table) -> Table:
    if not any(c.startswith("__genarg") for c in table.cols):
        return table
    return table.project([c for c in table.cols if not c.startswith("__genarg")])


def _match_relation(rel: Relation, args, partial: bool, table: Table,
                    frame: Frame, ctx) -> Table:
    args, table, frame = _pregenerate_value_args(args, table, frame, ctx)
    items = _compile_arg_items(args, table, frame, ctx)
    return _strip_hidden(_match_with_items(rel, items, partial, table, ctx))


def _item_new_vars(items) -> List[str]:
    new_vars: List[str] = []
    for kind, data in items:
        if kind in (_Matcher.BIND, _Matcher.BIND_TUPLE):
            new_vars.append(data)
        elif kind == _Matcher.INVERT:
            new_vars.append(data[0])
    return new_vars


def _match_realized_rows(rel: Relation, realized, partial: bool,
                         base: Tuple[Any, ...], payload0: Tuple[Any, ...],
                         new_vars: List[str], ctx):
    """Yield output rows matching realized items against a relation."""
    has_segments = any(
        k in (_Matcher.BIND_TUPLE, _Matcher.ANY_SEG, _Matcher.SPLICE,
              _Matcher.SAMETUPLE)
        for k, _ in realized
    )
    prefix_len = 0
    for kind, _ in realized:
        if kind == _Matcher.VAL:
            prefix_len += 1
        else:
            break
    if prefix_len:
        key = tuple(item[1] for item in realized[:prefix_len])
        rows = rel._rows
        if prefix_len == len(realized) and not partial and rows is not None:
            # Fully bound: one get in the row dict the relation holds, not
            # an index over all of it (rebuilt for every new base value).
            hit = rows.get(model_row_key(key))
            candidates = () if hit is None else (hit,)
        else:
            candidates = ctx.state.index(rel, prefix_len).get(key, ())
    else:
        candidates = rel.rows()
    for tup in candidates:
        for binds, suffix in _match_tuple(tup, realized, partial, has_segments):
            new_vals = tuple(binds[v] for v in new_vars)
            yield base + new_vals + (payload0 + suffix,)


#: Matcher kinds for which one stored tuple yields at most one match that
#: is fully determined by the tuple: fixed-value checks and scalar binds.
#: Segment kinds (tuple binds, splices) and VALSET/ANY/INVERT can map
#: distinct tuples to one output and are excluded.
_INJECTIVE_KINDS = frozenset(
    {_Matcher.VAL, _Matcher.BIND, _Matcher.SAMEVAR, _Matcher.RELVAL})


def _match_with_items(rel: Relation, items, partial: bool, table: Table,
                      ctx) -> Table:
    new_vars = _item_new_vars(items)
    rows: List[Tuple[Any, ...]] = []
    out_cols = table.cols + tuple(new_vars)
    for row in table.rows:
        realized = _realize_items(items, row)
        if realized is None:
            continue
        rows.extend(
            _match_realized_rows(rel, realized, partial, row[:-1], row[-1],
                                 new_vars, ctx)
        )
    # Satellite fix: a full-arity match whose items are all fixed checks or
    # scalar binds consumes each row_key-distinct stored tuple at most once
    # and determines the output from it, so a distinct incoming table makes
    # the output distinct without re-keying.
    if not partial and table.distinct \
            and all(k in _INJECTIVE_KINDS for k, _ in items):
        return Table(out_cols, rows, distinct=True)
    return _dedupe(Table(out_cols, rows))


def _realize_items(items, row):
    """Evaluate per-row parts of the matcher items (positional closures
    over the raw row tuple); None on a dead row."""
    realized = []
    for kind, data in items:
        if kind in (_Matcher.VAL, _Matcher.SPLICE, _Matcher.RELVAL):
            realized.append((kind, data(row)))
        elif kind == _Matcher.VALSET:
            values = data(row)
            if not values:
                return None
            realized.append((kind, values))
        else:
            realized.append((kind, data))
    return realized


def _match_tuple(tup, items, partial, has_segments):
    """Match one stored tuple against realized items → (bindings, suffix)."""
    if not has_segments:
        n = len(items)
        if partial:
            if len(tup) < n:
                return
        elif len(tup) != n:
            return
        binds: Dict[str, Any] = {}
        for i, (kind, data) in enumerate(items):
            v = tup[i]
            if kind == _Matcher.VAL:
                if not _vals_eq(data, v):
                    return
            elif kind == _Matcher.VALSET:
                if not any(_vals_eq(c, v) for c in data):
                    return
            elif kind == _Matcher.BIND:
                binds[data] = v
            elif kind == _Matcher.ANY:
                pass
            elif kind == _Matcher.INVERT:
                name, fn = data
                solved = fn(v)
                if solved is None:
                    return
                binds[name] = solved
            elif kind == _Matcher.RELVAL:
                if not isinstance(v, Relation) or v != data:
                    return
            elif kind == _Matcher.SAMEVAR:
                if data not in binds or not _vals_eq(binds[data], v):
                    return
        yield binds, tup[n:]
        return
    yield from _match_segments(tup, 0, items, 0, {}, partial)


def _match_segments(tup, pos, items, item_idx, binds, partial):
    if item_idx == len(items):
        if partial or pos == len(tup):
            yield dict(binds), tup[pos:]
        return
    kind, data = items[item_idx]
    if kind == _Matcher.SPLICE:
        seg = data
        if tup[pos: pos + len(seg)] == seg:
            yield from _match_segments(tup, pos + len(seg), items, item_idx + 1,
                                       binds, partial)
        return
    if kind == _Matcher.SAMETUPLE:
        seg = binds.get(data)
        if seg is not None and tup[pos: pos + len(seg)] == seg:
            yield from _match_segments(tup, pos + len(seg), items, item_idx + 1,
                                       binds, partial)
        return
    if kind in (_Matcher.BIND_TUPLE, _Matcher.ANY_SEG):
        for end in range(pos, len(tup) + 1):
            if kind == _Matcher.BIND_TUPLE:
                binds2 = dict(binds)
                binds2[data] = tup[pos:end]
            else:
                binds2 = binds
            yield from _match_segments(tup, end, items, item_idx + 1, binds2,
                                       partial)
        return
    if pos >= len(tup):
        return
    v = tup[pos]
    if kind == _Matcher.VAL:
        if _vals_eq(data, v):
            yield from _match_segments(tup, pos + 1, items, item_idx + 1, binds,
                                       partial)
    elif kind == _Matcher.VALSET:
        if any(_vals_eq(c, v) for c in data):
            yield from _match_segments(tup, pos + 1, items, item_idx + 1, binds,
                                       partial)
    elif kind == _Matcher.BIND:
        binds2 = dict(binds)
        binds2[data] = v
        yield from _match_segments(tup, pos + 1, items, item_idx + 1, binds2,
                                   partial)
    elif kind == _Matcher.ANY:
        yield from _match_segments(tup, pos + 1, items, item_idx + 1, binds,
                                   partial)
    elif kind == _Matcher.INVERT:
        name, fn = data
        solved = fn(v)
        if solved is not None:
            binds2 = dict(binds)
            binds2[name] = solved
            yield from _match_segments(tup, pos + 1, items, item_idx + 1, binds2,
                                       partial)
    elif kind == _Matcher.RELVAL:
        if isinstance(v, Relation) and v == data:
            yield from _match_segments(tup, pos + 1, items, item_idx + 1, binds,
                                       partial)
    elif kind == _Matcher.SAMEVAR:
        if data in binds and _vals_eq(binds[data], v):
            yield from _match_segments(tup, pos + 1, items, item_idx + 1, binds,
                                       partial)


# -- builtins ---------------------------------------------------------------


def _apply_builtin(builtin: Builtin, args, partial: bool, table: Table,
                   frame: Frame, ctx) -> Table:
    args, table, frame = _pregenerate_value_args(args, table, frame, ctx)
    items = _compile_arg_items(args, table, frame, ctx)
    arities = sorted(builtin.arities())
    chosen = None
    for n in arities:
        if n == len(items) or (partial and n > len(items)):
            mask = "".join(
                "b" if kind in (_Matcher.VAL, _Matcher.VALSET) else "f"
                for kind, _ in items
            ) + "f" * (n - len(items))
            if builtin.supports(mask):
                chosen = (n, mask)
                break
    if chosen is None:
        raise NotOrderable(
            f"builtin {builtin.name} unsupported for this binding pattern"
        )
    n, _ = chosen
    new_vars = [data for kind, data in items if kind == _Matcher.BIND]
    invert_vars = [data[0] for kind, data in items if kind == _Matcher.INVERT]
    out_cols = table.cols + tuple(new_vars) + tuple(invert_vars)
    rows: List[Tuple[Any, ...]] = []
    for row in table.rows:
        realized = _realize_items(items, row)
        if realized is None:
            continue
        value_options: List[List[Any]] = []
        for kind, data in realized:
            if kind == _Matcher.VAL:
                value_options.append([data])
            elif kind == _Matcher.VALSET:
                value_options.append(list(data))
            else:
                value_options.append([FREE])
        base, payload0 = row[:-1], row[-1]
        for combo in itertools.product(*value_options):
            slots = tuple(combo) + (FREE,) * (n - len(items))
            for solution in builtin.solve(slots):
                binds: Dict[str, Any] = {}
                ok = True
                for i, (kind, data) in enumerate(realized):
                    if kind == _Matcher.BIND:
                        binds[data] = solution[i]
                    elif kind == _Matcher.INVERT:
                        name, fn = data
                        solved = fn(solution[i])
                        if solved is None:
                            ok = False
                            break
                        binds[name] = solved
                if not ok:
                    continue
                suffix = solution[len(items):]
                new_vals = tuple(binds[v] for v in new_vars) + tuple(
                    binds[v] for v in invert_vars
                )
                rows.append(base + new_vals + (payload0 + suffix,))
    return _strip_hidden(_dedupe(Table(out_cols, rows)))


# -- reduce -------------------------------------------------------------------


def _apply_reduce(args, partial: bool, table: Table, frame: Frame, ctx) -> Table:
    if len(args) not in (2, 3):
        raise ArityError("reduce takes two or three arguments")
    op_node = args[0].expr if isinstance(args[0], ast.Annotated) else args[0]
    rel_node = args[1].expr if isinstance(args[1], ast.Annotated) else args[1]

    frees = sorted(_scope_frees(rel_node, frame))
    unbound = set(frees) - set(table.cols)
    if unbound:
        raise NotOrderable(f"reduce over unbound variables {sorted(unbound)}")

    op_value = _second_order_value(op_node, table, frame, ctx)
    rel_fn = _relval_fn(rel_node, table, frame, ctx)

    rows: List[Tuple[Any, ...]] = []
    for row in table.rows:
        rel = rel_fn(row)
        if not rel:
            continue  # reduce of the empty relation is empty (Section 5.2)
        folded = _fold(op_value, rel.last_column_values(), frame, ctx)
        if folded is None:
            continue
        rows.append(row[:-1] + (row[-1] + (folded,),))
    result = Table(table.cols, rows)
    if len(args) == 2:
        return result
    # reduce(F, R, v): a formula — check or bind the result value.
    check = args[2].expr if isinstance(args[2], ast.Annotated) else args[2]
    var = _is_unbound_var(check, result, frame)
    if var is not None:
        rows2 = [row[:-1] + (row[-1][-1], row[-1][:-1]) for row in result.rows]
        return _dedupe(Table(result.cols + (var,), rows2))
    filtered: List[Tuple[Any, ...]] = []
    for row in result.rows:
        sub = Table(result.cols, [row[:-1] + ((),)])
        vals = expand(check, sub, frame, ctx)
        target = {r[-1] for r in vals.rows}
        if (row[-1][-1],) in target:
            filtered.append(row[:-1] + (row[-1][:-1],))
    return _dedupe(Table(result.cols, filtered))


def _second_order_value(node: ast.Node, table: Table, frame: Frame, ctx):
    """Resolve an operator argument (for reduce) to a second-order value."""
    if isinstance(node, ast.Ref):
        name = node.name
        found, value = frame.env.get(name)
        if found and isinstance(value, (Relation, Closure, Builtin)):
            return value
        if not found and name not in frame.scope:
            kind, payload = ctx.resolve(name)
            if kind in ("builtin", "closure", "extent"):
                return payload
        raise EvaluationError(f"{name} is not usable as a reduce operator")
    if isinstance(node, ast.Abstraction):
        return literal_closure(node, _capture_env(node, table, frame, ctx))
    raise EvaluationError("unsupported reduce operator expression")


def _fold(op, values: List[Any], frame: Frame, ctx) -> Optional[Any]:
    """Left-to-right fold of ``values`` in the canonical order (numbers
    ascending, then everything else by its text); ``None`` when there is
    nothing to fold or some step of the operator has no result."""
    if not values:
        return None  # only empty tuples: no last column to fold
    values = sorted(values,
                    key=lambda v: (0, v) if isinstance(v, (int, float))
                    and not isinstance(v, bool) else (1, str(v)))
    if isinstance(op, Builtin) \
            and _kernel_wanted(len(values)):
        # C-level fold for the numeric aggregates; identical left-to-right
        # fold, so bit-identical to chaining the binary builtin below.
        fast = _columns.fold_values(op.name, values)
        if fast is not None:
            _columns.count_plane("fold")
            return fast
        _columns.count_plane("fold_fallback")
    acc = values[0]
    for v in values[1:]:
        acc = _apply_binary(op, acc, v, frame, ctx)
        if acc is None:
            return None
    return acc


def _apply_binary(op, a: Any, b: Any, frame: Frame, ctx) -> Optional[Any]:
    if isinstance(op, Builtin):
        for solution in op.solve((a, b, FREE)):
            return solution[2]
        return None
    if isinstance(op, Relation):
        for tup in op.suffixes_for_prefix((a, b)):
            if len(tup) == 1:
                return tup[0]
        return None
    if isinstance(op, Closure):
        app = ast.Application(
            ast.Ref("__op"), (ast.Const(a), ast.Const(b)), partial=True
        )
        env = frame.env.extend({"__op": op})
        out = expand(app, Table.unit(), Frame(env, frozenset()), ctx)
        for row in out.rows:
            if len(row[-1]) == 1:
                return row[-1][0]
        return None
    raise EvaluationError("unsupported reduce operator value")


# -- grouped folds -------------------------------------------------------------
#
# An aggregate is a closure whose one-parameter rule is ``reduce[op, A]``
# (Section 5.2). Applied to many groups at once — ``m = sum[{(v) : R(k, v)}]``
# — such a closure never needs instantiating: every group's value is the
# fold of its own tuples, so the groups are folded side by side and the
# application emits one table. Closures of any other shape keep the
# per-group path in :func:`_apply_group_constant`.


def _reduce_shape(body: ast.Node):
    """``(operator node, relation name, trailing constants)`` when ``body``
    is ``reduce[op, A]`` or ``reduce[op, (A, c…)]`` over plain names, else
    ``None``."""
    if not (isinstance(body, ast.Application)
            and isinstance(body.target, ast.Ref)
            and body.target.name == "reduce" and len(body.args) == 2):
        return None
    op, rel = body.args
    consts: Tuple[Any, ...] = ()
    if isinstance(rel, ast.ProductExpr) and len(rel.items) > 1:
        rel, *rest = rel.items
        if not all(isinstance(c, ast.Const) and not isinstance(c.value, bool)
                   for c in rest):
            return None  # true/false are the relations {()} / {}, not values
        consts = tuple(c.value for c in rest)
    if not (isinstance(op, ast.Ref) and isinstance(rel, ast.Ref)) \
            or op.name == rel.name:
        return None
    return op, rel.name, consts


def _fold_shape(closure: Closure, k: int):
    """The :func:`_reduce_shape` of ``closure``'s ``k``-parameter rule group
    when that group is *fold-shaped*: one bracket-headed rule whose only
    head binding is the relation the body reduces. Judged from the rule
    ASTs alone, so a user's ``def total[{A}] : reduce[add, A]`` qualifies
    like ``sum``."""
    if k != 1:
        return None
    rules = [r for r in closure.rules if len(r.rel_positions) == 1]
    if len(rules) != 1:
        return None
    rule = rules[0]
    if rule.formula_head or len(rule.head) != 1:
        return None
    shape = _reduce_shape(rule.body)
    if shape is None or shape[1] != rule.head[0].name:
        return None
    return shape


def _fold_grouped(shape, closure: Closure,
                  groups: Sequence[Collection[Tuple[Any, ...]]],
                  ctx) -> List[Optional[Any]]:
    """Fold every group of a fold-shaped application in one pass.

    ``groups[g]`` holds the distinct tuples of group ``g``; entry ``g`` of
    the result is the value ``closure`` has on that relation, ``None``
    where it has none. Each group is folded by :func:`_fold` — the same
    values in the same order as instantiating the closure, without
    instantiating it."""
    _budget_checkpoint()
    op_node, _, consts = shape
    if consts:
        per_group = [[consts[-1]] * len(tuples) for tuples in groups]
    else:
        per_group = [[t[-1] for t in tuples if t] for tuples in groups]
    if not any(per_group):
        return [None] * len(groups)
    frame = Frame(closure.env, frozenset())
    op = _second_order_value(op_node, Table.unit(), frame, ctx)
    return [_fold(op, values, frame, ctx) for values in per_group]


def _attach_folded(sub: Table, folded: Sequence[Optional[Any]], value_args,
                   partial: bool, frame: Frame, ctx) -> Table:
    """The table a fold-shaped application yields over ``sub``: row ``i``
    matched against the one-tuple extent ``{(folded[i],)}`` (no extent,
    hence no output row, where ``folded[i]`` is ``None``)."""
    if partial and not value_args:
        rows = [row[:-1] + (row[-1] + (value,),)
                for row, value in zip(sub.rows, folded) if value is not None]
        return _dedupe(Table(sub.cols, rows, distinct=sub.distinct))
    # Value arguments (``min[R](m)``, ``min[…] = 5``): the existing
    # matcher, once, over all extents keyed by their row's position.
    pos_col = _fresh("foldrow")
    keyed_sub = Table(sub.cols + (pos_col,),
                      [row[:-1] + (i, row[-1])
                       for i, row in enumerate(sub.rows)], distinct=True)
    extents = Relation._from_rows(
        (i, value) for i, value in enumerate(folded) if value is not None)
    items = [(_Matcher.VAL, _col_fn(keyed_sub, pos_col))]
    items += _compile_arg_items(value_args, keyed_sub, frame, ctx)
    matched = _match_with_items(extents, items, partial, keyed_sub, ctx)
    at = matched.col_index(pos_col)
    rows = [row[:at] + row[at + 1:] for row in matched.rows]
    return _dedupe(Table(matched.cols[:at] + matched.cols[at + 1:], rows,
                         distinct=sub.distinct and matched.distinct))


# -- closures ------------------------------------------------------------------


def _apply_closure(closure: Closure, args, partial: bool, table: Table,
                   frame: Frame, ctx) -> Table:
    """Apply a defined relation.

    Rules are grouped by their number of relation parameters; each group is
    one dispatch alternative (first- vs second-order readings of leading
    arguments, Addendum A). Results of applicable groups are unioned.
    """
    groups: Dict[int, List[Rule]] = {}
    for rule in closure.rules:
        groups.setdefault(len(rule.rel_positions), []).append(rule)
    _check_ambiguity(closure, args, set(groups), frame, ctx)

    results: List[Table] = []
    first_error: Optional[Exception] = None
    for k, rules in sorted(groups.items()):
        if len(args) < k:
            continue  # not enough arguments to bind the relation parameters
        rel_args, value_args = args[:k], args[k:]
        usable = True
        for arg in rel_args:
            if _classify_arg(arg, frame, ctx) == ArgClass.VALUE:
                usable = False
                break
        for i in range(k, len(args)):
            arg = args[i]
            # A &{...}-annotated argument cannot occupy a value position.
            if isinstance(arg, ast.Annotated) and arg.second_order:
                usable = False
                break
            # An unannotated relation-name argument prefers the second-order
            # reading when some rule group accepts it there ("the engine can
            # figure out ... by examining the definition", Addendum A).
            if not isinstance(arg, ast.Annotated) \
                    and _classify_arg(arg, frame, ctx) == ArgClass.REL \
                    and any(k2 > i for k2 in groups):
                usable = False
                break
        if not usable:
            continue
        try:
            results.append(
                _apply_group(closure, k, rel_args, value_args, partial,
                             table, frame, ctx)
            )
        except NotOrderable as exc:
            if first_error is None:
                first_error = exc
    if not results:
        if first_error is not None:
            raise NotOrderable(
                f"no rule of {closure.name} is evaluable here: {first_error}"
            )
        return table.clone_cols()
    return _merge_branch_tables(results, table)


def _check_ambiguity(closure: Closure, args, group_ks: Set[int],
                     frame: Frame, ctx) -> None:
    """Reject applications where a braced literal would be read first-order
    by one rule group and second-order by another (the ``addUp`` example)."""
    if len(group_ks) <= 1:
        return
    for i, arg in enumerate(args):
        if isinstance(arg, ast.Annotated):
            continue
        if not isinstance(arg, ast.UnionExpr):
            continue
        readings = {"rel" if i < k else "value" for k in group_ks}
        if len(readings) > 1:
            raise DispatchError(
                f"ambiguous application of {closure.name}: argument {i + 1} "
                f"may be first- or second-order; disambiguate with ?{{...}} "
                f"or &{{...}}"
            )


def _apply_group(closure: Closure, k: int, rel_args, value_args, partial: bool,
                 table: Table, frame: Frame, ctx) -> Table:
    """Apply the rule group with ``k`` relation parameters."""
    # Correlated relation argument: unbound free variables to be bound by the
    # argument's own expansion (grouped aggregation).
    correlated_idx = None
    for i, arg in enumerate(rel_args):
        node = arg.expr if isinstance(arg, ast.Annotated) else arg
        if _scope_frees(node, frame) - set(table.cols):
            if correlated_idx is not None:
                raise NotOrderable(
                    "multiple correlated relation arguments are unsupported"
                )
            correlated_idx = i
    if correlated_idx is not None:
        return _apply_group_correlated(closure, k, rel_args, value_args, partial,
                                       correlated_idx, table, frame, ctx)

    value_args, table, frame = _pregenerate_value_args(value_args, table,
                                                       frame, ctx)
    rel_fns = []
    for arg in rel_args:
        node = arg.expr if isinstance(arg, ast.Annotated) else arg
        rel_fns.append(_rel_arg_fn(node, table, frame, ctx))

    row_groups: Dict[Tuple[Any, ...], List[Tuple[Any, ...]]] = {}
    keyvals: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}
    for row in table.rows:
        values = tuple(fn(row) for fn in rel_fns)
        key = tuple(ctx.cache_key(v) for v in values)
        row_groups.setdefault(key, []).append(row)
        keyvals[key] = values
    if not row_groups:
        return _strip_hidden(table.clone_cols())
    shape = _fold_shape(closure, k)
    if shape is not None and not any(isinstance(v, Builtin)
                                     for v, in keyvals.values()):
        # Fold each distinct relation once. A closure-valued argument (an
        # abstraction over bound variables) stands for its extent, as it
        # does to ``reduce`` inside the aggregate's rule.
        folded = _fold_grouped(shape, closure, [
            (v if isinstance(v, Relation)
             else ctx.closure_extent(v, (), (), full_arity=None)).rows()
            for v, in keyvals.values()], ctx)
        sub = Table(table.cols,
                    [row for rows in row_groups.values() for row in rows],
                    distinct=table.distinct)
        per_row = [value for value, rows in zip(folded, row_groups.values())
                   for _ in rows]
        return _strip_hidden(_attach_folded(sub, per_row, value_args, partial,
                                            frame, ctx))
    full_orderable = ctx.group_full_orderable(closure, k)
    out_tables = [
        _apply_group_constant(closure, keyvals[key], value_args, partial,
                              Table(table.cols, rows), frame, ctx,
                              full_orderable)
        for key, rows in row_groups.items()
    ]
    return _strip_hidden(_merge_branch_tables(out_tables, table))


def _apply_group_constant(closure: Closure, rel_values, value_args,
                          partial: bool, table: Table, frame: Frame, ctx,
                          full_orderable: bool) -> Table:
    """Apply a rule group whose relation parameters are fixed values.

    ``full_orderable`` is ``ctx.group_full_orderable`` for the group — it
    does not depend on the values, so callers ask once per application."""
    items = _compile_arg_items(value_args, table, frame, ctx)
    if full_orderable:
        extent = ctx.closure_extent(closure, rel_values, (), full_arity=None)
        return _match_with_items(extent, items, partial, table, ctx)
    # Demand-driven: per distinct bound-argument values, evaluate the
    # instance with those head positions pre-bound. Value-set arguments
    # (computed expressions) are expanded into concrete demands.
    new_vars = _item_new_vars(items)
    out_cols = table.cols + tuple(new_vars)
    out_rows: List[Tuple[Any, ...]] = []
    for row in table.rows:
        realized = _realize_items(items, row)
        if realized is None:
            continue
        valset_idx = [i for i, (k, _) in enumerate(realized)
                      if k == _Matcher.VALSET]
        combos = itertools.product(
            *[realized[i][1] for i in valset_idx]
        ) if valset_idx else [()]
        for combo in combos:
            concrete = list(realized)
            for i, value in zip(valset_idx, combo):
                concrete[i] = (_Matcher.VAL, value)
            demand = _demand_from_items(concrete)
            full_arity = None if partial else _realized_arity(concrete)
            extent = ctx.closure_extent(closure, rel_values, demand,
                                        full_arity=full_arity)
            out_rows.extend(
                _match_realized_rows(extent, concrete, partial, row[:-1],
                                     row[-1], new_vars, ctx)
            )
    return _dedupe(Table(out_cols, out_rows))


def _realized_arity(realized) -> Optional[int]:
    """The total number of value positions a full application covers, with
    bound tuple splices expanded; None when a segment's length is unknown."""
    arity = 0
    for kind, data in realized:
        if kind == _Matcher.SPLICE:
            arity += len(data)
        elif kind in (_Matcher.BIND_TUPLE, _Matcher.ANY_SEG):
            return None
        else:
            arity += 1
    return arity


def _demand_from_items(realized) -> Tuple[Tuple[int, Any], ...]:
    """Extract (position, value) demand pairs from realized matcher items.

    Only fixed values and bound tuple splices produce demand; a splice
    contributes one pair per element. Positions after the first non-fixed
    item are still usable (the instance evaluator aligns them per rule)."""
    demand: List[Tuple[int, Any]] = []
    pos = 0
    for kind, data in realized:
        if kind == _Matcher.VAL:
            demand.append((pos, data))
            pos += 1
        elif kind == _Matcher.SPLICE:
            for v in data:
                demand.append((pos, v))
                pos += 1
        elif kind in (_Matcher.BIND, _Matcher.ANY, _Matcher.INVERT,
                      _Matcher.VALSET, _Matcher.RELVAL):
            pos += 1
        else:  # BIND_TUPLE / ANY_SEG make later positions unalignable
            break
    return tuple(demand)


def _rel_arg_fn(node: ast.Node, table: Table, frame: Frame, ctx):
    """Per-row resolution of a relation argument to a second-order value.

    The returned function takes the raw row tuple; column positions of any
    captured variables are resolved against ``table`` once."""
    if isinstance(node, ast.Ref):
        name = node.name
        found, value = frame.env.get(name)
        if found:
            if isinstance(value, (Relation, Closure, Builtin)):
                return _const_fn(value)
            raise EvaluationError(f"{name} is not a relation")
        if name not in frame.scope:
            kind, payload = ctx.resolve(name)
            if kind in ("extent", "closure", "builtin"):
                return _const_fn(payload)
            raise UnknownRelationError(name)
    if isinstance(node, ast.Abstraction):
        frees = sorted(_scope_frees(node, frame))
        fidx = [(n, table.col_index(n)) for n in frees]
        env = frame.env

        def make(row):
            captured = {n: row[i] for n, i in fidx}
            return literal_closure(node, env.extend(captured))

        return make
    return _relval_fn(node, table, frame, ctx)


def _apply_group_correlated(closure: Closure, k: int, rel_args, value_args,
                            partial: bool, corr_idx: int, table: Table,
                            frame: Frame, ctx) -> Table:
    """Grouped (correlated) application: a relation argument has unbound free
    variables, which its own expansion binds — the group-by evaluation of
    aggregates like ``i = min[(j) : φ(x, y, j)]`` in APSP."""
    node = rel_args[corr_idx]
    node = node.expr if isinstance(node, ast.Annotated) else node
    frees = sorted(_scope_frees(node, frame) - set(table.cols))

    rowid_col = _fresh("rowid")
    rows = [row[:-1] + (i, row[-1]) for i, row in enumerate(table.rows)]
    work = Table(table.cols + (rowid_col,), rows)
    expanded = expand(node, work, frame, ctx)

    fi = [expanded.col_index(f) for f in frees]
    ri = expanded.col_index(rowid_col)
    # One pass cuts the expansion into its (originating row, free variables)
    # groups and dedupes each group's tuples, both under the engine's value
    # identity: True and 1 are different keys and different tuples.
    group_of: Dict[Tuple[Any, ...], int] = {}
    reps: List[Tuple[Any, ...]] = []
    members: List[Dict[Tuple[Any, ...], Tuple[Any, ...]]] = []
    for row in expanded.rows:
        key = row_ident((row[ri],) + tuple(row[i] for i in fi))
        g = group_of.get(key)
        if g is None:
            g = group_of[key] = len(reps)
            reps.append(row)
            members.append({})
        members[g].setdefault(model_row_key(row[-1]), row[-1])

    base_cols = table.cols
    sub_cols = base_cols + tuple(frees)
    if not reps:
        return Table(sub_cols, [])
    # One row per group: its originating row's columns and payload, plus
    # the free variables as the group's first expanded row binds them.
    keep = [expanded.col_index(c) for c in base_cols] + fi
    sub_rows = [tuple(rep[i] for i in keep) + (table.rows[rep[ri]][-1],)
                for rep in reps]
    inner_frame = frame.with_scope(frees)
    shape = _fold_shape(closure, k)
    if shape is not None:
        folded = _fold_grouped(shape, closure,
                               [tuples.values() for tuples in members], ctx)
        # Groups of one originating row differ in their free variables.
        sub = Table(sub_cols, sub_rows,
                    distinct=table.distinct or len(table) == 1)
        return _attach_folded(sub, folded, value_args, partial, inner_frame,
                              ctx)

    full_orderable = ctx.group_full_orderable(closure, k)
    out_tables: List[Table] = []
    for rep, tuples, sub_row in zip(reps, members, sub_rows):
        rel_values = []
        for i, arg in enumerate(rel_args):
            if i == corr_idx:
                rel_values.append(Relation._from_keyed(tuples))
            else:
                inner = arg.expr if isinstance(arg, ast.Annotated) else arg
                # Positions resolve against the *expanded* table: the
                # representative row carries its columns.
                rel_values.append(_rel_arg_fn(inner, expanded, frame, ctx)(rep))
        out_tables.append(
            _apply_group_constant(closure, tuple(rel_values), value_args,
                                  partial, Table(sub_cols, [sub_row]),
                                  inner_frame, ctx, full_orderable)
        )
    return _merge_branch_tables(out_tables, Table(sub_cols, []))


# ---------------------------------------------------------------------------
# Annotated standalone and sugar
# ---------------------------------------------------------------------------


def _expand_annotated(node: ast.Annotated, table: Table, frame: Frame, ctx) -> Table:
    return expand(node.expr, table, frame, ctx)


def _expand_implies(node: ast.Implies, table: Table, frame: Frame, ctx) -> Table:
    return expand(ast.Or(ast.Not(node.lhs), node.rhs), table, frame, ctx)


def _expand_iff(node: ast.Iff, table: Table, frame: Frame, ctx) -> Table:
    rewritten = ast.And(
        ast.Or(ast.Not(node.lhs), node.rhs),
        ast.Or(ast.Not(node.rhs), node.lhs),
    )
    return expand(rewritten, table, frame, ctx)


def _expand_xor(node: ast.Xor, table: Table, frame: Frame, ctx) -> Table:
    rewritten = ast.And(
        ast.Or(node.lhs, node.rhs),
        ast.Not(ast.And(node.lhs, node.rhs)),
    )
    return expand(rewritten, table, frame, ctx)


# ---------------------------------------------------------------------------
# Variable-level simulation (the safety pre-check used by the scheduler)
# ---------------------------------------------------------------------------


def simulate(node: ast.Node, bound: Set[str], frame: Frame, ctx) -> Optional[Set[str]]:
    """Return the set of variables ``node`` would bind, or None if it cannot
    be expanded with the given bound variables. Purely structural — no data
    is touched. Mirrors the cases of :func:`expand`."""
    if isinstance(node, ast.Const):
        return set()
    if isinstance(node, ast.Ref):
        if node.name in frame.scope:
            return set() if node.name in bound else None
        if node.name in frame.env:
            _, value = frame.env.get(node.name)
            if isinstance(value, Closure):
                return set() if ctx.group_orderable_sim(value, 0, frozenset(),
                                                        None) else None
            if isinstance(value, Builtin):
                return None
            return set()
        kind, payload = ctx.resolve_kind(node.name)
        if kind == "extent":
            return set()
        if kind == "closure":
            return set() if ctx.group_orderable_sim(payload, 0, frozenset(), None) \
                else None
        if kind == "unknown":
            raise UnknownRelationError(node.name)
        return None  # builtins cannot be enumerated bare
    if isinstance(node, ast.TupleRef):
        if node.name in frame.scope:
            return set() if node.name in bound else None
        return set() if node.name in frame.env else None
    if isinstance(node, (ast.Wildcard, ast.TupleWildcard)):
        return None
    if isinstance(node, (ast.And, ast.ProductExpr, ast.WhereExpr)):
        items = [n for _, n in _flatten_conjuncts(node)]
        return _sim_items(items, set(bound), frame, ctx)
    if isinstance(node, (ast.Or, ast.UnionExpr)):
        branches = node.items if isinstance(node, ast.UnionExpr) \
            else (node.lhs, node.rhs)
        if not branches:
            return set()
        common: Optional[Set[str]] = None
        for b in branches:
            r = simulate(b, bound, frame, ctx)
            if r is None:
                return None
            common = r if common is None else (common & r)
        return common if common is not None else set()
    if isinstance(node, ast.Not):
        if isinstance(node.operand, ast.Not):  # ¬¬φ ≡ φ, may bind
            return simulate(node.operand.operand, bound, frame, ctx)
        frees = _scope_frees(node.operand, frame)
        if frees - bound and isinstance(node.operand, _NNF_PUSHABLE):
            from repro.lang.nnf import negate

            return simulate(negate(node.operand), bound, frame, ctx)
        return set() if frees <= bound else None
    if isinstance(node, (ast.Exists, ast.Abstraction)):
        locals_, guards, _ = _cached_binding_guards(node.bindings, ctx)
        inner = frame.with_scope(locals_)
        got = _sim_items(list(guards) + [node.body], set(bound), inner, ctx)
        if got is None:
            return None
        needed = {l for l in locals_ if not l.startswith("__")}
        if needed - (bound | got):
            return None
        return (got - set(locals_)) & frame.scope
    if isinstance(node, ast.ForAll):
        frees = _scope_frees(node, frame)
        return set() if frees <= bound else None
    if isinstance(node, ast.Compare):
        lv = _sim_unbound_var(node.lhs, bound, frame)
        rv = _sim_unbound_var(node.rhs, bound, frame)
        if node.op == "=" and (lv or rv) and not (lv and rv):
            var = lv or rv
            expr = node.rhs if lv else node.lhs
            r = simulate(expr, bound, frame, ctx)
            if r is None:
                return None
            return r | {var}
        rl = simulate(node.lhs, bound, frame, ctx)
        if rl is None:
            return None
        rr = simulate(node.rhs, bound | rl, frame, ctx)
        if rr is None:
            return None
        return rl | rr
    if isinstance(node, ast.BinOp):
        rl = simulate(node.lhs, bound, frame, ctx)
        if rl is None:
            return None
        rr = simulate(node.rhs, bound | rl, frame, ctx)
        if rr is None:
            return None
        return rl | rr
    if isinstance(node, ast.Neg):
        return simulate(node.operand, bound, frame, ctx)
    if isinstance(node, ast.DotJoin):
        rl = simulate(node.lhs, bound, frame, ctx)
        if rl is None:
            return None
        rr = simulate(node.rhs, bound | rl, frame, ctx)
        if rr is None:
            return None
        return rl | rr
    if isinstance(node, ast.LeftOverride):
        frees = _scope_frees(node, frame)
        return set() if frees <= bound else None
    if isinstance(node, ast.Implies):
        return simulate(ast.Or(ast.Not(node.lhs), node.rhs), bound, frame, ctx)
    if isinstance(node, ast.Iff):
        frees = _scope_frees(node, frame)
        return set() if frees <= bound else None
    if isinstance(node, ast.Xor):
        return simulate(
            ast.And(ast.Or(node.lhs, node.rhs),
                    ast.Not(ast.And(node.lhs, node.rhs))),
            bound, frame, ctx,
        )
    if isinstance(node, ast.Annotated):
        return simulate(node.expr, bound, frame, ctx)
    if isinstance(node, ast.Application):
        return _sim_application(node, bound, frame, ctx)
    return None


def _sim_unbound_var(node: ast.Node, bound: Set[str], frame: Frame) -> Optional[str]:
    if isinstance(node, ast.Ref) and node.name in frame.scope \
            and node.name not in bound and node.name not in frame.env:
        return node.name
    return None


def _sim_items(items: List[ast.Node], bound: Set[str], frame: Frame,
               ctx) -> Optional[Set[str]]:
    pending = list(items)
    start = set(bound)
    while pending:
        progressed = False
        for i, n in enumerate(pending):
            r = simulate(n, bound, frame, ctx)
            if r is not None:
                bound |= r
                pending.pop(i)
                progressed = True
                break
        if not progressed:
            return None
    return bound - start


def _sim_application(node: ast.Application, bound: Set[str], frame: Frame,
                     ctx) -> Optional[Set[str]]:
    target = node.target
    pre_args: Tuple[ast.Node, ...] = ()
    while isinstance(target, ast.Application):
        pre_args = tuple(target.args) + pre_args
        target = target.target
    args = pre_args + tuple(node.args)

    if isinstance(target, ast.Abstraction):
        callee_kind: str = "literal"
        payload: Any = target
    elif isinstance(target, ast.Ref):
        name = target.name
        if name == "reduce":
            return _sim_reduce(args, bound, frame, ctx)
        if name in frame.scope:
            return None
        found, value = frame.env.get(name)
        if found:
            if isinstance(value, Relation):
                callee_kind, payload = "extent", value
            elif isinstance(value, Closure):
                callee_kind, payload = "closure", value
            elif isinstance(value, Builtin):
                callee_kind, payload = "builtin", value
            else:
                return None
        else:
            callee_kind, payload = ctx.resolve_kind(name)
            if callee_kind == "unknown":
                raise UnknownRelationError(name)
    else:
        frees = _scope_frees(target, frame)
        if frees <= bound:
            callee_kind, payload = "extent", None
        else:
            return None

    binds: Set[str] = set()
    masks: List[str] = []
    correlated = False
    has_splice = False
    for arg in args:
        inner = arg.expr if isinstance(arg, ast.Annotated) else arg
        var = _sim_unbound_var(inner, bound, frame)
        if isinstance(inner, (ast.Wildcard, ast.TupleWildcard)):
            masks.append("f")
        elif var is not None:
            binds.add(var)
            masks.append("f")
        elif isinstance(inner, ast.TupleRef) and inner.name in frame.scope \
                and inner.name not in bound:
            binds.add(inner.name)
            masks.append("f")
        else:
            if isinstance(inner, ast.TupleRef):
                has_splice = True  # bound splice: covers several positions
            inv = None
            if isinstance(inner, ast.BinOp):
                lv = _sim_unbound_var(inner.lhs, bound, frame)
                rv = _sim_unbound_var(inner.rhs, bound, frame)
                if (lv or rv) and not (lv and rv):
                    inv = lv or rv
            if inv is not None:
                binds.add(inv)
                masks.append("f")
                continue
            frees = _scope_frees(inner, frame) - bound
            if frees:
                # Generator argument: its own expansion binds its frees.
                inner_sim = simulate(inner, bound, frame, ctx)
                if inner_sim is not None and not (frees - inner_sim):
                    binds |= frees
                    masks.append("b")
                    continue
                if callee_kind in ("closure", "literal"):
                    # Potential correlated (grouped) relation argument.
                    inner_sim = simulate(inner, bound, frame.with_scope(frees), ctx)
                    if inner_sim is None or frees - inner_sim:
                        return None
                    correlated = True
                    binds |= frees
                    masks.append("b")
                    continue
                return None
            masks.append("b")

    if callee_kind == "extent":
        return binds
    if callee_kind == "builtin":
        builtin = payload
        for n in sorted(builtin.arities()):
            if n == len(args) or (node.partial and n > len(args)):
                if builtin.supports("".join(masks) + "f" * (n - len(args))):
                    return binds
        return None
    all_bound = all(m == "b" for m in masks)
    if callee_kind == "literal":
        rules = (_literal_rule(payload),)
        demanded = frozenset(i for i, m in enumerate(masks) if m == "b")
        full_arity = None if node.partial else len(args)
        if has_splice and all_bound and not node.partial:
            demanded = ALL_POSITIONS
            full_arity = None
        if ctx.rules_orderable_sim(rules, demanded, full_arity,
                                   base_env=frame.env):
            return binds
        return None
    closure = payload
    ks = {len(r.rel_positions) for r in closure.rules}
    for k in sorted(ks):
        demanded = frozenset(
            i - k for i, m in enumerate(masks) if m == "b" and i >= k
        )
        full_arity = None if node.partial else len(args) - k
        if has_splice and all_bound and not node.partial:
            demanded = ALL_POSITIONS
            full_arity = None
        if ctx.group_orderable_sim(closure, k, demanded, full_arity):
            return binds
    return None


def _literal_rule(abstraction: ast.Abstraction) -> Rule:
    # NOTE: unlike the runtime's literal_rule this deliberately keeps
    # rel_positions=() — the simulation treats every binder of an
    # abstraction literal as a value position.
    return Rule(
        name="<abstraction>",
        head=abstraction.bindings,
        body=abstraction.body,
        formula_head=not abstraction.brackets,
        rel_positions=(),
        free=frozenset(ast.free_names(abstraction)),
    )


def _sim_reduce(args, bound: Set[str], frame: Frame, ctx) -> Optional[Set[str]]:
    if len(args) not in (2, 3):
        return None
    rel_node = args[1].expr if isinstance(args[1], ast.Annotated) else args[1]
    if _scope_frees(rel_node, frame) - bound:
        return None
    if len(args) == 3:
        check = args[2].expr if isinstance(args[2], ast.Annotated) else args[2]
        var = _sim_unbound_var(check, bound, frame)
        if var is not None:
            return {var}
        if _scope_frees(check, frame) - bound:
            return None
    return set()


# ---------------------------------------------------------------------------
# Rule evaluation (used by the program layer)
# ---------------------------------------------------------------------------


def align_demand(positional: Sequence[ast.Binding],
                 demand: Tuple[Tuple[int, Any], ...],
                 full_arity: Optional[int]):
    """Align demanded (position, value) pairs with head bindings.

    Returns ``(pre_bound, post_filters)`` where ``pre_bound`` maps variable
    names (or tuple-variable names, to tuples) to values and
    ``post_filters`` are residual (position, value) checks applied to the
    emitted head tuples. Handles at most one tuple-variable binding; with a
    known full arity the tuple variable's extent is determined and bound."""
    tv_index = None
    for i, b in enumerate(positional):
        if isinstance(b, ast.TupleVarBinding):
            if tv_index is not None:
                return {}, tuple(demand)  # multiple segments: filter only
            tv_index = i
    pre: Dict[str, Any] = {}
    post: List[Tuple[int, Any]] = []
    if tv_index is None:
        for pos, value in demand:
            if pos < len(positional) and isinstance(positional[pos], ast.VarBinding):
                name = positional[pos].name
                if name in pre and not _vals_eq(pre[name], value):
                    return None, None  # contradictory demand: no results
                pre[name] = value
            else:
                post.append((pos, value))
        return pre, tuple(post)
    # One tuple variable: scalars before it align from the left; with a full
    # arity, scalars after it align from the right and the segment is fixed.
    n_before = tv_index
    n_after = len(positional) - tv_index - 1
    demand_map = dict(demand)
    for pos, value in demand:
        if pos < n_before and isinstance(positional[pos], ast.VarBinding):
            pre[positional[pos].name] = value
        elif full_arity is not None and pos >= full_arity - n_after:
            fpos = len(positional) - (full_arity - pos)
            if isinstance(positional[fpos], ast.VarBinding):
                pre[positional[fpos].name] = value
            else:
                post.append((pos, value))
        else:
            post.append((pos, value))
    if full_arity is not None:
        seg_len = full_arity - n_before - n_after
        if seg_len < 0:
            return None, None
        seg = []
        complete = True
        for i in range(seg_len):
            if n_before + i in demand_map:
                seg.append(demand_map[n_before + i])
            else:
                complete = False
                break
        if complete:
            name = positional[tv_index].name
            pre[name] = tuple(seg)
            post = [(p, v) for p, v in post if not (n_before <= p < n_before + seg_len)]
    return pre, tuple(post)


def eval_rule(rule: Rule, env: Env, ctx,
              demand: Tuple[Tuple[int, Any], ...] = (),
              full_arity: Optional[int] = None) -> Collection[Tuple[Any, ...]]:
    """Evaluate one rule to its collection of head tuples (deduplicated
    under the engine's value semantics: ``True`` and ``1`` stay distinct).

    ``env`` must bind the rule's relation parameters (and any captured
    variables for literal closures). ``demand`` optionally pre-binds value
    head positions as ``(position, value)`` pairs, enabling on-demand
    evaluation of definitions that are unsafe to materialize fully.
    """
    got = _eval_rule_result(rule, env, ctx, demand, full_arity)
    if got is None:
        return ()
    return _emit_keyed(*got, ctx).values()


def eval_rule_relation(rule: Rule, env: Env, ctx,
                       demand: Tuple[Tuple[int, Any], ...] = (),
                       full_arity: Optional[int] = None, *,
                       seed: Optional[Relation] = None,
                       seed_at: Optional[Tuple[int, ...]] = None) -> Relation:
    """Like :func:`eval_rule` but packaged as a :class:`Relation` directly.

    A columnar body result whose head is a straight tuple of value
    variables is emitted as a columnar-*native* relation — the fixpoint
    drivers then difference/union/compare it against the running totals
    entirely in vector space, never touching Python row tuples. Otherwise
    the head tuples are emitted pre-keyed in the relation's key space, so
    the drivers still skip one full re-keying pass per rule evaluation.

    ``seed`` binds head variables to every seed row at once: those at the
    head positions ``seed_at``, giving every tuple the rule derives with
    those values there, or by default all of them, keeping the seed rows
    the rule derives. A head it cannot bind (a constant or tuple-variable
    position, or one after a tuple variable; rows of another arity)
    raises SafetyError."""
    got = _eval_rule_result(rule, env, ctx, demand, full_arity, seed, seed_at)
    if got is None:
        return EMPTY
    rel = _emit_columnar(*got)
    if rel is None:
        keyed = _emit_keyed(*got, ctx)
        if not keyed:
            return EMPTY
        rel = Relation._from_keyed(keyed)
    rel = _charge_rows(rel)
    return rel if seed is None or seed_at is not None else seed.intersect(rel)


def _charge_rows(rel: Relation) -> Relation:
    """Charge a rule evaluation's output size against the active budget.

    Sits on the one choke point every fixpoint driver funnels through, so
    ``max_rows`` bounds derivation *work* (re-derivations across rounds
    count) on both the row and columnar planes — ``len`` on a
    columnar-native relation reads the vector length, never rows."""
    budget = getattr(_budget_local, "budget", None)
    if budget is not None:
        n = len(rel)
        if n:
            budget.count_rows(n)
        # A columnar-native emission is one kernel-sized unit of work;
        # check the clock unconditionally so deadlines bound the abort
        # latency by a single rule evaluation, not check_interval of them.
        budget.check()
    return rel


def _eval_rule_result(rule: Rule, env: Env, ctx,
                      demand: Tuple[Tuple[int, Any], ...] = (),
                      full_arity: Optional[int] = None,
                      seed: Optional[Relation] = None,
                      seed_at: Optional[Tuple[int, ...]] = None):
    """Schedule one rule body and return ``(result table, positional head
    bindings, post filters, frame)``, or None when the demand pattern is
    unsatisfiable. Head emission is the caller's choice:
    :func:`_emit_keyed` (row tuples keyed for the dict plane) or
    :func:`_emit_columnar` (a native columnar relation)."""
    locals_, guards, positional = _rule_skeleton(rule, ctx)
    frame = Frame(env, frozenset(locals_))
    if seed is not None:
        table, post = _seed_table(rule, positional, seed, seed_at), ()
    else:
        pre, post = align_demand(positional, demand, full_arity)
        if pre is None:
            return None
        table = Table(tuple(pre.keys()), [tuple(pre.values()) + ((),)])
    items: List[Tuple[Optional[int], ast.Node]] = [(None, g) for g in guards]
    items.append((0, rule.body))
    try:
        result = _schedule(items, table, frame, ctx, anchor=rule)
    except NotOrderable as exc:
        raise SafetyError(str(exc)) from exc
    unbound = set(locals_) - set(result.cols)
    if unbound and len(result):
        raise SafetyError(
            f"rule {rule.name}: head variables {sorted(unbound)} are unconstrained"
        )
    return result, positional, post, frame


def _seed_table(rule: Rule, positional, seed: Relation,
                at: Optional[Tuple[int, ...]]) -> Table:
    """One row per seed row, one column per seeded head variable (a
    repeated variable is already aliased apart, its guard re-checking
    equality). A position ``p`` is the tuple's column ``p`` only while no
    tuple variable comes before it."""
    at = range(len(positional)) if at is None else at
    if seed.arities() != {len(at)} or not all(
            p < len(positional) and isinstance(positional[p], ast.VarBinding)
            and not any(isinstance(b, ast.TupleVarBinding)
                        for b in positional[:p]) for p in at):
        raise SafetyError(f"rule {rule.name}: head cannot be seeded")
    cols = tuple(positional[p].name for p in at)
    if cols and _columns.available() and seed.columns() is not None:
        return Table.from_columns(cols, (), seed.columns(), ())
    return Table(cols, [row + ((),) for row in seed.rows()], distinct=True)


def _emit_columnar(result: Table, positional, post,
                   frame: Frame) -> Optional[Relation]:
    """Emit a rule's head tuples as a columnar-native Relation, or None to
    decline (the keyed emitter is always correct).

    Eligible exactly when the head is a plain tuple of value variables
    over a columnar body result with nothing row-wise left to do: no
    demand prefix, no residual payload, no post-filters, every head
    position a :class:`ast.VarBinding` backed by one of the vectors. The
    head projection (column select + dedupe) then runs as kernels and the
    ColumnSet is adopted by the relation unchanged — zero Python rows."""
    colsrc = result.colsrc
    if colsrc is None or result._rows is not None:
        return None
    prefix, colset, payload = colsrc
    if prefix != () or payload != () or post or not positional:
        return None
    if not colset.length:
        return EMPTY
    idx: List[int] = []
    for binding in positional:
        if not isinstance(binding, ast.VarBinding):
            return None
        try:
            idx.append(result.col_index(binding.name))
        except ValueError:
            return None
    if len(set(idx)) == len(colset.tags) == len(idx):
        # The head is a permutation of the body columns: rows are already
        # distinct (deduplicated join output), just reorder the vectors.
        out = _columns.ColumnSet(tuple(colset.tags[i] for i in idx),
                                 tuple(colset.arrays[i] for i in idx),
                                 colset.length)
    else:
        cols = [(colset.tags[i], colset.arrays[i]) for i in idx]
        keep = _columns.distinct_indices(cols, colset.length)
        out = _columns.ColumnSet(tuple(t for t, _ in cols),
                                 tuple(a[keep] for _, a in cols),
                                 len(keep))
    _columns.count_plane("emit")
    return Relation.from_columns(out)


def _emit_keyed(result: Table, positional, post, frame: Frame,
                ctx) -> Dict[Tuple[Any, ...], Tuple[Any, ...]]:
    out: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}
    if not len(result):
        return out
    # Head emission: binding kinds never vary per row, so compile the
    # per-position operations once and run a flat loop over the rows.
    emit: List[Tuple[int, Any]] = []
    for binding in positional:
        if isinstance(binding, ast.VarBinding):
            emit.append((0, result.col_index(binding.name)))
        elif isinstance(binding, ast.TupleVarBinding):
            emit.append((1, result.col_index(binding.name)))
        elif isinstance(binding, ast.ConstBinding):
            emit.append((2, binding.expr))
        else:
            return out  # unsupported head binding: no tuples
    for row in result.rows:
        prefix: Tuple[Any, ...] = ()
        ok = True
        for kind, data in emit:
            if kind == 0:
                prefix += (row[data],)
            elif kind == 1:
                prefix += row[data]
            else:
                sub = Table(result.cols, [row[:-1] + ((),)])
                vals_t = expand(data, sub, frame, ctx)
                cvals = {r[-1] for r in vals_t.rows}
                if len(cvals) != 1:
                    ok = False
                    break
                (cval,) = cvals
                if len(cval) != 1:
                    ok = False
                    break
                prefix += (cval[0],)
        if not ok:
            continue
        tup = prefix + row[-1]
        if all(pos < len(tup) and _vals_eq(tup[pos], value)
               for pos, value in post):
            out.setdefault(model_row_key(tup), tup)
    return out


def rule_orderable(rule: Rule, bound_names: FrozenSet[str], ctx,
                   base_env: Optional[Env] = None) -> bool:
    """Static orderability: can the rule body be scheduled with the given
    head variables pre-bound? Used to decide full materialization."""
    locals_, guards, _ = _rule_skeleton(rule, ctx)
    frame = Frame(_sim_env_for(rule, base_env), frozenset(locals_))
    got = _sim_items(list(guards) + [rule.body], set(bound_names), frame, ctx)
    if got is None:
        return False
    needed = {l for l in locals_ if not l.startswith("__")}
    return not (needed - (set(bound_names) | got))


def _sim_env_for(rule: Rule, base_env: Optional[Env]) -> Env:
    """Environment for simulation: relation parameters are stand-in extents,
    layered over the closure's captured environment (if any)."""
    base = base_env if base_env is not None else Env.EMPTY
    bindings = {name: EMPTY for name in rule.rel_param_names}
    return base.extend(bindings) if bindings else base


# ---------------------------------------------------------------------------
# Dispatch table
# ---------------------------------------------------------------------------

_HANDLERS = {
    ast.Const: _expand_const,
    ast.Ref: _expand_ref,
    ast.TupleRef: _expand_tupleref,
    ast.Wildcard: _expand_wildcard,
    ast.TupleWildcard: _expand_wildcard,
    ast.ProductExpr: _expand_conjunction,
    ast.And: _expand_conjunction,
    ast.WhereExpr: _expand_conjunction,
    ast.UnionExpr: _expand_union,
    ast.Or: _expand_union,
    ast.Not: _expand_not,
    ast.Exists: _expand_exists,
    ast.ForAll: _expand_forall,
    ast.Compare: _expand_compare,
    ast.BinOp: _expand_binop,
    ast.Neg: _expand_neg,
    ast.DotJoin: _expand_dotjoin,
    ast.LeftOverride: _expand_left_override,
    ast.Abstraction: _expand_abstraction,
    ast.Application: _expand_application,
    ast.Annotated: _expand_annotated,
    ast.Implies: _expand_implies,
    ast.Iff: _expand_iff,
    ast.Xor: _expand_xor,
}
