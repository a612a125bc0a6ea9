"""Conjunctive-query evaluation: binary plans vs. worst-case optimal joins.

The planner evaluates a conjunctive query (a list of :class:`Atom`) with one
of three strategies:

- ``"binary"`` — a greedy left-deep binary hash-join plan
  (smallest-relation-first, shared-variables-next — the classical strategy);
- ``"leapfrog"`` — Veldhuizen's worst-case optimal triejoin;
- ``"nested"`` — a naive enumerate-all-assignments reference evaluator, the
  ground truth of the agreement test suite;
- ``"auto"`` — :func:`choose_strategy` picks leapfrog vs. binary by a
  cardinality/cyclicity heuristic.

Atoms are *canonicalized* before planning: repeated variables within one
atom become an intra-atom equality filter plus a column drop, and column
orders that disagree with the global variable order are permuted, so any
atom shape is accepted. All value comparisons use
:func:`repro.model.values.sort_key` (the engine's value semantics: ``1``
joins ``1.0``, ``True`` does not join ``1``).

This is the engine's conjunction substrate (see
``repro.engine.expand._schedule_multiway``) as well as the benchmark-B2
workhorse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.joins.binary import hash_join
from repro.joins.leapfrog import build_sorted_trie, leapfrog_triejoin
from repro.model.relation import Relation
from repro.model.relation import row_key as _value_row_key
from repro.model.values import UnknownValueError, is_value, sort_key

Row = Tuple[Any, ...]

#: Strategies accepted by :func:`multiway_join` (besides "auto").
STRATEGIES = ("leapfrog", "binary", "nested")


@dataclass(frozen=True)
class Atom:
    """One conjunct: a set of rows with named variables.

    ``rows`` may be any sized, iterable collection of tuples (the planner
    only sizes and iterates it — the engine passes relation frozensets,
    or whole column-backed :class:`~repro.model.relation.Relation`
    objects, zero-copy: a columnar-native relation sizes without building
    its row dict, and the columnar planner reads its typed vectors
    straight off ``source.columns()``). ``source`` optionally records the
    identity of the relation the rows came from; callers that cache
    derived structures (the engine's sorted-trie cache) key on it. It
    never affects join results, and canonicalization clears it whenever
    the rows are rewritten.
    """

    rows: Any
    variables: Tuple[str, ...]
    source: Any = None

    @staticmethod
    def of(rows, variables, source: Any = None) -> "Atom":
        return Atom(tuple(rows), tuple(variables), source)


def row_key(row: Row) -> Tuple[Any, ...]:
    """The value-semantics identity of a row: the single definition of
    tuple equality shared by every strategy (and the engine's extraction
    path) — ``(1,)`` and ``(1.0,)`` collapse, ``(True,)`` does not.

    Keys are produced by :func:`repro.model.relation.row_key` (the same key
    space the :class:`Relation` container stores under), after validating
    that every element is a Rel value — non-values (e.g. raw Python tuples
    from tuple-variable bindings) raise :class:`UnknownValueError`, which
    the engine's extraction path catches to fall back."""
    for v in row:
        if not is_value(v) and not isinstance(v, Relation):
            raise UnknownValueError(
                f"not a Rel value: {v!r} ({type(v).__name__})"
            )
    return _value_row_key(row)


_row_key = row_key


def canonicalize_atom(atom: Atom) -> Atom:
    """Normalize repeated variables: filter rows on intra-atom equalities
    (value semantics) and drop the duplicate columns. Atoms without repeats
    are returned unchanged (keeping their ``source``)."""
    variables = atom.variables
    first: Dict[str, int] = {}
    keep: List[int] = []
    eqs: List[Tuple[int, int]] = []
    for i, v in enumerate(variables):
        if v in first:
            eqs.append((first[v], i))
        else:
            first[v] = i
            keep.append(i)
    if not eqs:
        return atom
    seen: Set[Tuple[Any, ...]] = set()
    rows: List[Row] = []
    for row in atom.rows:
        if any(sort_key(row[a]) != sort_key(row[b]) for a, b in eqs):
            continue
        proj = tuple(row[i] for i in keep)
        key = _row_key(proj)
        if key not in seen:
            seen.add(key)
            rows.append(proj)
    return Atom(tuple(rows), tuple(variables[i] for i in keep))


def _prepare(atoms: Sequence[Atom],
             output: Sequence[str]) -> Tuple[List[Atom], bool]:
    """Canonicalize atoms and strip zero-variable (pure filter) atoms.

    Returns ``(atoms, empty)`` where ``empty`` means the query is
    unsatisfiable (a filter atom with no rows). Raises :class:`ValueError`
    naming any ``output`` variable bound by no atom."""
    kept: List[Atom] = []
    empty = False
    for atom in atoms:
        canon = canonicalize_atom(atom)
        if canon.variables:
            kept.append(canon)
        elif not canon.rows:
            empty = True
    covered: Set[str] = set()
    for atom in kept:
        covered.update(atom.variables)
    missing = [v for v in output if v not in covered]
    if missing:
        raise ValueError(
            "output variable(s) "
            + ", ".join(repr(v) for v in missing)
            + " are not bound by any atom"
        )
    return kept, empty


def _project(rows: Sequence[Row], cols: Sequence[str],
             output: Sequence[str], distinct: bool = False) -> List[Row]:
    """Project onto ``output`` with value-semantics deduplication.

    ``distinct`` asserts the input rows are already ``row_key``-distinct
    AND that ``output`` covers every column (a pure permutation) — then
    the dedup pass is skipped. Callers must guarantee both."""
    idx = [list(cols).index(v) for v in output]
    if distinct and set(output) == set(cols):
        return [tuple(row[i] for i in idx) for row in rows]
    seen: Set[Tuple[Any, ...]] = set()
    out: List[Row] = []
    for row in rows:
        projected = tuple(row[i] for i in idx)
        key = _row_key(projected)
        if key not in seen:
            seen.add(key)
            out.append(projected)
    return out


def binary_plan_join(atoms: Sequence[Atom],
                     output: Sequence[str],
                     index_builder: Optional["IndexBuilder"] = None,
                     distinct_inputs: bool = False) -> List[Row]:
    """Greedy left-deep hash-join plan.

    Starts from the smallest atom, repeatedly joins the atom sharing the
    most variables with the partial result (ties: smaller first), and
    projects onto ``output``. The empty conjunction yields the unit
    relation ``[()]``.

    ``index_builder`` optionally supplies (cached) hash indexes for atoms
    that carry a ``source``: ``index_builder(atom, key_positions)`` must
    return a dict mapping the ``sort_key`` tuple of those positions to the
    atom's matching rows — exactly the build side :func:`hash_join` would
    construct. With a builder, unchanged relations are probed through a
    prebuilt index instead of being re-hashed on every evaluation (the
    binary-join analog of the leapfrog trie cache).
    """
    atoms, empty = _prepare(atoms, output)
    if empty:
        return []
    if not atoms:
        return [()]
    remaining = sorted(atoms, key=lambda a: len(a.rows))
    current_rows: List[Row] = list(remaining[0].rows)
    current_cols: Tuple[str, ...] = remaining[0].variables
    remaining = remaining[1:]
    while remaining:
        best_idx = None
        best_score = None
        for i, atom in enumerate(remaining):
            shared = len(set(atom.variables) & set(current_cols))
            score = (-shared, len(atom.rows))
            if best_score is None or score < best_score:
                best_score = score
                best_idx = i
        atom = remaining.pop(best_idx)
        shared_cols = [c for c in current_cols if c in atom.variables]
        if index_builder is not None and atom.source is not None \
                and shared_cols:
            current_rows, current_cols = _probe_indexed(
                current_rows, current_cols, atom, shared_cols, index_builder
            )
        else:
            current_rows, current_cols = hash_join(
                current_rows, current_cols, list(atom.rows), atom.variables
            )
    return _project(current_rows, current_cols, output,
                    distinct=distinct_inputs)


def _probe_indexed(current_rows: List[Row], current_cols: Tuple[str, ...],
                   atom: Atom, shared_cols: Sequence[str],
                   index_builder: "IndexBuilder") -> Tuple[List[Row], Tuple[str, ...]]:
    """Join the running result with ``atom`` by probing a prebuilt hash
    index on the shared variables. Output shape matches :func:`hash_join`:
    current columns first, then the atom's non-shared columns."""
    apos = tuple(atom.variables.index(c) for c in shared_cols)
    index = index_builder(atom, apos)
    cpos = [list(current_cols).index(c) for c in shared_cols]
    rest = [i for i, c in enumerate(atom.variables) if c not in shared_cols]
    out_cols = tuple(current_cols) + tuple(atom.variables[i] for i in rest)
    out: List[Row] = []
    for row in current_rows:
        key = tuple(sort_key(row[i]) for i in cpos)
        for match in index.get(key, ()):
            out.append(row + tuple(match[i] for i in rest))
    return out, out_cols


#: Signature of the engine's columnar hook: atom → ColumnSet | None.
ColumnsBuilder = Callable[[Atom], Any]


def columnar_plan_join(atoms: Sequence[Atom], output: Sequence[str],
                       columns_builder: Optional[ColumnsBuilder] = None,
                       as_columns: bool = False) -> Any:
    """Vectorized hash-join probe over typed column vectors.

    The columnar analog of :func:`binary_plan_join`: the same greedy
    pairwise order, but key matching, probe expansion, projection, and
    output dedup all run as whole-column numpy kernels
    (:func:`repro.model.columns.join_columnsets`). Returns ``None`` to
    decline — any participating atom not typeable, or a comparison the
    typed plane cannot do exactly — in which case the caller falls back to
    an interpreted strategy with identical semantics. ``columns_builder``
    maps an atom to its (cached) :class:`~repro.model.columns.ColumnSet`;
    by default atoms with a ``Relation`` source use the relation's memoized
    columns and sourceless atoms are sniffed fresh.
    """
    from repro.model import columns as _columns

    if not _columns.available():
        return None
    atoms, empty = _prepare(atoms, output)
    if empty:
        return []
    if not atoms:
        return [()]
    if any(not len(a.rows) for a in atoms):
        return []
    if columns_builder is None:
        columns_builder = default_columns_builder
    typed = []
    for atom in atoms:
        cs = columns_builder(atom)
        if cs is None:
            return None
        typed.append((cs, atom.variables))
    return _columns.join_columnsets(typed, tuple(output),
                                    as_columns=as_columns)


def default_columns_builder(atom: Atom) -> Any:
    """ColumnSet for an atom: via the source relation's memoized columns
    when the rows are the relation's own (zero-copy atoms), else a fresh
    sniffing pass over the atom's rows."""
    from repro.model.columns import ColumnSet

    if isinstance(atom.source, Relation):
        return atom.source.columns()
    return ColumnSet.from_rows(atom.rows if isinstance(atom.rows, (list, tuple))
                               else list(atom.rows))


def nested_loop_plan_join(atoms: Sequence[Atom],
                          output: Sequence[str]) -> List[Row]:
    """Reference evaluator: enumerate variable assignments atom by atom with
    no ordering tricks and no indexes. Exponential; the agreement suite's
    ground truth."""
    atoms, empty = _prepare(atoms, output)
    if empty:
        return []
    partial: List[Dict[str, Any]] = [{}]
    for atom in atoms:
        extended: List[Dict[str, Any]] = []
        for binding in partial:
            for row in atom.rows:
                merged = dict(binding)
                ok = True
                for var, value in zip(atom.variables, row):
                    if var in merged:
                        if sort_key(merged[var]) != sort_key(value):
                            ok = False
                            break
                    else:
                        merged[var] = value
                if ok:
                    extended.append(merged)
        partial = extended
    seen: Set[Tuple[Any, ...]] = set()
    out: List[Row] = []
    for binding in partial:
        projected = tuple(binding[v] for v in output)
        key = _row_key(projected)
        if key not in seen:
            seen.add(key)
            out.append(projected)
    return out


def _global_variable_order(atoms: Sequence[Atom]) -> List[str]:
    """A good global variable order for the leapfrog triejoin.

    Tries the topological order implied by the atoms' column sequences
    (when one exists, every permutation below is the identity — tries built
    straight from the stored rows); on conflicting column orders it falls
    back to frequency order and the atoms are permuted to fit.
    """
    succ: Dict[str, Set[str]] = {}
    indeg: Dict[str, int] = {}
    freq: Dict[str, int] = {}
    for atom in atoms:
        for v in atom.variables:
            succ.setdefault(v, set())
            indeg.setdefault(v, 0)
            freq[v] = freq.get(v, 0) + 1
        for a, b in zip(atom.variables, atom.variables[1:]):
            if b not in succ[a]:
                succ[a].add(b)
                indeg[b] += 1
    ready = sorted([v for v, d in indeg.items() if d == 0],
                   key=lambda v: -freq[v])
    order: List[str] = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for w in sorted(succ[v], key=lambda x: -freq[x]):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if len(order) != len(indeg):
        # Cyclic column-order constraints (e.g. R(x,y) ⋈ S(y,x)): no shared
        # subsequence order exists, so pick frequency-first and permute.
        order = sorted(indeg, key=lambda v: (-freq[v], v))
    return order


def atom_permutation(atom: Atom, order: Sequence[str]) -> Tuple[int, ...]:
    """Column permutation aligning ``atom`` with the global ``order``."""
    pos = {v: i for i, v in enumerate(order)}
    return tuple(sorted(range(len(atom.variables)),
                        key=lambda i: pos[atom.variables[i]]))


def permuted_rows(atom: Atom, perm: Sequence[int]) -> List[Row]:
    """The atom's rows with columns reordered by ``perm``."""
    if tuple(perm) == tuple(range(len(perm))):
        return list(atom.rows)
    return [tuple(row[i] for i in perm) for row in atom.rows]


def is_cyclic(atoms: Sequence[Atom]) -> bool:
    """α-cyclicity of the query hypergraph via GYO ear removal.

    An atom is an *ear* when its non-exclusive variables are covered by a
    single other atom; a hypergraph that does not reduce to nothing is
    cyclic — the shapes (triangles, cliques) where binary plans must
    materialize an intermediate the output does not bound."""
    edges = [set(a.variables) for a in atoms if a.variables]
    changed = True
    while changed and edges:
        changed = False
        for i, edge in enumerate(edges):
            others = edges[:i] + edges[i + 1:]
            if not others:
                edges.pop(i)
                changed = True
                break
            rest: Set[str] = set().union(*others)
            witness = edge & rest
            if any(witness <= other for other in others):
                edges.pop(i)
                changed = True
                break
    return bool(edges)


#: ``choose_strategy`` routes to leapfrog only when the participating atoms
#: hold at least this many rows in total (trie building must amortize).
_LEAPFROG_MIN_ROWS = 128


def choose_strategy(atoms: Sequence[Atom]) -> str:
    """Cardinality heuristic for ``strategy="auto"``.

    Leapfrog pays off when the query hypergraph is cyclic (a binary plan's
    intermediate can exceed the AGM bound) and the inputs are large enough
    to amortize trie building; otherwise the greedy binary plan wins."""
    sized = [a for a in atoms if a.variables]
    total = sum(len(a.rows) for a in sized)
    if total < _LEAPFROG_MIN_ROWS:
        return "binary"
    return "leapfrog" if is_cyclic(sized) else "binary"


#: Signature of the engine's trie-cache hook: (atom, permutation) → trie.
TrieBuilder = Callable[[Atom, Tuple[int, ...]], Any]

#: Signature of the engine's hash-index cache hook:
#: (atom, key positions) → {sort_key tuple: [rows]}.
IndexBuilder = Callable[[Atom, Tuple[int, ...]], Dict[Tuple[Any, ...], List[Row]]]


def multiway_join(atoms: Sequence[Atom], output: Sequence[str],
                  strategy: str = "leapfrog",
                  trie_builder: Optional[TrieBuilder] = None,
                  index_builder: Optional[IndexBuilder] = None,
                  distinct_inputs: bool = False) -> List[Row]:
    """Evaluate a conjunctive query with the chosen strategy.

    ``strategy``: ``"leapfrog"`` (worst-case optimal), ``"binary"`` (greedy
    hash-join plan), ``"nested"`` (naive reference), or ``"auto"``
    (heuristic pick between the first two). ``trie_builder`` /
    ``index_builder`` optionally supply cached sorted tries (leapfrog) or
    hash indexes (binary) for atoms that carry a ``source``.
    """
    if strategy == "auto":
        strategy = choose_strategy(atoms)
    if strategy == "binary":
        return binary_plan_join(atoms, output, index_builder=index_builder,
                                distinct_inputs=distinct_inputs)
    if strategy == "nested":
        return nested_loop_plan_join(atoms, output)
    if strategy != "leapfrog":
        raise ValueError(f"unknown strategy {strategy!r}")
    atoms, empty = _prepare(atoms, output)
    if empty:
        return []
    if not atoms:
        return [()]
    order = _global_variable_order(atoms)
    entries: List[Tuple[Any, Tuple[str, ...]]] = []
    for atom in atoms:
        perm = atom_permutation(atom, order)
        variables = tuple(atom.variables[i] for i in perm)
        if trie_builder is not None and atom.source is not None:
            entries.append((trie_builder(atom, perm), variables))
        else:
            entries.append((permuted_rows(atom, perm), variables))
    rows = leapfrog_triejoin(entries, order)
    return _project(rows, order, output, distinct=distinct_inputs)
