"""Typed columnar vectors behind the ``Relation``/``Table`` interfaces.

The row-keyed dict storage of :class:`repro.model.relation.Relation` pays
per-row Python interpretation on every join, filter, dedupe, and serialize;
at the data sizes the paper targets that overhead dominates (BENCH_pr5's
``pure_cpu_ratio`` is ~0.94). This module is the typed fast path under it:
a :class:`ColumnSet` stores one numpy vector per column, tagged with the
column's value sort, and the kernels below (join, dedupe, filter, fold)
operate on whole columns at C speed.

Value semantics are preserved *exactly* by construction, not by per-value
checks:

- a column is tagged ``"bool"`` only when **every** value is a Python
  ``bool``, and ``"int"`` only when every value is a non-bool ``int`` —
  a column mixing the two is not typeable and the whole relation falls back
  to dict interpretation. Within a typed relation the ``True != 1`` split
  is therefore free: a bool column can never meet an int column's values.
- ``1 == 1.0`` holds in numpy exactly as in :func:`repro.model.values.row_key`
  space: an int column joins a float column through a float64 cast, guarded
  by the 2**53 exact-integer range (larger magnitudes fall back).
- anything the typed plane cannot represent faithfully — mixed arity,
  ``Symbol``/``Entity``/``Relation`` elements, int64 overflow, ``NaN``
  floats (whose dict behavior is identity-dependent) — makes
  :meth:`ColumnSet.from_rows` return ``None`` and the caller stays on the
  interpreted path. Falling back is always correct; the kernels are pure
  acceleration.

String columns are dictionary-encoded against one process-wide append-only
interning table, so any two string columns share a code space and join on
int64 codes by plain equality.

numpy is optional: without it every constructor returns ``None`` and every
kernel declines, which degrades the engine to exactly its interpreted
behavior (the ``REPRO_COLUMNAR=off`` ablation exercises the same paths).
"""

from __future__ import annotations

import math
import os
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised implicitly by every test run
    import numpy as _np
except ImportError:  # pragma: no cover - the container bakes numpy in
    _np = None

Tup = Tuple[Any, ...]

#: Column type tags. ``"bool"`` and ``"int"`` are disjoint by construction
#: (see module docstring); ``"str"`` columns hold interning codes.
TAGS = ("bool", "int", "float", "str")

#: Largest magnitude an int column may hold when cast to float64 for an
#: int×float join without losing exactness.
_EXACT_FLOAT_INT = 2 ** 53

#: ``REPRO_COLUMNAR=off`` disables every kernel process-wide: the CI
#: ablation job's in-process stand-in for a missing numpy.
KERNELS_AVAILABLE = (_np is not None
                     and os.environ.get("REPRO_COLUMNAR", "").lower() != "off")


def available() -> bool:
    """True when the typed plane can be used at all in this process."""
    return KERNELS_AVAILABLE


# ---------------------------------------------------------------------------
# Global string interning (dictionary encoding)
# ---------------------------------------------------------------------------

_intern_lock = threading.Lock()
_intern_codes: Dict[str, int] = {}
_intern_strings: List[str] = []
_intern_bytes = 0


def _reinit_intern_lock_after_fork() -> None:
    """Replace the interner lock in a forked child.

    ``fork()`` snapshots the lock in whatever state some other thread
    held it — a child forked mid-:func:`_encode_strings` inherits it
    locked forever and deadlocks on its first interning. The *data* is
    safe to inherit: fork happens while the forking thread holds the
    GIL, so the append-only table is at a bytecode boundary and the
    append-before-publish discipline keeps every published code
    decodable. Only the lock needs to be fresh. The engine itself never
    forks; this guard protects processes users fork themselves.
    """
    global _intern_lock
    _intern_lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX containers
    os.register_at_fork(after_in_child=_reinit_intern_lock_after_fork)

#: Per-interned-string overhead estimate (CPython ASCII str header plus a
#: dict entry and a list slot) added to the character count for
#: :func:`interner_statistics`'s ``approx_bytes``.
_STR_OVERHEAD = 64


def _encode_strings(values: Sequence[str]) -> List[int]:
    """Codes for ``values`` in the shared dictionary (appending as needed).

    Snapshot safety: the table is append-only, and a new string is
    appended to ``_intern_strings`` *before* its code is published in
    ``_intern_codes`` — any thread that observes a code (in a vector, a
    snapshot's extent, or a checkpoint block) can therefore always decode
    it lock-free, even mid-append from another thread.
    """
    codes = _intern_codes
    out: List[int] = []
    missing = False
    for v in values:
        c = codes.get(v)
        if c is None:
            missing = True
            break
        out.append(c)
    if not missing:
        return out
    global _intern_bytes
    with _intern_lock:
        strings = _intern_strings
        added = 0
        out = []
        for v in values:
            c = codes.get(v)
            if c is None:
                c = len(strings)
                strings.append(v)
                added += _STR_OVERHEAD + len(v)
                codes[v] = c
            out.append(c)
        _intern_bytes += added
        return out


def decode_string(code: int) -> str:
    return _intern_strings[code]


def interner_statistics() -> Dict[str, int]:
    """Observability for the process-wide string dictionary: how many
    distinct strings are interned and an estimate of their resident bytes.
    Growth is monotone (the table is append-only); a workload that interns
    unboundedly many distinct strings shows up here long before memory
    pressure does."""
    return {"strings": len(_intern_strings), "approx_bytes": _intern_bytes}


# ---------------------------------------------------------------------------
# Per-evaluation plane counters
# ---------------------------------------------------------------------------
#
# The engine installs the active EvalState's ``columnar`` counter table
# here (thread-local, save/restore) around every evaluation entry point.
# It is the one route for columnar events: the Relation layer, which has
# no evaluation context ("columnar-native relation constructed" / "lazy
# dict materialized"), and the engine's kernel wrappers and accumulators
# all count through it, attributed to the state doing the work. Snapshot
# reads install the snapshot's own table, keeping parent counters
# untouched; events outside any evaluation (user code iterating a
# returned relation) are deliberately not counted.

_plane_sink = threading.local()


def swap_stats_sink(sink: Optional[Dict[str, int]]) -> Optional[Dict[str, int]]:
    """Install ``sink`` as this thread's plane-counter target, returning
    the previous one (callers restore it in a ``finally``)."""
    prev = getattr(_plane_sink, "sink", None)
    _plane_sink.sink = sink
    return prev


def count_plane(event: str, n: int = 1) -> None:
    """Bump ``event`` on the installed sink, if any."""
    sink = getattr(_plane_sink, "sink", None)
    if sink is not None:
        sink[event] = sink.get(event, 0) + n


# ---------------------------------------------------------------------------
# ColumnSet
# ---------------------------------------------------------------------------


class ColumnSet:
    """Typed columnar image of a set of same-arity tuples.

    ``tags[i]`` names column ``i``'s sort; ``arrays[i]`` holds its values
    (int64 for ``int`` and ``str`` codes, float64 for ``float``, uint8 for
    ``bool``). Instances are immutable and always built through
    :meth:`from_rows`, which returns ``None`` whenever the rows cannot be
    represented without changing value semantics.
    """

    __slots__ = ("tags", "arrays", "length")

    def __init__(self, tags: Tuple[str, ...], arrays: Tuple[Any, ...],
                 length: int) -> None:
        self.tags = tags
        self.arrays = arrays
        self.length = length

    @property
    def arity(self) -> int:
        return len(self.tags)

    def __len__(self) -> int:
        return self.length

    @staticmethod
    def from_rows(rows: Iterable[Tup]) -> Optional["ColumnSet"]:
        """Build from tuples, or ``None`` when not typeable.

        Typeable means: numpy available, at least one row, homogeneous
        arity ≥ 1, and every column all-bool, all-int, all-str, or numeric
        (int/float mix becomes float64 when every int fits 2**53 exactly
        and no float is NaN).
        """
        if not KERNELS_AVAILABLE:
            return None
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        if not rows:
            return None
        arity = len(rows[0])
        if arity == 0:
            return None
        if any(len(r) != arity for r in rows):  # mixed arity: fall back
            return None
        columns = list(zip(*rows))
        tags: List[str] = []
        arrays: List[Any] = []
        for col in columns:
            tagged = _type_column(col)
            if tagged is None:
                return None
            tags.append(tagged[0])
            arrays.append(tagged[1])
        return ColumnSet(tuple(tags), tuple(arrays), len(rows))

    # -- back to rows -------------------------------------------------------

    def column_values(self, i: int) -> List[Any]:
        """Column ``i`` as Python values (bools/ints/floats/strs)."""
        return decode_column(self.tags[i], self.arrays[i])

    def to_rows(self) -> List[Tup]:
        """The stored tuples (same multiset as the construction input)."""
        return list(zip(*[self.column_values(i) for i in range(self.arity)]))

    def nbytes(self) -> int:
        return sum(int(a.nbytes) for a in self.arrays)

    def row_order(self) -> Any:
        """A deterministic total order over the rows (lexicographic by
        column) as an index array — rows are distinct in ``row_key`` space,
        so the order is unique given the stored representatives."""
        return _np.lexsort(tuple(reversed(self.arrays)))


def _type_column(col: Sequence[Any]) -> Optional[Tuple[str, Any]]:
    """Tag and vectorize one column, or ``None`` when not typeable."""
    kinds = set(map(type, col))
    if kinds == {bool}:
        return "bool", _np.fromiter(col, dtype=_np.uint8, count=len(col))
    if kinds == {int}:
        try:
            return "int", _np.fromiter(col, dtype=_np.int64, count=len(col))
        except OverflowError:
            return None
    if kinds <= {int, float} and float in kinds:
        try:
            arr = _np.fromiter(col, dtype=_np.float64, count=len(col))
        except OverflowError:
            return None
        if _np.isnan(arr).any():
            return None
        if int in kinds and \
                any(abs(v) > _EXACT_FLOAT_INT for v in col if type(v) is int):
            return None
        return "float", arr
    if kinds == {str}:
        codes = _encode_strings(col)
        return "str", _np.asarray(codes, dtype=_np.int64)
    return None


# ---------------------------------------------------------------------------
# Key factorization (the shared machinery of join and dedupe)
# ---------------------------------------------------------------------------


def _common_cast(tag_a: str, arr_a: Any, tag_b: str, arr_b: Any):
    """Cast two columns into one comparable dtype, or ``None`` when the
    tags can never hold equal values (``bool`` vs ``int`` — Rel's Boolean
    sort is disjoint — or ``str`` vs anything numeric)."""
    if tag_a == tag_b:
        return arr_a, arr_b
    pair = {tag_a, tag_b}
    if pair == {"int", "float"}:
        ints = arr_a if tag_a == "int" else arr_b
        if len(ints) and _np.abs(ints).max() > _EXACT_FLOAT_INT:
            raise _Unjoinable()
        return arr_a.astype(_np.float64), arr_b.astype(_np.float64)
    return None


class _Unjoinable(Exception):
    """An int column too large for exact float64 comparison: the kernel
    cannot answer and the caller must fall back to interpretation."""


#: Running row-id bound: the mixed-radix fold compacts (sort + dense
#: re-code) only when the next column would push ids past this, keeping
#: the common case — a few integer-like columns of sane range — entirely
#: sort-free.
_ID_LIMIT = 1 << 62


def _column_codes(arr):
    """``(codes, radix)``: non-negative int64 codes with ``codes < radix``
    and equal codes ⇔ equal values.

    Integer-like arrays (ints, interned-string codes, bool bytes) are
    range-offset in one vectorized pass — no sort; float arrays take the
    sort-based ``np.unique`` compaction (ranges do not discretize)."""
    n = len(arr)
    if not n:
        return _np.zeros(0, dtype=_np.int64), 1
    if arr.dtype.kind in "iub":
        arr64 = arr.astype(_np.int64, copy=False)
        lo = int(arr64.min())
        return arr64 - lo, int(arr64.max()) - lo + 1
    _, codes = _np.unique(arr, return_inverse=True)
    return codes.astype(_np.int64, copy=False), int(codes.max()) + 1


def _mix_column(ids, bound, codes, radix, n):
    """Fold one column's codes into the running row ids (mixed radix).

    ``bound`` is the exclusive upper bound on the current ids; when the
    next product would overflow int64, ids (and, pathologically, the
    codes) are compacted to dense first. Returns ``(ids, bound)``."""
    if bound * radix >= _ID_LIMIT:
        _, ids = _np.unique(ids, return_inverse=True)
        ids = ids.astype(_np.int64, copy=False)
        bound = max(n, 1)
        if bound * radix >= _ID_LIMIT:
            _, codes = _np.unique(codes, return_inverse=True)
            codes = codes.astype(_np.int64, copy=False)
            radix = max(n, 1)
    return ids * radix + codes, bound * radix


def _factorize_pair(cols_a: Sequence[Tuple[str, Any]],
                    cols_b: Sequence[Tuple[str, Any]]):
    """Row ids for the key columns of two sides in one shared code space.

    Returns ``(ids_a, ids_b)`` (int64 arrays) where equal ids mean equal
    keys under Rel value semantics (ids are *not* dense — consumers only
    compare, sort, and test membership), or ``None`` when some column pair
    is sort-disjoint (no key can ever match). Raises :class:`_Unjoinable`
    on a cast the kernel cannot do exactly.
    """
    n_a = len(cols_a[0][1]) if cols_a else 0
    n_b = len(cols_b[0][1]) if cols_b else 0
    n = n_a + n_b
    ids = _np.zeros(n, dtype=_np.int64)
    bound = 1
    for (tag_a, arr_a), (tag_b, arr_b) in zip(cols_a, cols_b):
        cast = _common_cast(tag_a, arr_a, tag_b, arr_b)
        if cast is None:
            return None
        both = _np.concatenate((cast[0], cast[1]))
        codes, radix = _column_codes(both)
        ids, bound = _mix_column(ids, bound, codes, radix, n)
    return ids[:n_a], ids[n_a:]


def factorize_rows(columns: Sequence[Tuple[str, Any]]) -> Any:
    """Int64 row ids over one side's rows: equal ids ⇔ equal rows (not
    dense — see :func:`_factorize_pair`)."""
    n = len(columns[0][1]) if columns else 0
    ids = _np.zeros(n, dtype=_np.int64)
    bound = 1
    for _, arr in columns:
        codes, radix = _column_codes(arr)
        ids, bound = _mix_column(ids, bound, codes, radix, n)
    return ids


# ---------------------------------------------------------------------------
# Vectorized kernels
# ---------------------------------------------------------------------------


def match_pairs(left_keys: Sequence[Tuple[str, Any]],
                right_keys: Sequence[Tuple[str, Any]]):
    """The vectorized hash-join probe: row-index pairs of all key matches.

    Returns ``(l_idx, r_idx)`` index arrays (every matching combination,
    like the build-and-probe loop of :func:`repro.joins.binary.hash_join`),
    ``None`` when the key sorts are disjoint (empty result), and raises
    :class:`_Unjoinable` when exact comparison is impossible.
    """
    pair = _factorize_pair(left_keys, right_keys)
    if pair is None:
        return None
    l_ids, r_ids = pair
    order = _np.argsort(r_ids, kind="stable")
    r_sorted = r_ids[order]
    lo = _np.searchsorted(r_sorted, l_ids, side="left")
    hi = _np.searchsorted(r_sorted, l_ids, side="right")
    counts = hi - lo
    total = int(counts.sum())
    l_idx = _np.repeat(_np.arange(len(l_ids)), counts)
    if total == 0:
        return l_idx, l_idx
    starts = _np.repeat(lo, counts)
    offsets = _np.arange(total) - _np.repeat(_np.cumsum(counts) - counts,
                                             counts)
    r_idx = order[starts + offsets]
    return l_idx, r_idx


def distinct_indices(columns: Sequence[Tuple[str, Any]], length: int) -> Any:
    """Row indices of the first occurrence of each distinct row (sorted by
    position, so relative input order is preserved like the dict pass)."""
    if not columns:
        return _np.zeros(min(length, 1), dtype=_np.int64)
    ids = factorize_rows(columns)
    _, first = _np.unique(ids, return_index=True)
    first.sort()
    return first


def dedupe_indices(rows: Sequence[Tup]) -> Optional[List[int]]:
    """Indices of the first occurrence of each ``row_key``-distinct row,
    in input order — or ``None`` when the rows are not typeable. A result
    covering every index means the rows were already distinct."""
    cs = ColumnSet.from_rows(rows)
    if cs is None:
        return None
    keep = distinct_indices(list(zip(cs.tags, cs.arrays)), cs.length)
    return keep.tolist()


def dedupe_rows(rows: Sequence[Tup]) -> Optional[List[Tup]]:
    """Row-key-distinct subsequence of ``rows`` (first occurrence wins),
    or ``None`` when the rows are not typeable."""
    keep = dedupe_indices(rows)
    if keep is None:
        return None
    if len(keep) == len(rows):
        return list(rows)
    return [rows[i] for i in keep]


def type_column(values: Sequence[Any]) -> Optional[Tuple[str, Any]]:
    """Public face of the column sniffer: ``(tag, vector)`` or ``None``."""
    if not KERNELS_AVAILABLE or not values:
        return None
    return _type_column(values)


def decode_column(tag: str, arr: Any) -> List[Any]:
    """One typed vector back to Python values (inverse of the sniffer)."""
    if tag == "bool":
        return [v == 1 for v in arr.tolist()]
    if tag == "str":
        strings = _intern_strings
        return [strings[c] for c in arr.tolist()]
    return arr.tolist()


def compare_mask(tag_l: str, arr_l: Any, op: str,
                 tag_r: str, arr_r: Any) -> Optional[Any]:
    """Vectorized comparison filter: a boolean mask over paired values,
    mirroring ``_vals_eq`` / ``_vals_ord`` in ``repro.engine.expand``.

    ``None`` when the kernel cannot reproduce the interpreted semantics
    (orderings only exist within numbers or within strings; booleans are
    unordered and only equal their own sort).
    """
    numeric = {"int", "float"}
    if op in ("=", "!="):
        if tag_l == tag_r or {tag_l, tag_r} <= numeric:
            try:
                cast = _common_cast(tag_l, arr_l, tag_r, arr_r)
            except _Unjoinable:
                return None
            if cast is None:
                eq = _np.zeros(len(arr_l), dtype=bool)
            else:
                eq = cast[0] == cast[1]
        else:
            # Cross-sort: never equal under value semantics.
            eq = _np.zeros(len(arr_l), dtype=bool)
        return eq if op == "=" else ~eq
    # Orderings: defined within numbers and within strings only. String
    # codes are interning order, not lexicographic — decline those.
    if not ({tag_l, tag_r} <= numeric):
        return None
    try:
        cast = _common_cast(tag_l, arr_l, tag_r, arr_r)
    except _Unjoinable:
        return None
    a, b = cast
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    return None


#: Builtin names (including their ``rel_primitive_*`` aliases) with a
#: C-level equivalent of chaining the binary solver left-to-right.
_FOLD_FUNCS = {
    "add": sum,
    "rel_primitive_add": sum,
    "minimum": min,
    "rel_primitive_minimum": min,
    "maximum": max,
    "rel_primitive_maximum": max,
    "multiply": math.prod,
    "rel_primitive_multiply": math.prod,
}


def fold_values(op_name: str, values: List[Any]) -> Optional[Any]:
    """C-level fold for the reduce aggregates over numeric values.

    Exactness: ``sum``/``min``/``max``/``math.prod`` perform the same
    left-to-right fold as the interpreted loop (ties in min/max keep the
    leftmost element in both), so results equal chaining the binary
    builtin. ``None`` declines (non-numeric values, unsupported operator).
    """
    fn = _FOLD_FUNCS.get(op_name)
    if fn is None or not values or \
            any(not isinstance(v, (int, float)) or isinstance(v, bool)
                for v in values):
        return None
    return fn(values)


# ---------------------------------------------------------------------------
# Set algebra over whole ColumnSets (the Relation fast path)
# ---------------------------------------------------------------------------
#
# These kernels back ``Relation.union/difference/intersect/__eq__`` when
# both sides are column-backed, so DRed's over-delete/re-derive set algebra
# (and the accumulator's first rounds) never materialize row dicts.
# Conventions shared by all four:
#
# - ``None`` declines (arity mismatch aside, an exact vectorized answer is
#   impossible — e.g. ints beyond 2**53 against floats); the caller falls
#   back to the row_key dict path, which is always correct.
# - returning ``a`` itself means "the result is the left side, unchanged" —
#   Relation's return-self-when-unchanged contract (id()-pinned caches and
#   the maintenance driver's ``final is old`` checks depend on it).
# - value semantics are the dict plane's exactly: bool vs int columns are
#   sort-disjoint (never equal), int vs float compares through the guarded
#   float64 cast, and both sides' rows are row_key-distinct by construction
#   (they come out of Relations), so id-space distinctness is row_key
#   distinctness.


def set_union(a: "ColumnSet", b: "ColumnSet") -> Optional["ColumnSet"]:
    """Rows of ``a`` plus the rows of ``b`` not already in ``a``.

    Declines (``None``) unless the two sides carry identical column tags:
    a mixed int/float union would have to cast ``a``'s stored
    representatives, and the dict plane never rewrites stored rows."""
    if not KERNELS_AVAILABLE or a.tags != b.tags:
        return None
    cols = [(t, _np.concatenate((a.arrays[i], b.arrays[i])))
            for i, t in enumerate(a.tags)]
    ids = factorize_rows(cols)
    fresh = ~_np.isin(ids[len(a):], ids[:len(a)])
    n_fresh = int(fresh.sum())
    if n_fresh == 0:
        return a
    return ColumnSet(
        a.tags,
        tuple(_np.concatenate((a.arrays[i], b.arrays[i][fresh]))
              for i in range(a.arity)),
        a.length + n_fresh,
    )


def _membership_mask(a: "ColumnSet", b: "ColumnSet"):
    """Boolean mask over ``a``'s rows: present in ``b``? ``"disjoint"``
    when no row can ever match (sort-disjoint columns or arity mismatch),
    ``None`` when the kernel cannot answer exactly."""
    if not KERNELS_AVAILABLE:
        return None
    if a.arity != b.arity:
        return "disjoint"
    try:
        pair = _factorize_pair(list(zip(a.tags, a.arrays)),
                               list(zip(b.tags, b.arrays)))
    except _Unjoinable:
        return None
    if pair is None:
        return "disjoint"
    ids_a, ids_b = pair
    return _np.isin(ids_a, ids_b)


def set_difference(a: "ColumnSet", b: "ColumnSet") -> Optional["ColumnSet"]:
    """Rows of ``a`` not in ``b`` — selected from ``a``'s own arrays, so
    stored representatives survive exactly as on the dict path."""
    mask = _membership_mask(a, b)
    if mask is None:
        return None
    if isinstance(mask, str):  # disjoint: nothing removed
        return a
    keep = ~mask
    n = int(keep.sum())
    if n == a.length:
        return a
    return ColumnSet(a.tags, tuple(arr[keep] for arr in a.arrays), n)


def set_intersect(a: "ColumnSet", b: "ColumnSet") -> Optional["ColumnSet"]:
    """Rows of ``a`` also in ``b`` (representatives from ``a``)."""
    mask = _membership_mask(a, b)
    if mask is None:
        return None
    if isinstance(mask, str):  # disjoint: empty intersection
        return ColumnSet(a.tags, tuple(arr[:0] for arr in a.arrays), 0)
    n = int(mask.sum())
    if n == a.length:
        return a
    return ColumnSet(a.tags, tuple(arr[mask] for arr in a.arrays), n)


def sets_equal(a: "ColumnSet", b: "ColumnSet") -> Optional[bool]:
    """Key-set equality of two column-backed relations, or ``None`` when
    the kernel cannot decide exactly. Both sides are distinct row sets, so
    equal lengths plus a sorted-id match decide it."""
    if not KERNELS_AVAILABLE:
        return None
    if a.length != b.length or a.arity != b.arity:
        return False
    try:
        pair = _factorize_pair(list(zip(a.tags, a.arrays)),
                               list(zip(b.tags, b.arrays)))
    except _Unjoinable:
        return None
    if pair is None:  # sort-disjoint non-empty sides can never be equal
        return a.length == 0
    ids_a, ids_b = pair
    return bool(_np.array_equal(_np.sort(ids_a), _np.sort(ids_b)))


# ---------------------------------------------------------------------------
# The append-only accumulator (change-proportional fixpoint growth)
# ---------------------------------------------------------------------------


def _row_hashes(tags: Sequence[str], arrays: Sequence[Any]) -> Any:
    """A 64-bit hash per row: splitmix64 folded over each column's bits,
    ``-0.0`` normalised to ``0.0`` so equal values hash equally."""
    u = _np.uint64
    h = _np.zeros(len(arrays[0]), dtype=u)
    for tag, arr in zip(tags, arrays):
        h ^= (arr + 0.0).view(u) if tag == "float" else arr.astype(u)
        h = (h ^ (h >> u(30))) * u(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> u(27))) * u(0x94D049BB133111EB)
        h ^= h >> u(31)
    return h


def _sorted_run(hashes: Any, positions: Any) -> Tuple[Any, Any]:
    order = _np.argsort(hashes, kind="stable")
    return hashes[order], positions[order]


def _exact_image(rel: Any) -> Optional["ColumnSet"]:
    """``rel.columns()`` when the vectors decode to exactly the stored rows:
    a float column over a dict-backed relation may hold ints (``1`` beside
    ``2.5``) whose representatives an append must not rewrite."""
    cs = rel.columns()
    if cs is not None and rel._rows is not None and "float" in cs.tags:
        floats = [i for i, tag in enumerate(cs.tags) if tag == "float"]
        if any(type(row[i]) is not float for row in rel.rows() for i in floats):
            return None
    return cs


class Accumulator:
    """An append-only typed relation: a fixpoint member's running extent,
    grown in time proportional to each change rather than to the whole.

    :meth:`absorb` appends the candidate rows not yet accumulated to
    per-column buffers (growth by 1.25x) and returns them; :attr:`view` is
    the accumulated relation, an immutable ``Relation.from_columns`` view
    of the buffer prefix (``origin``, the starting extent, until the first
    append). No view ever sees a write: appends land past every handed-out
    prefix, and the first append (the starting vectors are borrowed exactly
    full) and every regrowth copy. Membership is :func:`set_difference`
    against the prefix until those passes have cost twice an index (ski
    rental), then sorted runs of :func:`_row_hashes` merged while a run is
    at most twice the next (LSM style): O(candidates · log) amortised. Hash
    hits are verified on the stored columns, equal hashes by a scan.
    ``None`` from :meth:`start` or :meth:`absorb` declines — kernels off,
    rows untypeable or not exactly representable, tags differing from the
    accumulated ones — and the caller falls back to Relation algebra."""

    __slots__ = ("origin", "view", "tags", "_bufs", "_n", "_runs", "_spent")

    @classmethod
    def start(cls, extent: Any) -> Optional["Accumulator"]:
        cs = _exact_image(extent) if KERNELS_AVAILABLE and extent else None
        if not KERNELS_AVAILABLE or (extent and cs is None):
            return None
        acc = cls()
        acc.origin = acc.view = extent
        acc._n, acc._runs, acc._spent = len(extent), None, 0
        acc.tags, acc._bufs = ((cs.tags, tuple(a[:acc._n] for a in cs.arrays))
                               if cs else (None, ()))
        return acc

    def _cols(self, lo: int, hi: int) -> "ColumnSet":
        arrays = tuple(buf[lo:hi] for buf in self._bufs)
        for arr in arrays:
            arr.flags.writeable = False
        return ColumnSet(self.tags, arrays, hi - lo)

    def _view(self, lo: int, hi: int) -> Any:
        from repro.model.relation import Relation
        return Relation.from_columns(self._cols(lo, hi))

    def appended(self) -> Any:
        """Every row appended since :meth:`start`, as a view."""
        return self._view(len(self.origin), self._n)

    def absorb(self, candidates: Any) -> Any:
        """The candidate rows not yet accumulated — appended, and returned
        as a view (``EMPTY`` and an unchanged :attr:`view` when none) — or
        ``None`` to decline."""
        from repro.model.relation import EMPTY
        cs = _exact_image(candidates) if candidates else None
        if cs is None or self.tags not in (None, cs.tags):
            return EMPTY if not candidates else None
        self.tags, n, hashes = cs.tags, self._n, None
        if not n:
            fresh = cs.arrays
        elif self._runs is None and self._spent < 2 * n:
            self._spent += n + cs.length
            fresh = set_difference(cs, self._cols(0, n)).arrays
        else:
            if self._runs is None:
                self._runs = [_sorted_run(
                    _row_hashes(self.tags, self._cols(0, n).arrays),
                    _np.arange(n))]
            # Hash order: sorted needles search faster, fresh runs come sorted.
            hashes = _row_hashes(cs.tags, cs.arrays)
            order = _np.argsort(hashes, kind="stable")
            hashes, arrays = hashes[order], [arr[order] for arr in cs.arrays]
            keep = ~self._found(hashes, arrays)
            fresh, hashes = tuple(arr[keep] for arr in arrays), hashes[keep]
        f = len(fresh[0])
        if not f:
            return EMPTY
        cap = len(self._bufs[0]) if self._bufs else 0
        if n + f > cap:
            cap = max(n + f, cap + cap // 4)
            bufs = tuple(_np.empty(cap, dtype=arr.dtype) for arr in fresh)
            for buf, old in zip(bufs, self._bufs):
                buf[:n] = old[:n]
            self._bufs = bufs
        for buf, arr in zip(self._bufs, fresh):
            buf[n:n + f] = arr
        self._n = n + f
        runs = self._runs
        if runs is not None:
            runs.append((hashes, _np.arange(n, n + f)))
            while len(runs) > 1 and len(runs[-2][0]) <= 2 * len(runs[-1][0]):
                (h2, p2), (h1, p1) = runs.pop(), runs.pop()
                runs.append(_sorted_run(_np.concatenate((h1, h2)),
                                        _np.concatenate((p1, p2))))
        self.view = self._view(0, n + f)
        return self._view(n, n + f)

    def _found(self, hashes: Any, arrays: Sequence[Any]) -> Any:
        """Mask over candidate rows (``hashes`` sorted): accumulated?"""
        def same(pos, rows):
            eq = _np.ones(len(pos), dtype=bool)
            for buf, arr in zip(self._bufs, arrays):
                eq &= buf[pos] == arr[rows]
            return eq

        found = _np.zeros(len(hashes), dtype=bool)
        for run_h, run_pos in self._runs:
            last = len(run_h) - 1
            lo = _np.searchsorted(run_h, hashes)
            at, nxt = _np.minimum(lo, last), _np.minimum(lo + 1, last)
            hit = (run_h[at] == hashes) & ~found
            many = hit & (nxt > at) & (run_h[nxt] == hashes)
            one = _np.flatnonzero(hit & ~many)
            found[one] = same(run_pos[at[one]], one)
            for i in _np.flatnonzero(many):  # equal hashes: exact scan
                end = _np.searchsorted(run_h, hashes[i], "right")
                found[i] = same(run_pos[lo[i]:end], i).any()
        return found


# ---------------------------------------------------------------------------
# The columnar multiway join
# ---------------------------------------------------------------------------


def join_columnsets(atoms: Sequence[Tuple["ColumnSet", Tuple[str, ...]]],
                    output: Sequence[str],
                    as_columns: bool = False) -> Any:
    """Greedy pairwise join of typed atoms, projected and deduped.

    ``atoms`` pairs each :class:`ColumnSet` with its variable names (same
    shape as the planner's :class:`~repro.joins.planner.Atom`); the greedy
    order mirrors :func:`repro.joins.planner.binary_plan_join`
    (smallest-first, then most shared variables). Returns output rows as
    Python tuples, or ``None`` when exact vectorized evaluation is
    impossible (the caller falls back to the interpreted join).

    With ``as_columns=True`` a non-empty result with at least one output
    column comes back as a :class:`ColumnSet` instead — no Python-tuple
    materialization, so the caller can keep projecting on the vectors.
    (``None``, ``[]`` and ``[()]`` are returned as usual.)
    """
    if not KERNELS_AVAILABLE or not atoms:
        return None
    try:
        remaining = sorted(atoms, key=lambda a: len(a[0]))
        first_cs, first_vars = remaining[0]
        current: Dict[str, Tuple[str, Any]] = {
            v: (first_cs.tags[i], first_cs.arrays[i])
            for i, v in enumerate(first_vars)
        }
        n_rows = len(first_cs)
        remaining = remaining[1:]
        while remaining:
            best = None
            best_score = None
            for i, (cs, vars_) in enumerate(remaining):
                shared = len(set(vars_) & current.keys())
                score = (-shared, len(cs))
                if best_score is None or score < best_score:
                    best_score = score
                    best = i
            cs, vars_ = remaining.pop(best)
            shared = [v for v in vars_ if v in current]
            if not shared:
                # Cartesian product: expand both sides.
                l_idx = _np.repeat(_np.arange(n_rows), len(cs))
                r_idx = _np.tile(_np.arange(len(cs)), n_rows)
            else:
                left_keys = [current[v] for v in shared]
                right_keys = [(cs.tags[vars_.index(v)],
                               cs.arrays[vars_.index(v)]) for v in shared]
                pair = match_pairs(left_keys, right_keys)
                if pair is None:  # sort-disjoint keys: provably empty
                    return []
                l_idx, r_idx = pair
            new_current: Dict[str, Tuple[str, Any]] = {
                v: (tag, arr[l_idx]) for v, (tag, arr) in current.items()
            }
            for i, v in enumerate(vars_):
                if v not in new_current:
                    new_current[v] = (cs.tags[i], cs.arrays[i][r_idx])
            current = new_current
            n_rows = len(l_idx)
    except _Unjoinable:
        return None
    out_cols = [current[v] for v in output]
    if not out_cols:
        return [()] if n_rows else []
    keep = distinct_indices(out_cols, n_rows)
    if as_columns:
        return ColumnSet(tuple(tag for tag, _ in out_cols),
                         tuple(arr[keep] for _, arr in out_cols),
                         len(keep))
    lists = [decode_column(tag, arr[keep]) for tag, arr in out_cols]
    return list(zip(*lists))
