"""Finite relations: the central data structure of the Rel data model.

A :class:`Relation` is an immutable set of tuples, possibly of *mixed arity*
(the paper, Addendum A: "a relation … can contain tuples of different
arity"). Tuples whose elements are all first-order values form ``Rels1``;
tuples may also contain :class:`Relation` elements, giving ``Rels2``.

Two relations play the role of the Booleans (Section 4.3):

- ``TRUE``  = ``{⟨⟩}`` — the relation containing only the empty tuple;
- ``FALSE`` = ``{}``   — the empty relation.

The algebra implemented here (product, union, difference, prefix/suffix
selection, projection) is exactly what the semantic equations of Figures 3–4
need, plus the conveniences the standard library builds on.

Tuple identity is the engine's *value semantics* (:func:`row_key`): ``1``
and ``1.0`` are the same value, ``True`` and ``1`` are not — Rel's Boolean
sort is disjoint from the numbers, even though Python's ``==`` (and hence
``set``/``frozenset``) identifies them. Storage and every set operation key
on :func:`row_key`, so ``Relation([(1,)])`` holds two rows with ``(True,)``
added and ``Relation([(1,)]) != Relation([(True,)])``; this is also what
makes deltas computed by :meth:`difference` trustworthy for incremental
maintenance.

**Two storage planes.** A relation is either *dict-backed* (``_rows`` maps
``row_key → tuple``, the construction default) or *columnar-native*
(built via :meth:`Relation.from_columns`: ``_rows`` is ``None`` and the
typed :class:`~repro.model.columns.ColumnSet` in ``_cols`` IS the storage).
Columnar-native relations are what the fixpoint drivers produce: a growing
extent is a prefix view of an append-only columns ``Accumulator``, and
DRed's ``union``/``difference``/``intersect``/``__eq__`` route through the
vectorized set kernels when both sides are column-backed. The keyed dict is
built lazily, only when something genuinely needs per-row keys (point
lookups, ``__contains__``, ``select``): every method funnels through
:meth:`_keyed`, so the fallback is always available and always exact.
Value semantics are unchanged — the kernels share the dict plane's
bool/int disjointness and int/float cross-typing by construction (see
:mod:`repro.model.columns`).
"""

from __future__ import annotations

from typing import (Any, Callable, Collection, Dict, FrozenSet, Iterable,
                    Iterator, Mapping, Sequence, Tuple)

from repro.model import columns as _columns
from repro.model.values import (is_value, row_key, sort_key, tuple_sort_key,
                                value_key, value_repr)

Tup = Tuple[Any, ...]


class RelationError(ValueError):
    """Raised on malformed relation construction or misuse."""


def _freeze_tuple(tup: Sequence[Any]) -> Tup:
    """Validate and normalize one tuple: elements must be values or relations."""
    out = []
    for elem in tup:
        if isinstance(elem, Relation):
            out.append(elem)
        elif is_value(elem):
            out.append(elem)
        elif isinstance(elem, (tuple, list, set, frozenset)):
            raise RelationError(
                f"tuple element {elem!r} is a raw collection; wrap relations "
                f"with relation(...) and keep tuple elements scalar"
            )
        else:
            raise RelationError(f"not a Rel value: {elem!r}")
    return tuple(out)


class Relation:
    """An immutable set of tuples (mixed arity allowed).

    Construct with :func:`relation` / :func:`singleton` or the classmethods;
    the constructor accepts any iterable of sequences. Rows are stored
    keyed by :func:`row_key`, so membership, equality, and the set algebra
    all follow the engine's value semantics. :meth:`from_columns` builds a
    columnar-native relation whose keyed dict materializes lazily (see the
    module docstring).
    """

    __slots__ = ("_rows", "_tupleset", "_hash", "_trie", "_arities", "_skey",
                 "_cols", "_rowlist")

    def __init__(self, tuples: Iterable[Sequence[Any]] = ()) -> None:
        rows: Dict[Tup, Tup] = {}
        for t in tuples:
            frozen = _freeze_tuple(t)
            rows.setdefault(row_key(frozen), frozen)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_tupleset", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_trie", None)
        object.__setattr__(self, "_arities", None)
        object.__setattr__(self, "_skey", None)
        object.__setattr__(self, "_cols", None)
        object.__setattr__(self, "_rowlist", None)

    # ------------------------------------------------------------------
    # Storage planes
    # ------------------------------------------------------------------

    @classmethod
    def from_columns(cls, colset: Any) -> "Relation":
        """Adopt a typed :class:`~repro.model.columns.ColumnSet` as native
        storage (trusted: the colset's rows must already be distinct in
        ``row_key`` space — true of every deduplicated kernel output, since
        bool and int columns never merge by construction). ``None`` or an
        empty colset gives :data:`EMPTY`; the keyed dict is built lazily by
        :meth:`_keyed` only when a consumer needs per-row keys."""
        if colset is None or not len(colset):
            return EMPTY
        rel = cls.__new__(cls)
        object.__setattr__(rel, "_rows", None)
        object.__setattr__(rel, "_tupleset", None)
        object.__setattr__(rel, "_hash", None)
        object.__setattr__(rel, "_trie", None)
        object.__setattr__(rel, "_arities", None)
        object.__setattr__(rel, "_skey", None)
        object.__setattr__(rel, "_cols", colset)
        object.__setattr__(rel, "_rowlist", None)
        _columns.count_plane("relation_native")
        return rel

    def _materialize_rows(self) -> list:
        """Decoded row tuples of a columnar-native relation (memoized).
        Much cheaper than :meth:`_keyed` — no per-row hashing — and enough
        for plain iteration."""
        rowlist = self._rowlist
        if rowlist is None:
            rowlist = self._cols.to_rows()
            object.__setattr__(self, "_rowlist", rowlist)
        return rowlist

    def _keyed(self) -> Dict[Tup, Tup]:
        """The ``row_key → tuple`` dict — THE funnel for every per-row-key
        consumer. Dict-backed relations return their storage; columnar-native
        ones materialize it here, once, on first demand (counted as a
        ``relation_lazy_dict`` plane event)."""
        rows = self._rows
        if rows is None:
            tuples = self._materialize_rows()
            if "bool" in self._cols.tags:
                rows = {}
                for t in tuples:
                    rows[row_key(t)] = t
            else:
                # Bool-free rows are their own row_keys.
                rows = dict(zip(tuples, tuples))
            object.__setattr__(self, "_rows", rows)
            _columns.count_plane("relation_lazy_dict")
        return rows

    # ------------------------------------------------------------------
    # Fundamental protocol
    # ------------------------------------------------------------------

    @property
    def tuples(self) -> FrozenSet[Tup]:
        """The tuples as a frozenset — a compatibility *view* with Python
        set semantics (a relation holding both ``True`` and ``1`` collapses
        under it). Exact consumers should iterate the relation or use
        :meth:`rows`."""
        if self._tupleset is None:
            object.__setattr__(self, "_tupleset", frozenset(self.rows()))
        return self._tupleset

    def rows(self) -> Collection[Tup]:
        """The exact stored rows (sized, re-iterable, no merging) — a dict
        values view or, for columnar-native relations, the decoded row
        list (no keyed dict is built)."""
        rows = self._rows
        if rows is not None:
            return rows.values()
        return self._materialize_rows()

    def __iter__(self) -> Iterator[Tup]:
        return iter(self.rows())

    def __len__(self) -> int:
        rows = self._rows
        if rows is not None:
            return len(rows)
        return self._cols.length

    def __bool__(self) -> bool:
        """A relation is truthy iff non-empty (``{}`` is Rel's false)."""
        rows = self._rows
        return bool(rows) if rows is not None else True  # native: non-empty

    def __contains__(self, tup: Sequence[Any]) -> bool:
        return row_key(tuple(tup)) in self._keyed()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self is other:
            return True
        mine, theirs = self._rows, other._rows
        if mine is not None and theirs is not None:
            return mine.keys() == theirs.keys()
        # At least one side is columnar-native: decide on the vectors when
        # possible (Kleene iteration's set_extent equality check runs here
        # every round).
        if len(self) != len(other):
            return False
        ca, cb = self.columns(), other.columns()
        if ca is not None and cb is not None:
            verdict = _columns.sets_equal(ca, cb)
            if verdict is not None:
                return verdict
        return self._keyed().keys() == other._keyed().keys()

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(frozenset(self._keyed())))
        return self._hash

    def __repr__(self) -> str:
        n = len(self)
        if not n:
            return "{}"
        parts = []
        for tup in self.sorted_tuples()[:24]:
            parts.append("(" + ", ".join(value_repr(v) for v in tup) + ")")
        body = "; ".join(parts)
        if n > 24:
            body += f"; … {n - 24} more"
        return "{" + body + "}"

    def sorted_tuples(self) -> list[Tup]:
        """Deterministic listing: tuples ordered by arity then value order."""
        return sorted(self.rows(), key=tuple_sort_key)

    def _canonical_sort_key(self) -> Tuple[Any, ...]:
        """Memoized :func:`repro.model.values.sort_key` payload: relations
        nested as tuple elements are ordered by their canonical listing,
        computed once per object."""
        if self._skey is None:
            object.__setattr__(
                self, "_skey",
                (9, tuple(tuple(sort_key(v) for v in t)
                          for t in self.sorted_tuples())),
            )
        return self._skey

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    def arities(self) -> FrozenSet[int]:
        """The set of tuple arities present (memoized: relations are
        immutable, and the join extraction path asks per evaluation)."""
        if self._arities is None:
            if self._rows is None:
                found = frozenset({self._cols.arity})
            else:
                found = frozenset(len(t) for t in self._rows.values())
            object.__setattr__(self, "_arities", found)
        return self._arities

    @property
    def arity(self) -> int:
        """The unique arity, if the relation is arity-homogeneous.

        Raises :class:`RelationError` for mixed-arity or empty relations —
        callers that tolerate mixed arity should use :meth:`arities`.
        """
        arities = self.arities()
        if len(arities) != 1:
            raise RelationError(
                f"relation has no unique arity (arities={sorted(arities)})"
            )
        return next(iter(arities))

    def is_boolean(self) -> bool:
        """True iff this relation is ``{}`` or ``{⟨⟩}``."""
        rows = self._rows
        if rows is None:
            return False  # native relations are non-empty with arity >= 1
        return not rows or (len(rows) == 1 and () in rows)

    def to_bool(self) -> bool:
        """Interpret as a Boolean per Section 4.3 (non-empty = true)."""
        return bool(self)

    # ------------------------------------------------------------------
    # Set algebra (keyed on row_key value semantics throughout)
    # ------------------------------------------------------------------
    #
    # Every operation preserves the return-self-when-unchanged contract
    # (id()-pinned trie/index caches and the maintenance driver's identity
    # checks rely on it) on both planes. The kernels engage only when at
    # least one side has no keyed dict yet — once both dicts exist, the
    # dict pass is as cheap and avoids numpy round-trips.

    def _kernel_partner(self, other: "Relation"):
        """``(cols_self, cols_other)`` when a vectorized set op should be
        attempted: at least one side is dict-less and both type."""
        if self._rows is not None and other._rows is not None:
            return None
        ca = self.columns()
        if ca is None:
            return None
        cb = other.columns()
        if cb is None:
            return None
        return ca, cb

    def union(self, other: "Relation") -> "Relation":
        """Set union — the semantics of ``{e1; e2}`` and ``or``."""
        if not self:
            return other
        if not other:
            return self
        pair = self._kernel_partner(other)
        if pair is not None:
            out = _columns.set_union(*pair)
            if out is not None:
                return self if out is pair[0] else Relation.from_columns(out)
        mine = self._keyed()
        # copy() clones the hash table even after a point delete has left
        # a hole in it; ``{**mine}`` would re-insert every row instead.
        merged = mine.copy()
        merged.update(other._keyed())
        if len(merged) == len(mine):
            return self
        return Relation._from_keyed(merged)

    def intersect(self, other: "Relation") -> "Relation":
        """Set intersection — ``and`` on formulas, and `Select`'s core."""
        if not self:
            return self
        if not other:
            return EMPTY
        pair = self._kernel_partner(other)
        if pair is not None:
            out = _columns.set_intersect(*pair)
            if out is not None:
                return self if out is pair[0] else Relation.from_columns(out)
        mine, theirs = self._keyed(), other._keyed()
        if len(theirs) < len(mine):
            kept = {k: mine[k] for k in theirs if k in mine}
        else:
            kept = {k: t for k, t in mine.items() if k in theirs}
        if len(kept) == len(mine):
            return self
        return Relation._from_keyed(kept)

    def difference(self, other: "Relation") -> "Relation":
        """Set difference — `Minus` in the RA library."""
        if not self or not other:
            return self
        pair = self._kernel_partner(other)
        if pair is not None:
            out = _columns.set_difference(*pair)
            if out is not None:
                return self if out is pair[0] else Relation.from_columns(out)
        mine, theirs = self._keyed(), other._keyed()
        if len(theirs) < len(mine):
            # A point delete: copy once, pop the few keys (order kept).
            kept = mine.copy()
            for k in theirs:
                kept.pop(k, None)
        else:
            kept = {k: t for k, t in mine.items() if k not in theirs}
        if len(kept) == len(mine):
            return self
        return Relation._from_keyed(kept)

    def missing_from(self, other: "Relation") -> "Relation":
        """``self − other`` by one probe of ``other``'s row index per row of
        ``self``: O(|self|) however large ``other`` is (a columnar ``other``
        builds its index once). A write takes its delta against a base so."""
        mine, theirs = self._keyed(), other._keyed()
        if theirs.keys().isdisjoint(mine.keys()):
            return self  # e.g. a bulk load of new rows: no per-row Python
        return Relation._from_keyed(
            {k: t for k, t in mine.items() if k not in theirs})

    def product(self, other: "Relation") -> "Relation":
        """Cartesian product by tuple concatenation — ``(e1, e2)``.

        ``TRUE`` is the unit: ``R × {⟨⟩} = R``. ``FALSE`` annihilates.
        """
        if not self or not other:
            return EMPTY
        if self._is_unit():
            return other
        if other._is_unit():
            return self
        # row_key distributes over concatenation, so stored keys are reused.
        return Relation._from_keyed({
            ka + kb: ta + tb
            for ka, ta in self._keyed().items()
            for kb, tb in other._keyed().items()
        })

    def _is_unit(self) -> bool:
        rows = self._rows
        if rows is None:
            return False  # native colsets have arity >= 1
        return len(rows) == 1 and () in rows

    # ------------------------------------------------------------------
    # Application support (Sections 4.3, Figure 3)
    # ------------------------------------------------------------------

    def suffixes_for_prefix_value(self, value: Any) -> "Relation":
        """``{Expr}[v]``: suffixes of tuples whose first element is ``value``.

        Uses the prefix trie for amortized O(result) lookup.
        """
        return Relation._from_rows(self._index().suffixes((value,)))

    def suffixes_for_prefix(self, prefix: Sequence[Any]) -> "Relation":
        """Suffixes of tuples starting with the whole ``prefix``."""
        return Relation._from_rows(self._index().suffixes(tuple(prefix)))

    def all_suffixes(self) -> "Relation":
        """``{Expr}[_...]``: all suffixes of all tuples (every split point)."""
        out: Dict[Tup, Tup] = {}
        for t in self.rows():
            for i in range(len(t) + 1):
                suffix = t[i:]
                out.setdefault(row_key(suffix), suffix)
        return Relation._from_keyed(out)

    # ------------------------------------------------------------------
    # Relational-algebra conveniences (used by stdlib and the db layer)
    # ------------------------------------------------------------------

    def project(self, positions: Sequence[int]) -> "Relation":
        """Project onto 0-based ``positions`` (tuples too short are dropped)."""
        needed = max(positions) + 1 if positions else 0
        return Relation._from_rows(
            tuple(t[i] for i in positions)
            for t in self.rows()
            if len(t) >= needed
        )

    def select(self, predicate: Callable[[Tup], bool]) -> "Relation":
        """Keep tuples satisfying a Python predicate."""
        mine = self._keyed()
        kept = {k: t for k, t in mine.items() if predicate(t)}
        if len(kept) == len(mine):
            return self
        return Relation._from_keyed(kept)

    def column(self, position: int) -> FrozenSet[Any]:
        """Distinct values in 0-based column ``position``."""
        return frozenset(t[position] for t in self.rows()
                         if len(t) > position)

    def last_column_values(self) -> list[Any]:
        """Values of the last column, one per tuple (set semantics on tuples).

        This is the input to ``reduce``: aggregation consumes *whole tuples*
        and extracts the final position, so two distinct keys with the same
        value both contribute (Section 5.2's point about set semantics).
        """
        return [t[-1] for t in self.rows() if t]

    def is_functional(self) -> bool:
        """Check the 6NF functional condition: first k-1 columns form a key.

        Both the key columns and the value compare under value semantics
        (``True ≠ 1``): two rows holding distinct Rel values for one key
        violate the condition even if Python's ``==`` merges them."""
        seen: Dict[Tup, Any] = {}
        for t in self.rows():
            if not t:
                continue
            key, val = row_key(t[:-1]), value_key(t[-1])
            if key in seen and seen[key] != val:
                return False
            seen[key] = val
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @classmethod
    def _from_keyed(cls, rows: Dict[Tup, Tup]) -> "Relation":
        """Adopt a prebuilt ``row_key → tuple`` mapping (no copy, trusted)."""
        rel = cls.__new__(cls)
        object.__setattr__(rel, "_rows", rows)
        object.__setattr__(rel, "_tupleset", None)
        object.__setattr__(rel, "_hash", None)
        object.__setattr__(rel, "_trie", None)
        object.__setattr__(rel, "_arities", None)
        object.__setattr__(rel, "_skey", None)
        object.__setattr__(rel, "_cols", None)
        object.__setattr__(rel, "_rowlist", None)
        return rel

    @classmethod
    def _from_rows(cls, tuples: Iterable[Tup]) -> "Relation":
        """Build from already-frozen tuples (engine facts): dedup by
        :func:`row_key`, no element validation."""
        rows: Dict[Tup, Tup] = {}
        for t in tuples:
            rows.setdefault(row_key(t), t)
        return cls._from_keyed(rows)

    def _index(self):
        """Lazily built prefix trie over the tuples. Column-backed
        relations (native or typed dict-backed) take the sorted bulk
        build — see :meth:`repro.model.trie.RelationTrie.from_relation`."""
        if self._trie is None:
            from repro.model.trie import RelationTrie

            object.__setattr__(self, "_trie",
                               RelationTrie.from_relation(self))
        return self._trie

    def columns(self) -> "Any":
        """The typed columnar image (:class:`repro.model.columns.ColumnSet`)
        of this relation, or ``None`` when its rows are not typeable —
        mixed arity, mixed ``bool``/``int`` columns, nested relations,
        symbols/entities, out-of-range ints. Memoized either way (relations
        are immutable, so one sniffing pass settles it); columnar-native
        relations return their storage directly."""
        cols = self._cols
        if cols is None:
            cols = _columns.ColumnSet.from_rows(list(self.rows()))
            object.__setattr__(self, "_cols", cols if cols is not None
                               else False)
        return cols or None

    def approx_bytes(self) -> int:
        """Approximate resident size of the stored rows (the statistics
        hook): exact vector bytes for typed relations, a per-tuple estimate
        (dict slot + tuple header + one pointer per element) otherwise."""
        cols = self.columns()
        if cols is not None:
            return cols.nbytes()
        return sum(120 + 8 * len(t) for t in self.rows())


#: The empty relation — Rel's ``false`` and the additive identity.
EMPTY: Relation = Relation()
FALSE: Relation = EMPTY

#: The relation containing only the empty tuple — Rel's ``true`` and the
#: multiplicative identity of the Cartesian product.
UNIT: Relation = Relation([()])
TRUE: Relation = UNIT


#: ``name → (plus, minus)``, a write's net delta: ``plus`` is disjoint from
#: the base, ``minus`` inside it; a missing name's entry creates it, even
#: empty. Writers leave out an existing name's no-op.
Changes = Dict[str, Tuple[Relation, Relation]]


def apply_delta(rel: Relation, plus: Relation, minus: Relation) -> Relation:
    """``rel`` without ``minus`` and with ``plus``: how a write's net delta
    reaches a stored relation, in the engine's base and in WAL replay."""
    if minus:
        rel = rel.difference(minus)
    return rel.union(plus) if plus else rel


def replacements(updates: Mapping[str, Relation],
                 base: Mapping[str, Relation]) -> Changes:
    """The net delta of giving each name its value in ``updates``: one diff
    per name ``base`` holds, no-ops left out."""
    changes: Changes = {}
    for name, new in updates.items():
        old = base.get(name, None)
        if old is None:
            changes[name] = (new, EMPTY)
        elif new is not old:
            plus, minus = new.difference(old), old.difference(new)
            if plus or minus:
                changes[name] = (plus, minus)
    return changes


def relation(*tuples: Sequence[Any]) -> Relation:
    """Convenience constructor: ``relation((1, 2), (3, 4))``."""
    return Relation(tuples)


def singleton(tup: Sequence[Any]) -> Relation:
    """The relation containing exactly one tuple."""
    return Relation([tup])
