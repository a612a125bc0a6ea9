"""Binding tables: the intermediate representation of evaluation.

A :class:`Table` holds the satisfying assignments found so far for a set of
variables (its *columns*) together with, per row, a *payload*: the tuple of
output values produced by the expression being evaluated. Formulas are
expressions with empty payloads — which mirrors the paper's identification
of formulas with Boolean-valued expressions.

Rows are Python tuples; the payload is always the final element, itself a
tuple (possibly empty, possibly of varying length across rows — Rel
relations may hold mixed-arity tuples).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.model import columns as _columns
from repro.model.values import BOOL_FALSE_KEY, BOOL_TRUE_KEY

Row = Tuple[Any, ...]


def row_ident(row: Row) -> Row:
    """Set-semantics identity of a table row: Booleans are tagged (also
    inside nested tuples — payloads and tuple-variable bindings) so that
    ``True``/``1`` rows stay distinct, matching the Relation container and
    the join layer. Rows without Booleans key as themselves."""
    marked = None
    for i, v in enumerate(row):
        t = type(v)
        if t is bool:
            if marked is None:
                marked = list(row)
            marked[i] = BOOL_TRUE_KEY if v else BOOL_FALSE_KEY
        elif t is tuple and v:
            key = row_ident(v)
            if key is not v:
                if marked is None:
                    marked = list(row)
                marked[i] = key
    return row if marked is None else tuple(marked)


class Table:
    """Satisfying assignments plus per-row output payloads.

    ``distinct`` tracks whether the rows are known to be duplicate-free
    under :func:`row_ident` — set by the deduplicating constructors and
    preserved by row-bijective transforms — so the scheduler's defensive
    :meth:`dedupe` calls skip the re-keying pass on already-distinct
    tables (the fixpoint hot loop re-keys every row several times per
    iteration otherwise)."""

    __slots__ = ("cols", "_rows", "_colmap", "distinct", "colsrc")

    def __init__(self, cols: Tuple[str, ...], rows: List[Row],
                 distinct: bool = False) -> None:
        self.cols = cols
        self._rows = rows
        self._colmap: Optional[Dict[str, int]] = None
        self.distinct = distinct
        self.colsrc: Optional[Tuple[Row, Any, Tuple[Any, ...]]] = None

    @property
    def rows(self) -> List[Row]:
        """The row list; tables built from a columnar join result
        (:meth:`from_columns`) materialize it lazily so downstream
        vectorized projection can skip the Python tuples entirely."""
        rows = self._rows
        if rows is None:
            prefix, colset, payload = self.colsrc
            rows = [prefix + body + (payload,) for body in colset.to_rows()]
            self._rows = rows
        return rows

    # -- construction --------------------------------------------------------

    @staticmethod
    def unit() -> "Table":
        """The table with no variables and one row with an empty payload."""
        return Table((), [((),)], distinct=True)

    @staticmethod
    def from_columns(cols: Tuple[str, ...], prefix: Row, colset: Any,
                     payload: Tuple[Any, ...]) -> "Table":
        """A table whose logical rows are ``prefix + colset row + (payload,)``
        with ``prefix`` and ``payload`` constant across rows.

        The backing :class:`~repro.model.columns.ColumnSet` stays attached
        (``colsrc``) and rows materialize only on first ``.rows`` access;
        :func:`project_table` projects straight off the vectors when asked
        first. Distinct by construction: the colset rows are value-distinct
        (a deduplicated join output) and the constant prefix/payload cannot
        split equal rows apart."""
        table = Table(cols, None, distinct=True)  # type: ignore[arg-type]
        table.colsrc = (prefix, colset, payload)
        return table

    @staticmethod
    def empty(cols: Tuple[str, ...] = ()) -> "Table":
        return Table(cols, [])

    def clone_cols(self) -> "Table":
        return Table(self.cols, [])

    # -- basic accessors -----------------------------------------------------

    def col_index(self, name: str) -> int:
        """Column position of ``name``; the name → index map is built once
        per table and shared by every lookup (hot paths index by name per
        column, not per row)."""
        colmap = self._colmap
        if colmap is None:
            self._colmap = colmap = {c: i for i, c in enumerate(self.cols)}
        try:
            return colmap[name]
        except KeyError:
            raise ValueError(f"{name!r} is not a column of {self.cols}") from None

    def has_col(self, name: str) -> bool:
        return name in self.cols

    def __len__(self) -> int:
        if self._rows is None:
            return len(self.colsrc[1])
        return len(self._rows)

    def __bool__(self) -> bool:
        return len(self) > 0

    def payloads(self) -> Iterable[Tuple[Any, ...]]:
        for row in self.rows:
            yield row[-1]

    def bindings(self, row: Row) -> Dict[str, Any]:
        """The variable assignment of one row, as a dict."""
        return dict(zip(self.cols, row))

    # -- transformations -------------------------------------------------------

    def clear_payload(self) -> "Table":
        """Reset every payload to the empty tuple (formula result)."""
        empty = ()
        return Table(self.cols, [row[:-1] + (empty,) for row in self.rows])

    def dedupe(self) -> "Table":
        """Remove duplicate rows (set semantics, value identity)."""
        if self.distinct:
            return self
        seen = set()
        out: List[Row] = []
        for row in self.rows:
            key = row_ident(row)
            if key not in seen:
                seen.add(key)
                out.append(row)
        return Table(self.cols, out, distinct=True)

    def project(self, keep: Sequence[str]) -> "Table":
        """Keep only columns in ``keep`` (payload retained), dedupe rows."""
        indices = [self.col_index(c) for c in keep]
        seen = set()
        out: List[Row] = []
        for row in self.rows:
            new = tuple(row[i] for i in indices) + (row[-1],)
            key = row_ident(new)
            if key not in seen:
                seen.add(key)
                out.append(new)
        return Table(tuple(keep), out, distinct=True)

    def filter(self, predicate: Callable[[Row], bool]) -> "Table":
        return Table(self.cols, [row for row in self.rows if predicate(row)],
                     distinct=self.distinct)

    def stash_payload(self, col: str) -> "Table":
        """Move the payload into a named (hidden) column, emptying the payload.

        Used by the conjunct scheduler: each product item's payload is
        stashed under a slot column so items can be evaluated in an order
        that differs from their syntactic (payload) order. Row-bijective:
        distinctness is preserved.
        """
        rows = [row[:-1] + (row[-1], ()) for row in self.rows]
        return Table(self.cols + (col,), rows, distinct=self.distinct)

    def gather_payload(self, slot_cols: Sequence[str]) -> "Table":
        """Concatenate stashed slot payloads (in the given order) into the
        payload, dropping the slot columns."""
        slot_idx = [self.col_index(c) for c in slot_cols]
        slot_set = set(slot_idx)
        keep_idx = [i for i in range(len(self.cols)) if i not in slot_set]
        new_cols = tuple(self.cols[i] for i in keep_idx)
        rows: List[Row] = []
        for row in self.rows:
            payload = row[-1]
            for i in slot_idx:
                payload = payload + row[i]
            rows.append(tuple(row[i] for i in keep_idx) + (payload,))
        return Table(new_cols, rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        head = ", ".join(self.cols) or "-"
        return f"Table[{head}]({len(self.rows)} rows)"


def union_tables(tables: List[Table], cols: Tuple[str, ...]) -> Table:
    """Union of tables projected to common columns ``cols``, deduped."""
    seen = set()
    rows: List[Row] = []
    for table in tables:
        indices = [table.col_index(c) for c in cols]
        for row in table.rows:
            new = tuple(row[i] for i in indices) + (row[-1],)
            key = row_ident(new)
            if key not in seen:
                seen.add(key)
                rows.append(new)
    return Table(cols, rows, distinct=True)


# -- vectorized kernels ------------------------------------------------------
#
# Each helper returns ``None`` to decline — mixed payload arity, untypeable
# values (Symbols, entities, nested Relations/tuples, huge ints, NaN), or an
# unavailable numpy — in which case the caller falls back to the interpreted
# path above. On success the result is bit-identical to the interpreted
# version: ``_flatten`` splices the payload into the row so Boolean tagging
# and numeric cross-type equality are handled by the column type tags
# (see ``repro.model.columns``), exactly mirroring :func:`row_ident`.


def _flatten(rows: Sequence[Row]) -> Optional[List[Row]]:
    """Rows with the payload spliced in, or ``None`` on mixed payload arity."""
    plen = len(rows[0][-1])
    flat: List[Row] = []
    for row in rows:
        payload = row[-1]
        if len(payload) != plen:
            return None
        flat.append(row[:-1] + payload)
    return flat


def dedupe_table(table: Table) -> Optional[Table]:
    """Vectorized :meth:`Table.dedupe`, or ``None`` to decline."""
    if table.distinct or not table:  # columnar-backed tables are distinct
        return table
    rows = table.rows
    flat = _flatten(rows)
    if flat is None:
        return None
    keep = _columns.dedupe_indices(flat)
    if keep is None:
        return None
    if len(keep) == len(rows):
        return Table(table.cols, rows, distinct=True)
    return Table(table.cols, [rows[i] for i in keep], distinct=True)


def project_table(table: Table, keep: Sequence[str]) -> Optional[Table]:
    """Vectorized :meth:`Table.project`, or ``None`` to decline."""
    if not table:
        return Table(tuple(keep), [], distinct=True)
    if table.colsrc is not None:
        projected = _project_columns(table, keep)
        if projected is not None:
            return projected
    indices = [table.col_index(c) for c in keep]
    rows = [tuple(row[i] for i in indices) + (row[-1],) for row in table.rows]
    projected = Table(tuple(keep), rows)
    return dedupe_table(projected)


def _project_columns(table: Table, keep: Sequence[str]) -> Optional[Table]:
    """Project a columnar-backed table straight off its vectors.

    The projection's dedupe key is ``(kept values..., payload)``; the
    payload (and any kept prefix column) is one shared constant, so the
    key collapses to the kept vector columns and ``distinct_indices``
    decides it without ever materializing the pre-projection rows."""
    prefix, colset, payload = table.colsrc
    npre = len(prefix)
    placing = []        # (output position, constant | None, column index)
    vector_cols = []    # (tag, array) pairs feeding the distinct kernel
    for pos, name in enumerate(keep):
        i = table.col_index(name)
        if i < npre:
            placing.append((pos, prefix[i], None))
        else:
            placing.append((pos, None, len(vector_cols)))
            vector_cols.append((colset.tags[i - npre],
                                colset.arrays[i - npre]))
    if not vector_cols:
        # All kept columns are prefix constants: one row survives.
        row = tuple(const for _, const, _ in placing) + (payload,)
        return Table(tuple(keep), [row] if len(table) else [], distinct=True)
    keep_idx = _columns.distinct_indices(vector_cols, len(colset))
    if all(const is None for _, const, _ in placing):
        # Pure vector projection: stay columnar. The result feeds either
        # the next conjunct's probe build or the final relation emission,
        # both of which consume vectors directly.
        out = _columns.ColumnSet(
            tuple(tag for tag, _ in vector_cols),
            tuple(arr[keep_idx] for _, arr in vector_cols),
            len(keep_idx))
        return Table.from_columns(tuple(keep), (), out, payload)
    decoded = [_columns.decode_column(tag, arr[keep_idx])
               for tag, arr in vector_cols]
    rows: List[Row] = []
    for j in range(len(keep_idx)):
        rows.append(tuple(const if vec is None else decoded[vec][j]
                          for _, const, vec in placing) + (payload,))
    return Table(tuple(keep), rows, distinct=True)


def union_tables_typed(tables: List[Table],
                       cols: Tuple[str, ...]) -> Optional[Table]:
    """Vectorized :func:`union_tables`, or ``None`` to decline."""
    rows: List[Row] = []
    for table in tables:
        indices = [table.col_index(c) for c in cols]
        rows.extend(tuple(row[i] for i in indices) + (row[-1],)
                    for row in table.rows)
    if not rows:
        return Table(cols, [], distinct=True)
    return dedupe_table(Table(cols, rows))
