"""Stable serialization of Rel values, rows, and relations.

The wire format is JSON with one-key tag objects for the sorts JSON cannot
represent natively — chosen over a binary format because WAL records and
checkpoints become debuggable with ``strings``/``jq``, and the hot path
(bulk load) writes *one* record per batch, so encode throughput is not the
bottleneck the per-op path would make it.

Sort fidelity matters more than compactness here: the engine's value
semantics keep ``True`` distinct from ``1`` while merging ``1`` and
``1.0`` (:func:`repro.model.values.row_key`), and JSON happens to agree —
``true`` and ``1`` are different tokens, ``1.0`` round-trips as a float.
Symbols, entities, and second-order relation elements get tag objects:

========================  =======================================
value                     encoding
========================  =======================================
``bool/int/float/str``    the JSON scalar itself
``Symbol("Name")``        ``{"s": "Name"}``
``Entity("Ns", key)``     ``{"e": ["Ns", <encoded key>]}``
``Relation([...])``       ``{"r": [<encoded rows, sorted>]}``
========================  =======================================

Rows are JSON arrays; relations serialize their rows in
:func:`~repro.model.values.tuple_sort_key` order (via
``Relation.sorted_tuples``), so equal relations always produce identical
bytes — the "stable serialization" checkpoints and tests depend on.

**Columnar blocks (PR 7).** Relations whose rows live on the typed
columnar plane (:meth:`repro.model.relation.Relation.columns`) serialize
as one contiguous block per column instead of a row list::

    {"c": {"tags": ["int", "str"], "cols": [[1, 2, ...], ["a", "b", ...]]}}

The block skips the per-value ``encode_value`` dispatch entirely (a
column's tag certifies every element is a plain JSON scalar) and sorts
rows with one vectorized lexsort instead of 100k ``tuple_sort_key``
calls; decode rebuilds tuples with a single ``zip`` and — when no
``bool`` column is present, so ``row_key`` is the identity — adopts them
via the trusted keyed constructor without re-keying each row.
:func:`decode_relation` accepts both formats forever, so checkpoints and
WALs written by the row codec (PR 6) reopen unchanged; writers fall back
to the row format whenever a relation is not typeable (mixed arity,
nested relations, symbols/entities, …) or the columnar plane is
unavailable (no numpy, ``REPRO_COLUMNAR=off``).

**Interned string tables (PR 8).** Columnar blocks with ``str`` columns
additionally carry one deduplicated, lexicographically-sorted ``strings``
table, with the columns holding integer positions into it::

    {"c": {"tags": ["int", "str"], "cols": [[1, 2, ...], [0, 0, 1, ...]],
           "strings": ["a", "b", ...]}}

Encode reads the distinct intern codes straight out of the typed vectors
(the process-wide interner of :mod:`repro.model.columns` — each distinct
string is decoded once, not once per row); decode bulk-interns the table
and remaps integers, adopting the result as a columnar-native relation.
All three formats decode forever (blocks self-tag via ``strings``);
encode writes only the newest format a relation allows.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, List, Optional, Sequence, Union

from repro.model import columns as _columns
from repro.model.relation import Relation
from repro.model.values import Entity, Symbol
from repro.storage.errors import CodecError

_SCALARS = (bool, int, float, str)

def encode_value(value: Any) -> Any:
    """One Rel value → its JSON-able form (see the module table)."""
    if type(value) in (bool, int, float, str):
        return value
    if isinstance(value, Relation):
        return {"r": [encode_row(row) for row in value.sorted_tuples()]}
    if isinstance(value, Symbol):
        return {"s": value.name}
    if isinstance(value, Entity):
        return {"e": [value.namespace, encode_value(value.key)]}
    if isinstance(value, _SCALARS):  # bool/int/float/str subclasses
        raise CodecError(
            f"refusing to serialize scalar subclass {type(value).__name__}: "
            f"it would decode as a plain {type(value).__mro__[1].__name__}"
        )
    raise CodecError(f"not a serializable Rel value: {value!r}")


def decode_value(obj: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(obj, dict):
        if len(obj) != 1:
            raise CodecError(f"malformed value tag: {obj!r}")
        tag, payload = next(iter(obj.items()))
        if tag == "r":
            return Relation(decode_row(row) for row in payload)
        if tag == "s":
            return Symbol(payload)
        if tag == "e":
            namespace, key = payload
            return Entity(namespace, decode_value(key))
        raise CodecError(f"unknown value tag {tag!r}")
    if isinstance(obj, list):
        raise CodecError(f"bare list is not a value: {obj!r}")
    return obj


def encode_row(row: Sequence[Any]) -> List[Any]:
    return [encode_value(v) for v in row]


def decode_row(obj: Sequence[Any]) -> tuple:
    return tuple([decode_value(v) for v in obj])


def encode_relation(rel: Relation,
                    *, columnar: Optional[bool] = None
                    ) -> Union[List[List[Any]], dict]:
    """A relation as either a columnar block (typed relations) or a sorted
    list of encoded rows — deterministic bytes either way: the block's row
    order is a pure function of the stored rows (lexicographic over the
    typed columns), the row list is ``tuple_sort_key`` order.

    ``columnar=None`` writes a block whenever the columnar plane is
    available (numpy present, not ablated via ``REPRO_COLUMNAR=off``);
    ``False`` forces the row list. Blocks with ``str`` columns always
    carry a string table."""
    if columnar or (columnar is None and _columns.available()):
        cols = rel.columns()
        if cols is not None:
            order = cols.row_order()
            if "str" in cols.tags:
                return _encode_interned_block(cols, order)
            return {"c": {
                "tags": list(cols.tags),
                "cols": [_encode_column(cols.tags[i], cols.arrays[i][order])
                         for i in range(cols.arity)],
            }}
    return [encode_row(row) for row in rel.sorted_tuples()]


def _encode_interned_block(cols: Any, order: Any) -> dict:
    """A columnar block with one shared per-block string table.

    The table holds each distinct string once (sorted lexicographically,
    so equal relations produce identical bytes regardless of interner
    history); ``str`` columns carry int positions into it. Building it
    costs one ``np.unique`` over the stored intern codes plus one decode
    per *distinct* string — never one per row."""
    import numpy as _np

    str_idx = [i for i, t in enumerate(cols.tags) if t == "str"]
    codes = _np.unique(_np.concatenate([cols.arrays[i] for i in str_idx]))
    strings = [_columns.decode_string(c) for c in codes.tolist()]
    by_text = sorted(range(len(strings)), key=strings.__getitem__)
    table = [strings[j] for j in by_text]
    rank = _np.empty(len(by_text), dtype=_np.int64)
    rank[_np.asarray(by_text, dtype=_np.int64)] = _np.arange(len(by_text))
    out_cols: List[Any] = []
    for i, tag in enumerate(cols.tags):
        arr = cols.arrays[i][order]
        if tag == "str":
            out_cols.append(rank[_np.searchsorted(codes, arr)].tolist())
        else:
            out_cols.append(_encode_column(tag, arr))
    return {"c": {"tags": list(cols.tags), "cols": out_cols,
                  "strings": table}}


def _encode_column(tag: str, arr: Any) -> List[Any]:
    """One sorted column vector → a list of plain JSON scalars."""
    if tag == "bool":
        return [v == 1 for v in arr.tolist()]
    if tag == "str":
        return [_columns.decode_string(c) for c in arr.tolist()]
    return arr.tolist()  # int64 / float64 → exact Python ints / floats


def decode_relation(obj: Union[Iterable[Sequence[Any]], dict]) -> Relation:
    # Decoded rows contain only values this codec itself produced, so the
    # trusted constructors apply: no element re-validation. Checkpoint
    # decode is the reopen hot path.
    if isinstance(obj, dict):
        try:
            block = obj["c"]
            tags, cols = block["tags"], block["cols"]
        except (KeyError, TypeError) as exc:
            raise CodecError(f"malformed relation block: {obj!r}") from exc
        if len(tags) != len(cols) or not cols:
            raise CodecError(f"malformed relation block: {obj!r}")
        strings = block.get("strings")
        if strings is not None:
            return _decode_interned_block(tags, cols, strings)
        rows = list(zip(*cols))
        if "bool" in tags:
            # row_key tags booleans; re-key through the generic path.
            return Relation._from_rows(rows)
        # Bool-free rows are their own row_keys, and a block's rows are
        # distinct by construction (they came out of a Relation): adopt
        # the mapping without hashing every row twice.
        return Relation._from_keyed(dict(zip(rows, rows)))
    return Relation._from_rows(map(decode_row, obj))


_NUMERIC_DTYPES = {"bool": "uint8", "int": "int64", "float": "float64"}


def _decode_interned_block(tags: Sequence[str], cols: Sequence[Any],
                           strings: Sequence[str]) -> Relation:
    """Decode a string-table block.

    With the typed plane available this is the checkpoint-reopen fast
    path: the table is interned in one bulk call, ``str`` columns rebuild
    by integer remap, and the result is adopted as a columnar-*native*
    relation — no Python row is ever constructed. Without it, local codes
    resolve through the table row-by-row (same bytes, same relation)."""
    if _columns.available():
        import numpy as _np

        interned = _np.asarray(_columns._encode_strings(list(strings)),
                               dtype=_np.int64)
        arrays = []
        for tag, col in zip(tags, cols):
            if tag == "str":
                arrays.append(interned[_np.asarray(col, dtype=_np.int64)])
            else:
                arrays.append(_np.asarray(col,
                                          dtype=_NUMERIC_DTYPES.get(tag)))
        n = len(cols[0]) if cols else 0
        return Relation.from_columns(
            _columns.ColumnSet(tuple(tags), tuple(arrays), n))
    resolved = [[strings[c] for c in col] if tag == "str" else col
                for tag, col in zip(tags, cols)]
    rows = list(zip(*resolved))
    if "bool" in tags:
        return Relation._from_rows(rows)
    return Relation._from_keyed(dict(zip(rows, rows)))


def dump_payload(obj: Any) -> bytes:
    """A record payload (a JSON-able dict) → canonical UTF-8 bytes."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True,
                      ensure_ascii=False).encode("utf-8")


def load_payload(data: bytes) -> Any:
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"undecodable record payload: {exc}") from exc
