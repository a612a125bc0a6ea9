"""Classical binary join algorithms over column-named tuple sets.

These operate on plain Python data: a *relation* is an iterable of tuples
plus a tuple of column names. They form the baseline against which the
worst-case optimal join is measured (benchmark B2), mirroring the paper's
claim that WCOJ algorithms are what make many-joins GNF practical.

Both algorithms key their joins on :func:`repro.model.values.sort_key`,
the engine's value semantics: ``1`` and ``1.0`` join (numeric equality),
``True`` and ``1`` do not (booleans are a distinct sort). This keeps
``hash_join`` and ``nested_loop_join`` in exact agreement with each other
and with the leapfrog triejoin.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.model.values import sort_key

Row = Tuple[Any, ...]


def _common_columns(cols_a: Sequence[str], cols_b: Sequence[str]) -> List[str]:
    return [c for c in cols_a if c in cols_b]


def _key_at(row: Row, indices: Sequence[int]) -> Tuple[Any, ...]:
    """Value-semantics join key for the given positions of one row."""
    return tuple(sort_key(row[i]) for i in indices)


def hash_join(rows_a: Iterable[Row], cols_a: Sequence[str],
              rows_b: Iterable[Row], cols_b: Sequence[str]
              ) -> Tuple[List[Row], Tuple[str, ...]]:
    """Natural hash join on shared column names.

    Builds a hash table on the smaller input side's join key, probes with
    the other side. Output columns: ``cols_a`` followed by ``cols_b``'s
    non-shared columns.
    """
    rows_a = list(rows_a)
    rows_b = list(rows_b)
    shared = _common_columns(cols_a, cols_b)
    ia = [list(cols_a).index(c) for c in shared]
    ib = [list(cols_b).index(c) for c in shared]
    rest_b = [i for i, c in enumerate(cols_b) if c not in shared]
    out_cols = tuple(cols_a) + tuple(cols_b[i] for i in rest_b)

    if not shared:  # degenerate: Cartesian product
        out = [a + tuple(b[i] for i in rest_b) for a in rows_a for b in rows_b]
        return out, out_cols

    build_left = len(rows_a) <= len(rows_b)
    build_rows, build_idx = (rows_a, ia) if build_left else (rows_b, ib)
    probe_rows, probe_idx = (rows_b, ib) if build_left else (rows_a, ia)

    table: Dict[Tuple[Any, ...], List[Row]] = {}
    for row in build_rows:
        table.setdefault(_key_at(row, build_idx), []).append(row)

    out: List[Row] = []
    for row in probe_rows:
        key = _key_at(row, probe_idx)
        for match in table.get(key, ()):
            a, b = (match, row) if build_left else (row, match)
            out.append(a + tuple(b[i] for i in rest_b))
    return out, out_cols


def nested_loop_join(rows_a: Iterable[Row], cols_a: Sequence[str],
                     rows_b: Iterable[Row], cols_b: Sequence[str]
                     ) -> Tuple[List[Row], Tuple[str, ...]]:
    """Naive nested-loop natural join (for testing and tiny inputs)."""
    rows_a = list(rows_a)
    rows_b = list(rows_b)
    shared = _common_columns(cols_a, cols_b)
    ia = [list(cols_a).index(c) for c in shared]
    ib = [list(cols_b).index(c) for c in shared]
    rest_b = [i for i, c in enumerate(cols_b) if c not in shared]
    out_cols = tuple(cols_a) + tuple(cols_b[i] for i in rest_b)
    out: List[Row] = []
    for a in rows_a:
        for b in rows_b:
            if all(sort_key(a[x]) == sort_key(b[y]) for x, y in zip(ia, ib)):
                out.append(a + tuple(b[i] for i in rest_b))
    return out, out_cols
