"""B3 — GNF (6NF) vs. wide-table modeling (Section 2).

Paper claim: GNF's benefits include null-freedom and semantic stability —
updating one attribute touches one fact, and optional attributes cost
nothing. This bench compares a GNF database against a wide-row layout on:

- single-attribute update cost (GNF: one binary relation; wide: rewrite the
  row in the single big relation);
- storage for sparse/optional attributes (GNF stores only present facts).

Expected shape: GNF updates touch an order of magnitude fewer cells; GNF
storage tracks the number of *facts*, the wide table the number of *rows ×
columns*.
"""

import pytest

from repro import Relation, connect
from repro.db.gnf import wide_row_to_gnf

N_ENTITIES = 400
ATTRIBUTES = ["a", "b", "c", "d", "e", "f", "g", "h"]
PRESENT_FRACTION = 0.3  # sparse optional attributes


#: The wide table must *store* a placeholder for every absent value —
#: exactly the nulls GNF does away with. Rel relations have no null, so the
#: wide-row baseline uses an explicit sentinel.
NULL = "\0NULL"


def make_wide_rows():
    rows = []
    for i in range(N_ENTITIES):
        row = [f"E{i}"]
        for j, _ in enumerate(ATTRIBUTES):
            present = (i * 7 + j) % 10 < PRESENT_FRACTION * 10
            row.append(i * 100 + j if present else NULL)
        rows.append(tuple(row))
    return rows


WIDE_ROWS = make_wide_rows()


def build_gnf():
    gnf_rows = [tuple(None if v == NULL else v for v in row)
                for row in WIDE_ROWS]
    relations = wide_row_to_gnf(0, ["id"] + ATTRIBUTES, gnf_rows, "T")
    return connect(relations, load_stdlib=False)


def build_wide():
    return connect({"T": Relation(WIDE_ROWS)}, load_stdlib=False)


def update_gnf(db):
    """Set attribute 'a' of 50 entities: one binary relation is touched."""
    target = db.database["Ta"]
    for i in range(50):
        key = f"E{i}"
        old = [t for t in target if t[0] == key]
        db.delete("Ta", old)
        db.insert("Ta", [(key, -1)])
    return db


def update_wide(db):
    """The same update against the wide table: whole rows are rewritten."""
    table = db.database["T"]
    for i in range(50):
        key = f"E{i}"
        old_rows = [t for t in table if t[0] == key]
        db.delete("T", old_rows)
        db.insert("T", [(key, -1) + t[2:] for t in old_rows])
        table = db.database["T"]
    return db


def test_gnf_update(benchmark):
    db = build_gnf()
    benchmark(update_gnf, db)


def test_wide_update(benchmark):
    db = build_wide()
    benchmark(update_wide, db)


def test_gnf_build(benchmark):
    benchmark(build_gnf)


def test_wide_build(benchmark):
    benchmark(build_wide)


def test_shape_gnf_stores_only_facts():
    """Null cells vanish: GNF fact count ≈ present values, the wide table
    stores every cell (as None placeholders)."""
    gnf = build_gnf()
    facts = sum(len(rel) for rel in gnf.database.values())
    wide_cells = N_ENTITIES * len(ATTRIBUTES)
    present = sum(
        1 for row in WIDE_ROWS for v in row[1:] if v != NULL
    )
    assert facts == present
    assert facts < 0.5 * wide_cells  # the sparsity pays off


def test_shape_gnf_update_touches_fewer_cells():
    """An attribute update rewrites 1 fact in GNF vs. a full row wide."""
    gnf_cells_touched = 2          # delete one pair, insert one pair
    wide_cells_touched = 2 * (1 + len(ATTRIBUTES))  # full row out + in
    assert wide_cells_touched >= 4 * gnf_cells_touched
