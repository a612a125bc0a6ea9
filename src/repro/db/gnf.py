"""Graph normal form (GNF) validation — Section 2 of the paper.

GNF comprises two conditions:

1. *Indivisibility of facts* (6NF): for each k-ary relation, either all k
   columns are the key, or the first k−1 columns are the key. The first
   case models a set of composite keys; the second a function from keys to
   atomic values ("if there is a non-key column, it is the last one").
2. *Things, not strings* (unique identifiers): entities are represented by
   identifiers disjoint from values and unique across the database —
   enforced operationally by :class:`repro.model.EntityRegistry`.

This module checks condition (1) on concrete relation instances and
condition (2) on databases that use :class:`Entity` values.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from repro.model.relation import EMPTY, Relation, apply_delta
from repro.model.values import Entity


class GNFViolation(ValueError):
    """A relation instance violates graph normal form."""


def is_functional_relation(relation: Relation) -> bool:
    """Check the functional reading: first k−1 columns determine the last."""
    return relation.is_functional()


def gnf_violations(name: str, relation: Relation) -> List[str]:
    """All GNF condition-(1) problems of a relation instance.

    A relation passes if it is arity-homogeneous: a set of distinct tuples
    always has all columns as *a* key, and only a declared functional
    reading (:func:`check_functional`) can fail an instance.
    """
    problems: List[str] = []
    arities = relation.arities()
    if len(arities) > 1:
        problems.append(
            f"{name}: mixed arities {sorted(arities)} — a GNF relation stores "
            f"facts of one shape"
        )
    return problems


def check_gnf(name: str, relation: Relation) -> None:
    """Raise :class:`GNFViolation` if the relation breaks GNF condition (1)."""
    problems = gnf_violations(name, relation)
    if problems:
        raise GNFViolation("; ".join(problems))


def check_gnf_changes(changes: Mapping[str, Tuple[Relation, Relation]],
                      base: Mapping[str, Relation]) -> None:
    """GNF-check each relation as the net delta ``changes`` leaves it. Mixed
    arity is the one violation and the result lies inside ``old ∪ plus``:
    only if those mix arities is the result built and checked."""
    for name, (plus, minus) in changes.items():
        old = base.get(name, EMPTY)
        if len(old.arities() | plus.arities()) > 1:
            check_gnf(name, apply_delta(old, plus, minus))


def check_functional(name: str, relation: Relation) -> None:
    """Raise unless the first k−1 columns form a key (the FD reading)."""
    if not relation.is_functional():
        raise GNFViolation(
            f"{name}: first columns do not determine the last — not in 6NF "
            f"under the functional reading"
        )


def unique_identifier_violations(
    relations: Mapping[str, Relation]
) -> List[Tuple[object, str, str]]:
    """Condition (2): no identifier may serve two distinct concepts.

    Returns (key, namespace1, namespace2) witnesses where the same entity
    key appears under two namespaces across the database.
    """
    seen: Dict[object, str] = {}
    violations: List[Tuple[object, str, str]] = []
    for rel in relations.values():
        for tup in rel:
            for value in tup:
                if isinstance(value, Entity):
                    owner = seen.get(value.key)
                    if owner is None:
                        seen[value.key] = value.namespace
                    elif owner != value.namespace:
                        violations.append((value.key, owner, value.namespace))
    return violations


def wide_row_to_gnf(
    entity_column: int,
    column_names: Iterable[str],
    rows: Iterable[Tuple],
    relation_prefix: str = "",
) -> Dict[str, Relation]:
    """Decompose a wide (record-style) table into GNF relations.

    Each non-key column ``c`` becomes a binary relation ``<prefix><c>``
    mapping the entity identifier to that attribute value; rows with a
    missing (None) attribute simply omit the tuple — GNF needs no nulls
    (Section 2).
    """
    names = list(column_names)
    out: Dict[str, List[Tuple]] = {f"{relation_prefix}{c}": [] for i, c in
                                   enumerate(names) if i != entity_column}
    for row in rows:
        key = row[entity_column]
        for i, column in enumerate(names):
            if i == entity_column:
                continue
            value = row[i]
            if value is None:
                continue  # nulls disappear: the fact is simply absent
            out[f"{relation_prefix}{column}"].append((key, value))
    return {name: Relation(tuples) for name, tuples in out.items()}
