"""The database: named base relations with optional GNF enforcement."""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.db.gnf import check_gnf
from repro.model.relation import EMPTY, Relation
from repro.model.values import EntityRegistry


class Database:
    """A set of named base relations (the EDB).

    With ``enforce_gnf=True``, every installed relation must satisfy the 6NF
    key condition of graph normal form (Section 2): either all columns form
    the key, or all but the last do. The unique-identifier property is
    available through the attached :class:`EntityRegistry` for applications
    that model entities as :class:`repro.model.Entity` values.
    """

    def __init__(self, relations: Optional[Mapping[str, Relation]] = None,
                 *, enforce_gnf: bool = False) -> None:
        self.enforce_gnf = enforce_gnf
        self.entities = EntityRegistry()
        self._relations: Dict[str, Relation] = {}
        for name, rel in (relations or {}).items():
            self.install(name, rel)

    # -- access -----------------------------------------------------------

    def __getitem__(self, name: str) -> Relation:
        return self._relations.get(name, EMPTY)

    def get(self, name: str, default: Relation = EMPTY) -> Relation:
        return self._relations.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._relations))

    def items(self) -> Iterator[Tuple[str, Relation]]:
        # sorted() materializes the listing before the first yield, so the
        # generator is safe to hold outside the session lock.
        yield from sorted(self._relations.items())

    def as_mapping(self) -> Dict[str, Relation]:
        return dict(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    # -- updates ------------------------------------------------------------

    def install(self, name: str, relation: Relation) -> None:
        """Install (replace) a base relation, validating GNF if enforced.

        There is no need to declare relations beforehand — installing a new
        name creates it on the spot (Section 3.4).

        A non-:class:`Relation` value (a list of tuples, a generator) is
        materialized into a fresh Relation *here*, at the ingest boundary:
        storing the caller's object as-is would alias their mutable data
        into the database, so a later ``rows.append(...)`` on their side
        silently changed what queries saw — and broke the immutability
        every snapshot, delta, and checkpoint capture depends on.
        """
        if not isinstance(relation, Relation):
            relation = Relation(relation)
        if self.enforce_gnf:
            check_gnf(name, relation)
        self._relations[name] = relation

    def update(self, relations: Mapping[str, Relation]) -> None:
        """Install relations a commit step has already GNF-checked."""
        self._relations.update(relations)

    def insert(self, name: str, tuples) -> None:
        """Insert tuples into a base relation (creating it if absent)."""
        updated = self.get(name).union(Relation(tuples))
        self.install(name, updated)

    def delete(self, name: str, tuples) -> None:
        """Delete tuples from a base relation."""
        if name not in self._relations:
            return
        updated = self._relations[name].difference(Relation(tuples))
        self._relations[name] = updated

    def drop(self, name: str) -> None:
        self._relations.pop(name, None)

    def copy(self) -> "Database":
        clone = Database(enforce_gnf=self.enforce_gnf)
        clone._relations = dict(self._relations)
        clone.entities = self.entities
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{n}({len(r)})" for n, r in self.items())
        return f"Database[{parts}]"
