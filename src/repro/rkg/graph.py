"""The knowledge-graph API: GNF storage + Rel-defined semantics.

A :class:`KnowledgeGraph` models a domain as *concepts* (entity types) and
*relationships*, stored in graph normal form:

- each concept ``C`` has a unary relation ``C(entity)``;
- each attribute ``a`` of ``C`` has a binary relation ``C_a(entity, value)``
  (names follow the paper's ``ProductPrice`` convention: concept + attribute);
- each relationship has a relation over participating entities, plus at
  most one trailing value column.

Derived concepts and relationships are added as Rel source (the semantic
layer); queries are Rel expressions evaluated over base + derived relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api import Session
from repro.engine.program import EngineOptions, RelProgram
from repro.model.relation import EMPTY, Relation
from repro.model.values import Entity, EntityRegistry


@dataclass(frozen=True)
class Concept:
    """An entity type in the knowledge graph."""

    name: str
    attributes: Tuple[str, ...] = ()

    def attribute_relation(self, attribute: str) -> str:
        return f"{self.name}{attribute[0].upper()}{attribute[1:]}"


@dataclass(frozen=True)
class Relationship:
    """A relationship among concepts, with an optional value column."""

    name: str
    participants: Tuple[str, ...]
    value_column: Optional[str] = None


class KnowledgeGraph:
    """A relational knowledge graph: GNF data + Rel semantics.

    >>> kg = KnowledgeGraph()
    >>> _ = kg.concept("Person", ["name"])
    >>> _ = kg.relationship("Knows", ["Person", "Person"])
    >>> alice = kg.add_entity("Person", "alice", name="Alice")
    >>> bob = kg.add_entity("Person", "bob", name="Bob")
    >>> kg.relate("Knows", alice, bob)
    >>> kg.define("def FriendOfFriend(x, z) : exists((y) | Knows(x,y) and Knows(y,z))")
    >>> len(kg.query("FriendOfFriend"))
    0
    """

    def __init__(self, options: Optional[EngineOptions] = None) -> None:
        self.session = Session(options=options)
        #: Mints entities: the unique-identifier property of Section 2.
        self.entities = EntityRegistry()
        self.concepts: Dict[str, Concept] = {}
        self.relationships: Dict[str, Relationship] = {}
        self._derivations: List[str] = []
        self.options = options

    @property
    def database(self) -> Mapping[str, Relation]:
        """The stored relations: the session's read-only base mapping."""
        return self.session.database

    # -- schema ------------------------------------------------------------

    def concept(self, name: str, attributes: Sequence[str] = ()) -> Concept:
        """Declare a concept (entity type) with attribute names."""
        concept = Concept(name, tuple(attributes))
        self.concepts[name] = concept
        return concept

    def relationship(self, name: str, participants: Sequence[str],
                     value_column: Optional[str] = None) -> Relationship:
        """Declare a relationship among declared concepts."""
        for p in participants:
            if p not in self.concepts:
                raise ValueError(f"unknown concept {p!r}")
        rel = Relationship(name, tuple(participants), value_column)
        self.relationships[name] = rel
        return rel

    # -- data --------------------------------------------------------------

    def add_entity(self, concept: str, key: Any, **attributes: Any) -> Entity:
        """Mint an entity (unique-identifier property enforced) and store
        its membership and attribute facts."""
        if concept not in self.concepts:
            raise ValueError(f"unknown concept {concept!r}")
        spec = self.concepts[concept]
        unknown = set(attributes) - set(spec.attributes)
        if unknown:
            raise ValueError(f"unknown attributes {sorted(unknown)}")
        entity = self.entities.check(concept, key)
        # One write: an ``ic`` may tie membership to an attribute. The key
        # is claimed only once the write is stored.
        self.session._write_rows(
            [("insert", concept, Relation([(entity,)]))] + [
                ("insert", spec.attribute_relation(attr),
                 Relation([(entity, value)]))
                for attr, value in attributes.items()])
        return self.entities.mint(concept, key)

    def set_attribute(self, concept: str, entity: Entity, attribute: str,
                      value: Any) -> None:
        """Set (replace) a functional attribute fact."""
        spec = self.concepts[concept]
        name = spec.attribute_relation(attribute)
        old = [t for t in self.database.get(name, EMPTY) if t[0] == entity]
        # One write: no version shows the entity without a value.
        self.session._write_rows([
            ("delete", name, Relation(old)),
            ("insert", name, Relation([(entity, value)]))])

    def relate(self, relationship: str, *entities: Entity,
               value: Any = None) -> None:
        """Add a relationship fact."""
        spec = self.relationships.get(relationship)
        if spec is None:
            raise ValueError(f"unknown relationship {relationship!r}")
        if len(entities) != len(spec.participants):
            raise ValueError(
                f"{relationship} relates {len(spec.participants)} entities"
            )
        for entity, concept in zip(entities, spec.participants):
            if entity.namespace != concept:
                raise ValueError(
                    f"{entity!r} is a {entity.namespace}, expected {concept}"
                )
        tup = entities + ((value,) if spec.value_column is not None else ())
        self.session.insert(relationship, [tup])

    # -- semantics ---------------------------------------------------------

    def define(self, rel_source: str) -> None:
        """Add derived concepts/relationships as Rel source.

        Loaded straight into the session: updates only dirty the strata
        that depend on the touched relations."""
        self._derivations.append(rel_source)
        self.session.load(rel_source)

    def program(self) -> RelProgram:
        """Deprecated shim: the session's program (kept for callers of the
        pre-Session API; mutations now apply incrementally, so there is no
        rebuild-on-change)."""
        return self.session.program

    # -- queries ------------------------------------------------------------

    def query(self, source: str) -> Relation:
        """Evaluate a Rel expression or fetch a relation by name."""
        program = self.session.program
        if source in program.closures or source in self.database:
            return program.relation(source)
        return self.session.execute(source)

    def ask(self, source: str) -> bool:
        """Boolean query: is the result non-empty?"""
        return bool(self.query(source))

    def entities_of(self, concept: str) -> List[Entity]:
        """All entities of a concept."""
        return [t[0] for t in self.database.get(concept, EMPTY)]

    def attribute(self, concept: str, entity: Entity,
                  attribute: str) -> Optional[Any]:
        """The value of a functional attribute, or None if absent.

        GNF needs no nulls: a missing attribute is a missing tuple.
        """
        spec = self.concepts[concept]
        rel = self.database.get(spec.attribute_relation(attribute), EMPTY)
        for tup in rel:
            if tup[0] == entity:
                return tup[1]
        return None

    def neighbours(self, relationship: str, entity: Entity) -> List[Tuple]:
        """Tuples of a relationship mentioning the entity."""
        return [t for t in self.database.get(relationship, EMPTY)
                if entity in t]

    def statistics(self) -> Dict[str, int]:
        """Fact counts per stored relation."""
        return {name: len(rel) for name, rel in self.database.items()}
