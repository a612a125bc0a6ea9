"""Relational Knowledge Graphs (Section 6 of the paper).

An RKG combines (1) the relational data model, (2) graph normal form, and
(3) Rel as the language for derived concepts and application semantics.
This package provides:

- :class:`KnowledgeGraph` — concepts (entity types), attributes, and
  relationships stored in GNF as a :class:`repro.Session`'s base relations,
  with the unique-identifier property enforced via the graph's entity
  registry;
- derived concepts and relationships *defined in Rel*, evaluated by the
  engine (the "semantic layer" of Section 6);
- a rule-based reasoner API: ask/derive/explain over the graph.
"""

from repro.rkg.graph import Concept, KnowledgeGraph, Relationship

__all__ = ["Concept", "KnowledgeGraph", "Relationship"]
