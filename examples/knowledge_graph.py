#!/usr/bin/env python
"""Building a relational knowledge graph (Section 6).

Models a small enterprise domain — suppliers, parts, plants, shipments —
the RKG way:

1. concepts and relationships in **graph normal form** (each attribute its
   own relation; entities are "things, not strings" with globally unique
   identifiers);
2. the **semantic layer**: derived concepts and relationships written in
   Rel (risk categories, alternative sourcing, transitive dependencies);
3. **queries over the semantics**, not the storage: the application asks
   questions in domain vocabulary.

Also demonstrates the ER→GNF schema derivation of Section 2 on the paper's
own order/product/payment model.

Run:  python examples/knowledge_graph.py
"""

from repro.db.schema import derive_gnf_schema, paper_er_model
from repro.rkg import KnowledgeGraph


def build_graph() -> KnowledgeGraph:
    kg = KnowledgeGraph()
    kg.concept("Supplier", ["name", "country", "rating"])
    kg.concept("Part", ["name", "critical"])
    kg.concept("Plant", ["name", "city"])
    kg.relationship("Supplies", ["Supplier", "Part"], value_column="leadDays")
    kg.relationship("Consumes", ["Plant", "Part"])
    kg.relationship("Ships", ["Supplier", "Plant"])

    acme = kg.add_entity("Supplier", "acme", name="Acme", country="DE", rating=4)
    bolt = kg.add_entity("Supplier", "boltco", name="BoltCo", country="SG", rating=2)
    crane = kg.add_entity("Supplier", "crane", name="Crane", country="DE", rating=5)

    gear = kg.add_entity("Part", "gear", name="Gear", critical=True)
    bolts = kg.add_entity("Part", "bolt", name="Bolt", critical=False)
    axle = kg.add_entity("Part", "axle", name="Axle", critical=True)

    munich = kg.add_entity("Plant", "munich", name="Munich Works", city="Munich")
    austin = kg.add_entity("Plant", "austin", name="Austin Works", city="Austin")

    kg.relate("Supplies", acme, gear, value=14)
    kg.relate("Supplies", acme, bolts, value=3)
    kg.relate("Supplies", bolt, bolts, value=2)
    kg.relate("Supplies", crane, axle, value=21)
    kg.relate("Consumes", munich, gear)
    kg.relate("Consumes", munich, bolts)
    kg.relate("Consumes", austin, axle)
    kg.relate("Consumes", austin, bolts)
    kg.relate("Ships", acme, munich)
    kg.relate("Ships", bolt, austin)
    kg.relate("Ships", crane, austin)
    return kg


SEMANTIC_LAYER = """
    // A part is single-sourced if exactly one supplier provides it.
    def SourceCount[p in Part] : count[(s) : Supplies(s, p, _)] <++ 0
    def SingleSourced(p) : SourceCount(p, 1)

    // Risk: a critical part that is single-sourced, or sourced only from
    // low-rated suppliers.
    def LowRatedOnly(p) : Part(p) and
        forall((s) | Supplies(s, p, _) implies
                     exists((r) | SupplierRating(s, r) and r < 3))
    def AtRisk(p) : PartCritical(p, true) and SingleSourced(p)
    def AtRisk(p) : PartCritical(p, true) and LowRatedOnly(p)

    // A plant depends on a supplier if it consumes a part they supply.
    def DependsOn(plant, s) :
        exists((p) | Consumes(plant, p) and Supplies(s, p, _))

    // Plants exposed to risk through the parts they consume.
    def ExposedPlant(plant, p) : Consumes(plant, p) and AtRisk(p)

    // Fastest procurement option per part.
    def BestLead[p in Part] : min[(s, d) : Supplies(s, p, d)] <++ 999
"""


def main() -> None:
    print("== Section 2: deriving the paper's GNF schema from its ER model ==")
    schema = derive_gnf_schema(paper_er_model())
    for name, spec in sorted(schema.items()):
        value = spec.value_column or "—"
        print(f"  {name}({', '.join(spec.key_columns)} | {value})")

    print("\n== Building the supply-domain knowledge graph ==")
    kg = build_graph()
    for name, count in sorted(kg.statistics().items()):
        print(f"  {name}: {count} facts")

    print("\n== GNF in action: no nulls, unique identifiers ==")
    crane = kg.entities.lookup("Supplier", "crane")
    print(f"  crane's rating: {kg.attribute('Supplier', crane, 'rating')}")
    try:
        kg.add_entity("Part", "crane", name="Crane-shaped part")
    except ValueError as exc:
        print(f"  reusing 'crane' as a Part id is rejected: {exc}")

    print("\n== The semantic layer (all Rel) ==")
    kg.define(SEMANTIC_LAYER)
    at_risk = [kg.attribute("Part", t[0], "name")
               for t in kg.query("AtRisk").sorted_tuples()]
    print(f"  parts at risk: {sorted(at_risk)}")

    exposed = sorted(
        (kg.attribute("Plant", plant, "name"),
         kg.attribute("Part", part, "name"))
        for plant, part in kg.query("ExposedPlant").tuples
    )
    print(f"  exposed plants: {exposed}")

    print("\n== Queries in domain vocabulary ==")
    print("  does Munich depend on Acme?",
          kg.ask('(p, s) : DependsOn(p, s) and PlantName(p, "Munich Works") '
                 'and SupplierName(s, "Acme")'))
    counts = {
        kg.attribute("Part", p, "name"): n
        for p, n in kg.query("SourceCount").tuples
    }
    print(f"  source counts: {dict(sorted(counts.items()))}")
    leads = {
        kg.attribute("Part", p, "name"): d
        for p, d in kg.query("BestLead").tuples
    }
    print(f"  best lead days: {dict(sorted(leads.items()))}")
    print("\nDone.")


if __name__ == "__main__":
    main()
