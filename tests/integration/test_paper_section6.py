"""Section 6 — relational knowledge graphs as an application architecture.

The paper's claim: RKG = relational model + GNF + Rel for derived concepts,
subsuming what RDF/property-graph stacks provide — higher-arity relations,
view definitions, and integrated reasoning.
"""

import pytest

from repro import Relation
from repro.rkg import KnowledgeGraph


@pytest.fixture
def movie_graph():
    """A small higher-arity domain: castings are ternary facts."""
    kg = KnowledgeGraph()
    kg.concept("Person", ["name"])
    kg.concept("Movie", ["title", "year"])
    kg.concept("Role", ["label"])
    kg.relationship("CastIn", ["Person", "Movie", "Role"])
    kg.relationship("Directed", ["Person", "Movie"])

    keanu = kg.add_entity("Person", "keanu", name="Keanu")
    carrie = kg.add_entity("Person", "carrie", name="Carrie-Anne")
    lana = kg.add_entity("Person", "lana", name="Lana")
    matrix = kg.add_entity("Movie", "matrix", title="The Matrix", year=1999)
    jw = kg.add_entity("Movie", "jw", title="John Wick", year=2014)
    neo = kg.add_entity("Role", "neo", label="Neo")
    trinity = kg.add_entity("Role", "trinity", label="Trinity")
    wick = kg.add_entity("Role", "wick", label="John Wick")

    kg.relate("CastIn", keanu, matrix, neo)
    kg.relate("CastIn", carrie, matrix, trinity)
    kg.relate("CastIn", keanu, jw, wick)
    kg.relate("Directed", lana, matrix)
    return kg


class TestHigherArityRelations:
    def test_ternary_relationship_stored_directly(self, movie_graph):
        """RKGs capture higher-arity relations natively — no reification
        into binary triples as RDF would need."""
        assert len(movie_graph.database["CastIn"]) == 3
        assert movie_graph.database["CastIn"].arity == 3

    def test_query_over_ternary(self, movie_graph):
        got = movie_graph.query(
            '(t) : exists((p, m, r) | CastIn(p, m, r) and '
            'PersonName(p, "Keanu") and MovieTitle(m, t))'
        )
        assert {t[0] for t in got.tuples} == {"The Matrix", "John Wick"}


class TestViewDefinitions:
    def test_derived_relationship_accumulates_knowledge(self, movie_graph):
        """View definitions — the feature the paper says GQL/SPARQL lack."""
        movie_graph.define(
            """
            def ActedIn(p, m) : CastIn(p, m, _)
            def CoStar(x, y) : exists((m) | ActedIn(x, m) and ActedIn(y, m))
                               and x != y
            def Collaborated(x, y) : CoStar(x, y)
            def Collaborated(x, y) :
                exists((m) | Directed(x, m) and ActedIn(y, m))
            """
        )
        keanu = movie_graph.entities.lookup("Person", "keanu")
        carrie = movie_graph.entities.lookup("Person", "carrie")
        lana = movie_graph.entities.lookup("Person", "lana")
        co = set(movie_graph.query("CoStar").tuples)
        assert (keanu, carrie) in co and (carrie, keanu) in co
        collab = set(movie_graph.query("Collaborated").tuples)
        assert (lana, keanu) in collab

    def test_views_compose_with_aggregation(self, movie_graph):
        movie_graph.define(
            """
            def ActedIn(p, m) : CastIn(p, m, _)
            def Filmography[p in Person] : count[ActedIn[p]] <++ 0
            """
        )
        keanu = movie_graph.entities.lookup("Person", "keanu")
        lana = movie_graph.entities.lookup("Person", "lana")
        films = dict(movie_graph.query("Filmography").tuples)
        assert films[keanu] == 2
        assert films[lana] == 0


class TestReasonerIntegration:
    def test_rule_based_reasoning_over_the_graph(self, movie_graph):
        """Derived concepts computed by the rule reasoner (the paper's
        point: symbolic reasoners express directly in Rel)."""
        movie_graph.define(
            """
            def ActedIn(p, m) : CastIn(p, m, _)
            def Prolific(p) : exists((n) |
                n = count[ActedIn[p]] and n >= 2)
            """
        )
        keanu = movie_graph.entities.lookup("Person", "keanu")
        assert movie_graph.query("Prolific") == Relation([(keanu,)])

    def test_boolean_questions(self, movie_graph):
        assert movie_graph.ask(
            '(m) : exists((y) | MovieYear(m, y) and y < 2000)'
        )
        assert not movie_graph.ask(
            '(m) : exists((y) | MovieYear(m, y) and y > 2020)'
        )


class TestGNFDiscipline:
    def test_attributes_are_separate_relations(self, movie_graph):
        assert "MovieTitle" in movie_graph.database
        assert "MovieYear" in movie_graph.database
        assert movie_graph.database["MovieTitle"].is_functional()

    def test_entities_disjoint_across_concepts(self, movie_graph):
        with pytest.raises(ValueError, match="unique identifier"):
            movie_graph.add_entity("Movie", "keanu", title="Keanu (2016)")
