"""The relational knowledge graph layer (Section 6)."""

import pytest

from repro.rkg import KnowledgeGraph


@pytest.fixture
def kg():
    kg = KnowledgeGraph()
    kg.concept("Person", ["name", "age"])
    kg.concept("Company", ["name", "sector"])
    kg.relationship("WorksFor", ["Person", "Company"])
    kg.relationship("Knows", ["Person", "Person"])
    kg.relationship("Salary", ["Person", "Company"], value_column="amount")
    alice = kg.add_entity("Person", "alice", name="Alice", age=31)
    bob = kg.add_entity("Person", "bob", name="Bob", age=45)
    carol = kg.add_entity("Person", "carol", name="Carol")
    acme = kg.add_entity("Company", "acme", name="Acme", sector="tools")
    kg.relate("WorksFor", alice, acme)
    kg.relate("WorksFor", bob, acme)
    kg.relate("Knows", alice, bob)
    kg.relate("Knows", bob, carol)
    kg.relate("Salary", alice, acme, value=100)
    return kg


class TestSchema:
    def test_unknown_concept_rejected(self, kg):
        with pytest.raises(ValueError, match="unknown concept"):
            kg.relationship("Bad", ["Nope"])

    def test_unknown_attribute_rejected(self, kg):
        with pytest.raises(ValueError, match="unknown attributes"):
            kg.add_entity("Person", "dora", height=180)

    def test_attribute_relation_naming(self, kg):
        """GNF naming: concept + attribute, as in ProductPrice."""
        assert "PersonName" in kg.database
        assert "PersonAge" in kg.database


class TestData:
    def test_unique_identifier_enforced(self, kg):
        with pytest.raises(ValueError, match="unique identifier"):
            kg.add_entity("Company", "alice", name="Evil Corp")

    def test_missing_attribute_is_absent_not_null(self, kg):
        """Carol has no age: no tuple, no null (Section 2)."""
        carol = kg.entities.lookup("Person", "carol")
        assert kg.attribute("Person", carol, "age") is None
        assert len(kg.database["PersonAge"]) == 2

    def test_relationship_type_checked(self, kg):
        alice = kg.entities.lookup("Person", "alice")
        with pytest.raises(ValueError, match="expected Company"):
            kg.relate("WorksFor", alice, alice)

    def test_relationship_arity_checked(self, kg):
        alice = kg.entities.lookup("Person", "alice")
        with pytest.raises(ValueError, match="relates 2"):
            kg.relate("Knows", alice)

    def test_valued_relationship(self, kg):
        alice = kg.entities.lookup("Person", "alice")
        rows = kg.neighbours("Salary", alice)
        assert len(rows) == 1 and rows[0][-1] == 100

    def test_set_attribute_replaces(self, kg):
        alice = kg.entities.lookup("Person", "alice")
        kg.set_attribute("Person", alice, "age", 32)
        assert kg.attribute("Person", alice, "age") == 32
        assert len([t for t in kg.database["PersonAge"] if t[0] == alice]) == 1

    def test_writes_are_atomic(self, kg):
        """Each method commits once, so a constraint tying a person to
        their name holds at every step and every version shows both."""
        kg.define("ic named(x) requires "
                  "Person(x) implies exists((n) | PersonName(x, n))")
        version = kg.session.version
        dora = kg.add_entity("Person", "dora", name="Dora", age=28)
        assert kg.session.version == version + 1
        kg.set_attribute("Person", dora, "name", "Dorothy")
        assert kg.session.version == version + 2
        assert kg.attribute("Person", dora, "name") == "Dorothy"
        assert kg.entities_of("Company") and not kg.entities_of("Nobody")

    def test_refused_write_claims_no_key(self):
        """A write a constraint refuses stores nothing, and so mints
        nothing: its key stays free for another concept."""
        from repro import ConstraintViolation

        kg = KnowledgeGraph()
        kg.concept("Person", ["name"])
        kg.concept("Company", ["name"])
        kg.define("ic named(x) requires "
                  "Person(x) implies exists((n) | PersonName(x, n))")
        with pytest.raises(ConstraintViolation):
            kg.add_entity("Person", "alice")
        assert kg.entities_of("Person") == []
        assert kg.entities.lookup("Person", "alice") is None
        acme = kg.add_entity("Company", "alice", name="A")
        assert kg.entities_of("Company") == [acme]
        assert kg.entities.lookup("Company", "alice") == acme
        with pytest.raises(ValueError, match="already identifies"):
            kg.add_entity("Person", "alice", name="Alice")


class TestDerivedSemantics:
    def test_derived_relationship(self, kg):
        kg.define(
            "def Colleague(x, y) : exists((c) | WorksFor(x, c) "
            "and WorksFor(y, c)) and x != y"
        )
        assert len(kg.query("Colleague")) == 2  # alice-bob both directions

    def test_recursive_derivation(self, kg):
        kg.define(
            """
            def Connected(x, y) : Knows(x, y)
            def Connected(x, z) : exists((y) | Connected(x, y) and Knows(y, z))
            """
        )
        alice = kg.entities.lookup("Person", "alice")
        carol = kg.entities.lookup("Person", "carol")
        assert (alice, carol) in kg.query("Connected")

    def test_derivations_compose(self, kg):
        kg.define("def Senior(p) : exists((a) | PersonAge(p, a) and a > 40)")
        kg.define("def SeniorColleagueOf(x, y) : Senior(y) and "
                  "exists((c) | WorksFor(x, c) and WorksFor(y, c)) and x != y")
        assert len(kg.query("SeniorColleagueOf")) == 1

    def test_ask(self, kg):
        kg.define("def AnyoneOver40(p) : exists((a) | PersonAge(p, a) and a > 40)")
        assert kg.ask("AnyoneOver40")
        assert not kg.ask("(p) : exists((a) | PersonAge(p, a) and a > 99)")

    def test_query_expression_over_graph(self, kg):
        got = kg.query("(n) : exists((p, c) | WorksFor(p, c) and PersonName(p, n))")
        assert {t[0] for t in got.tuples} == {"Alice", "Bob"}


class TestIntrospection:
    def test_entities_of(self, kg):
        assert len(kg.entities_of("Person")) == 3
        assert len(kg.entities_of("Company")) == 1

    def test_statistics(self, kg):
        stats = kg.statistics()
        assert stats["Person"] == 3
        assert stats["Knows"] == 2

    def test_program_invalidated_on_updates(self, kg):
        kg.define("def People(p) : Person(p)")
        assert len(kg.query("People")) == 3
        kg.add_entity("Person", "dave", name="Dave")
        assert len(kg.query("People")) == 4
