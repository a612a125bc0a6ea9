"""The Relation data structure: algebra, application support, invariants."""

import pytest

from repro.model import EMPTY, FALSE, TRUE, UNIT, Relation, RelationError, relation, singleton


class TestConstruction:
    def test_empty(self):
        assert len(Relation()) == 0
        assert not Relation()

    def test_dedupe_on_construction(self):
        assert len(Relation([(1, 2), (1, 2)])) == 1

    def test_mixed_arity_allowed(self):
        rel = Relation([(1,), (1, 2), ()])
        assert rel.arities() == {0, 1, 2}

    def test_rejects_raw_collections(self):
        with pytest.raises(RelationError):
            Relation([(1, [2, 3])])

    def test_rejects_non_values(self):
        with pytest.raises(RelationError):
            Relation([(object(),)])

    def test_nested_relations_allowed(self):
        """Second-order tuples: relations as tuple elements (Rels2)."""
        inner = Relation([(1, 2)])
        outer = Relation([(inner, 5)])
        assert (inner, 5) in outer


class TestBooleans:
    def test_true_false_encoding(self):
        """Section 4.3: true = {⟨⟩}, false = {}."""
        assert TRUE.to_bool() is True
        assert FALSE.to_bool() is False
        assert TRUE.is_boolean() and FALSE.is_boolean()
        assert not Relation([(1,)]).is_boolean()

    def test_unit_is_product_identity(self):
        r = Relation([(1, 2), (3, 4)])
        assert r.product(UNIT) == r
        assert UNIT.product(r) == r

    def test_empty_annihilates_product(self):
        r = Relation([(1, 2)])
        assert r.product(EMPTY) == EMPTY
        assert EMPTY.product(r) == EMPTY


class TestAlgebra:
    def test_union(self):
        a = relation((1,), (2,))
        b = relation((2,), (3,))
        assert a.union(b) == relation((1,), (2,), (3,))

    def test_intersect(self):
        a = relation((1,), (2,))
        b = relation((2,), (3,))
        assert a.intersect(b) == relation((2,))

    def test_difference(self):
        a = relation((1,), (2,))
        b = relation((2,),)
        assert a.difference(b) == relation((1,))

    def test_product_concatenates(self):
        a = relation((1, 2))
        b = relation((3,))
        assert a.product(b) == relation((1, 2, 3))

    def test_product_of_mixed_arities(self):
        a = Relation([(1,), (2, 3)])
        b = Relation([(9,)])
        assert a.product(b) == Relation([(1, 9), (2, 3, 9)])


class TestApplication:
    def test_prefix_suffixes(self):
        opq = relation(("O1", "P1", 2), ("O1", "P2", 1), ("O2", "P1", 1))
        assert opq.suffixes_for_prefix_value("O1") == relation(("P1", 2), ("P2", 1))

    def test_prefix_multiple(self):
        opq = relation(("O1", "P1", 2), ("O1", "P2", 1))
        assert opq.suffixes_for_prefix(("O1", "P1")) == relation((2,))

    def test_all_suffixes(self):
        r = relation((1, 2))
        assert r.all_suffixes() == Relation([(1, 2), (2,), ()])


class TestConveniences:
    def test_project(self):
        r = relation((1, 2, 3), (4, 5, 6))
        assert r.project([0, 2]) == relation((1, 3), (4, 6))

    def test_project_drops_short_tuples(self):
        r = Relation([(1,), (1, 2, 3)])
        assert r.project([2]) == relation((3,))

    def test_select(self):
        r = relation((1,), (2,), (3,))
        assert r.select(lambda t: t[0] > 1) == relation((2,), (3,))

    def test_column(self):
        r = relation((1, "x"), (2, "y"))
        assert r.column(1) == {"x", "y"}

    def test_last_column_values_keeps_multiplicity_across_keys(self):
        """Section 5.2: set semantics still sums duplicate values under
        different keys — reduce consumes whole tuples."""
        r = relation(("Pmt2", 10), ("Pmt3", 10))
        assert sorted(r.last_column_values()) == [10, 10]

    def test_is_functional(self):
        assert relation((1, "a"), (2, "b")).is_functional()
        assert not relation((1, "a"), (1, "b")).is_functional()

    def test_arity_unique(self):
        assert relation((1, 2)).arity == 2
        with pytest.raises(RelationError):
            Relation([(1,), (1, 2)]).arity


class TestEquality:
    def test_value_semantics(self):
        assert relation((1, 2)) == relation((1, 2))
        assert hash(relation((1, 2))) == hash(relation((1, 2)))

    def test_sorted_tuples_deterministic(self):
        r = Relation([(2,), (1,), (1, 0)])
        assert r.sorted_tuples() == [(1,), (2,), (1, 0)]
