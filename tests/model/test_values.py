"""Value sorts: entities, symbols, ordering, and the unique-id registry."""

import pytest

from repro.model import (
    Entity,
    EntityRegistry,
    Symbol,
    UnknownValueError,
    sort_key,
    type_rank,
)
from repro.model.values import value_repr


class TestSymbol:
    def test_equality(self):
        assert Symbol("Foo") == Symbol("Foo")
        assert Symbol("Foo") != Symbol("Bar")

    def test_repr(self):
        assert repr(Symbol("ClosedOrders")) == ":ClosedOrders"

    def test_hashable(self):
        assert len({Symbol("a"), Symbol("a"), Symbol("b")}) == 2


class TestEntity:
    def test_equality_needs_namespace_and_key(self):
        assert Entity("Product", 1) == Entity("Product", 1)
        assert Entity("Product", 1) != Entity("Order", 1)
        assert Entity("Product", 1) != Entity("Product", 2)

    def test_disjoint_from_values(self):
        """GNF: identifiers are disjoint from values."""
        assert Entity("Product", 1) != 1
        assert Entity("Product", "P1") != "P1"


class TestEntityRegistry:
    def test_mint_is_idempotent(self):
        reg = EntityRegistry()
        a = reg.mint("Product", "P1")
        b = reg.mint("Product", "P1")
        assert a is b

    def test_unique_identifier_property(self):
        """Section 2: disjoint concepts must not share identifiers."""
        reg = EntityRegistry()
        reg.mint("Product", "X1")
        with pytest.raises(ValueError, match="unique identifier"):
            reg.mint("Order", "X1")

    def test_non_strict_mode_allows_sharing(self):
        reg = EntityRegistry(strict=False)
        reg.mint("Product", "X1")
        reg.mint("Order", "X1")  # no error
        assert len(reg) == 2

    def test_lookup_and_namespace(self):
        reg = EntityRegistry()
        ent = reg.mint("Product", "P1")
        assert reg.lookup("Product", "P1") is ent
        assert reg.lookup("Order", "P1") is None

    def test_enumeration_by_namespace(self):
        reg = EntityRegistry()
        reg.mint("Product", "P1")
        reg.mint("Product", "P2")
        reg.mint("Order", "O1")
        assert len(list(reg.entities("Product"))) == 2
        assert len(list(reg.entities())) == 3


class TestOrdering:
    def test_type_ranks_are_total(self):
        values = [True, 3, 2.5, "s", Symbol("x"), Entity("P", 1)]
        ranks = [type_rank(v) for v in values]
        assert ranks == sorted(ranks)

    def test_sort_key_orders_mixed_values(self):
        values = ["b", 2, Entity("P", 1), 1, "a", Symbol("z"), False]
        ordered = sorted(values, key=sort_key)
        # booleans, then numbers, then strings, then symbols, then entities
        assert ordered[0] is False
        assert ordered[1:3] == [1, 2]
        assert ordered[3:5] == ["a", "b"]
        assert isinstance(ordered[5], Symbol)
        assert isinstance(ordered[6], Entity)

    def test_numbers_compare_numerically(self):
        assert sorted([2.5, 1, 3], key=sort_key) == [1, 2.5, 3]

    def test_unknown_value_rejected(self):
        with pytest.raises(UnknownValueError):
            type_rank(object())


class TestValueRepr:
    def test_strings_quoted(self):
        assert value_repr("O1") == '"O1"'

    def test_booleans_lowercase(self):
        assert value_repr(True) == "true"
        assert value_repr(False) == "false"

    def test_integral_floats_keep_point(self):
        assert value_repr(1.0) == "1.0"
