"""Value semantics of the Relation container: True ≠ 1, 1 == 1.0.

Python's ``==`` (and so ``set``/``frozenset``) identifies ``True`` with
``1``; the Rel data model keeps the Boolean sort disjoint from the numbers
while identifying ``1`` with ``1.0``. The container keys its storage and
set algebra on :func:`repro.model.relation.row_key`, matching the join
layer's row identity — the prerequisite for computing update deltas by set
difference.
"""

from repro.joins import planner
from repro.model import Relation, relation, row_key


class TestRowKey:
    def test_booleans_are_tagged(self):
        assert row_key((True,)) != row_key((1,))
        assert row_key((False,)) != row_key((0,))

    def test_numeric_equality_collapses(self):
        assert row_key((1,)) == row_key((1.0,))
        assert hash(row_key((1,))) == hash(row_key((1.0,)))

    def test_plain_tuples_key_as_themselves(self):
        assert row_key((1, "a")) == (1, "a")

    def test_planner_row_key_shares_the_key_space(self):
        assert planner.row_key((1, 2.0)) == row_key((1, 2))
        assert planner.row_key((True,)) == row_key((True,))
        assert planner.row_key((True,)) != row_key((1,))


class TestStorage:
    def test_bool_and_int_are_distinct_rows(self):
        rel = Relation([(1,), (True,)])
        assert len(rel) == 2
        assert (1,) in rel and (True,) in rel

    def test_int_and_float_collapse(self):
        assert len(Relation([(1,), (1.0,)])) == 1

    def test_iteration_preserves_all_rows(self):
        rel = Relation([(0,), (False,), (1,), (True,)])
        assert len(list(rel)) == 4
        assert len(list(rel.rows())) == 4
        assert len(rel.sorted_tuples()) == 4

    def test_mixed_rows_in_wider_tuples(self):
        rel = Relation([(1, True), (1, 1), (True, 1)])
        assert len(rel) == 3


class TestEquality:
    def test_bool_vs_int_relations_differ(self):
        assert Relation([(1,)]) != Relation([(True,)])
        assert Relation([(0,)]) != Relation([(False,)])

    def test_int_vs_float_relations_equal(self):
        assert Relation([(1,)]) == Relation([(1.0,)])
        assert hash(Relation([(1,)])) == hash(Relation([(1.0,)]))

    def test_nested_relations_follow_value_semantics(self):
        assert Relation([(Relation([(1,)]), 5)]) != \
            Relation([(Relation([(True,)]), 5)])
        assert Relation([(Relation([(1,)]), 5)]) == \
            Relation([(Relation([(1.0,)]), 5)])


class TestAlgebra:
    def test_union_keeps_bools_distinct(self):
        got = Relation([(1,)]).union(Relation([(True,)]))
        assert len(got) == 2

    def test_difference_respects_value_semantics(self):
        assert Relation([(True,)]).difference(Relation([(1,)])) == \
            Relation([(True,)])
        assert Relation([(1,)]).difference(Relation([(1.0,)])) == Relation()

    def test_difference_by_a_smaller_relation_respects_value_semantics(self):
        """A point delete pops the smaller side's keys from a copy of the
        base: ``1.0`` removes a stored ``1``, ``True`` removes nothing."""
        base = Relation([(3,), (1,), (2,)])
        got = base.difference(Relation([(1.0,)]))
        assert list(got.rows()) == [(3,), (2,)]  # row order kept
        assert base.difference(Relation([(True,)])) is base
        mixed = Relation([(True,), (1,), (2,)])
        assert mixed.difference(Relation([(1,)])) == Relation([(True,), (2,)])

    def test_intersect_respects_value_semantics(self):
        assert Relation([(True,), (2,)]).intersect(Relation([(1,), (2,)])) \
            == Relation([(2,)])
        assert Relation([(1,)]).intersect(Relation([(1.0,)])) \
            == Relation([(1,)])

    def test_delta_by_difference_roundtrip(self):
        """The maintenance prerequisite: (new − old) ∪ (old ∩ new) == new
        even when bools and numbers mix."""
        old = Relation([(1,), (True,), (3,)])
        new = Relation([(True,), (3,), (4,)])
        plus = new.difference(old)
        minus = old.difference(new)
        assert plus == Relation([(4,)])
        assert minus == Relation([(1,)])
        assert old.difference(minus).union(plus) == new

    def test_product_keeps_bools_distinct(self):
        got = Relation([(1,), (True,)]).product(Relation([(0,), (False,)]))
        assert len(got) == 4

    def test_project_keeps_bools_distinct(self):
        got = Relation([(1, "a"), (True, "a")]).project([0])
        assert len(got) == 2

    def test_contains_uses_value_semantics(self):
        rel = relation((True,), (2,))
        assert (True,) in rel
        assert (1,) not in rel
        assert (2.0,) in rel

    def test_is_functional_distinguishes_bool_values(self):
        assert not Relation([(5, True), (5, 1)]).is_functional()
        assert Relation([(5, 1), (5, 1.0)]).is_functional()

    def test_prefix_trie_keeps_bool_branches_distinct(self):
        rel = Relation([(True, "a"), (1, "b")])
        assert rel.suffixes_for_prefix_value(1) == Relation([("b",)])
        assert rel.suffixes_for_prefix_value(True) == Relation([("a",)])
        assert len(rel._index()) == 2


class TestEngineRoundtrip:
    def test_bool_and_int_facts_coexist_through_queries(self):
        from repro import connect

        session = connect()
        session.define("B", [(True,), (1,)])
        assert len(session.relation("B")) == 2
        session.define("B2", [(1,)])
        session.define("B2", [(True,)])  # not a no-op redefine
        assert session.relation("B2") == Relation([(True,)])

    def test_binding_tables_keep_bools_distinct(self):
        """The scheduler's dedup (Table/union_tables) keys rows on value
        identity too — bool bindings from mixed relations don't merge."""
        from repro import connect

        session = connect()
        session.define("B", [(True,), (1,)])
        session.define("C", [(True, "t"), (1, "i")])
        assert session.execute("count[B]") == Relation([(2,)])
        assert session.execute("{(y) : C(1, y)}") == Relation([("i",)])
        assert session.execute("{(y) : C(true, y)}") == Relation([("t",)])
        assert len(session.execute("{(x, y) : B(x) and C(x, y)}")) == 2
