"""Binary join algorithms agree with each other and handle edge cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins import hash_join, nested_loop_join

ALGORITHMS = [hash_join, nested_loop_join]


@pytest.mark.parametrize("join", ALGORITHMS)
class TestSharedBehaviour:
    def test_simple_equijoin(self, join):
        rows, cols = join([(1, "a"), (2, "b")], ("k", "x"),
                          [(1, 10), (1, 11), (3, 30)], ("k", "y"))
        assert cols == ("k", "x", "y")
        assert sorted(rows) == [(1, "a", 10), (1, "a", 11)]

    def test_no_shared_columns_is_product(self, join):
        rows, cols = join([(1,)], ("a",), [(2,), (3,)], ("b",))
        assert cols == ("a", "b")
        assert sorted(rows) == [(1, 2), (1, 3)]

    def test_multi_column_key(self, join):
        rows, _ = join([(1, 2, "l")], ("a", "b", "x"),
                       [(1, 2, "r"), (1, 9, "no")], ("a", "b", "y"))
        assert rows == [(1, 2, "l", "r")]

    def test_empty_side(self, join):
        rows, _ = join([], ("k",), [(1,)], ("k",))
        assert rows == []

    def test_self_join(self, join):
        e = [(1, 2), (2, 3)]
        rows, cols = join(e, ("a", "b"), e, ("b", "c"))
        assert cols == ("a", "b", "c")
        assert sorted(rows) == [(1, 2, 3)]


rows_strategy = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=15
)


@settings(max_examples=50, deadline=None)
@given(rows_strategy, rows_strategy)
def test_all_algorithms_agree(a, b):
    results = []
    for join in ALGORITHMS:
        rows, cols = join(a, ("k", "x"), b, ("k", "y"))
        results.append((sorted(rows), cols))
    assert results[0] == results[1]


@settings(max_examples=30, deadline=None)
@given(rows_strategy, rows_strategy)
def test_join_size_bounds(a, b):
    """|A ⋈ B| ≤ |A|·|B| and equals the nested-loop count exactly."""
    rows, _ = hash_join(a, ("k", "x"), b, ("k", "y"))
    assert len(rows) <= len(a) * len(b)
