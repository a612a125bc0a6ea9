"""Regression tests for the join layer's correctness bugs (PR 2).

Each class pins one of the confirmed defects: value-semantics divergence
between the binary algorithms, wrong answers on repeated variables, crashes
on permuted column orders, and crashes on empty/unbound edge cases.
"""

import pytest

from repro.joins import (
    Atom,
    binary_plan_join,
    canonicalize_atom,
    choose_strategy,
    hash_join,
    is_cyclic,
    multiway_join,
    nested_loop_join,
    nested_loop_plan_join,
)

BINARY_ALGOS = [hash_join, nested_loop_join]
STRATEGIES = ["leapfrog", "binary", "nested"]


def canon(rows):
    """Order- and int/float-insensitive comparison form."""
    from repro.model.values import sort_key

    return sorted(tuple(sort_key(v) for v in r) for r in rows)


class TestValueSemantics:
    @pytest.mark.parametrize("join", BINARY_ALGOS)
    def test_bool_does_not_match_int(self, join):
        rows, _ = join([(True, "t")], ("k", "a"), [(1, "one")], ("k", "b"))
        assert rows == []

    @pytest.mark.parametrize("join", BINARY_ALGOS)
    def test_bool_matches_bool(self, join):
        rows, _ = join([(True, "t")], ("k", "a"), [(True, "u")], ("k", "b"))
        assert rows == [(True, "t", "u")]

    @pytest.mark.parametrize("join", BINARY_ALGOS)
    def test_int_matches_float(self, join):
        rows, _ = join([(1, "i")], ("k", "a"), [(1.0, "f")], ("k", "b"))
        assert rows == [(1, "i", "f")]

    def test_all_binary_algorithms_agree_on_mixed_keys(self):
        a = [(True, "p"), (1, "q"), (1.0, "r"), (0, "s"), (False, "t")]
        b = [(1, "x"), (True, "y"), (0.0, "z")]
        outs = [canon(j(a, ("k", "u"), b, ("k", "v"))[0]) for j in BINARY_ALGOS]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_multiway_bool_int_distinction(self, strategy):
        atoms = [Atom.of([(True,), (1,), (2,)], ("x",)),
                 Atom.of([(1,), (False,)], ("x",))]
        assert multiway_join(atoms, ("x",), strategy) == [(1,)]


class TestRepeatedVariables:
    def test_canonicalize_filters_and_drops(self):
        atom = canonicalize_atom(Atom.of([(1, 2), (3, 3), (4, 4.0)], ("x", "x")))
        assert atom.variables == ("x",)
        assert canon(atom.rows) == canon([(3,), (4,)])

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_no_self_equal_rows_means_empty(self, strategy):
        atoms = [Atom.of([(1, 2)], ("x", "x"))]
        assert multiway_join(atoms, ("x",), strategy) == []

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_self_equal_rows_survive(self, strategy):
        atoms = [Atom.of([(1, 2), (3, 3), (5, 5)], ("x", "x"))]
        assert sorted(multiway_join(atoms, ("x",), strategy)) == [(3,), (5,)]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_repeated_var_joins_other_atom(self, strategy):
        atoms = [
            Atom.of([(1, 1, 2), (3, 3, 4), (5, 6, 7)], ("x", "x", "y")),
            Atom.of([(2,), (4,), (7,)], ("y",)),
        ]
        assert sorted(multiway_join(atoms, ("x", "y"), strategy)) == \
            [(1, 2), (3, 4)]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_bool_int_not_self_equal(self, strategy):
        # (True, 1) is NOT a self-equal row under value semantics.
        atoms = [Atom.of([(True, 1), (2, 2)], ("x", "x"))]
        assert multiway_join(atoms, ("x",), strategy) == [(2,)]


class TestPermutedColumns:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_reversed_two_atom_join(self, strategy):
        # R(x,y) ⋈ S(y,x) used to raise "cyclic" on the leapfrog path.
        r = [(1, 2), (3, 4), (5, 6)]
        s = [(2, 1), (4, 9)]
        atoms = [Atom.of(r, ("x", "y")), Atom.of(s, ("y", "x"))]
        assert multiway_join(atoms, ("x", "y"), strategy) == [(1, 2)]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_three_way_cyclic_column_orders(self, strategy):
        atoms = [
            Atom.of([(1, 2)], ("x", "y")),
            Atom.of([(3, 2)], ("z", "y")),
            Atom.of([(3, 1)], ("z", "x")),
        ]
        assert multiway_join(atoms, ("x", "y", "z"), strategy) == [(1, 2, 3)]

    def test_permuted_agrees_with_reference(self):
        import random

        rng = random.Random(7)
        r = [(rng.randrange(4), rng.randrange(4)) for _ in range(12)]
        s = [(rng.randrange(4), rng.randrange(4)) for _ in range(12)]
        atoms = [Atom.of(set(r), ("a", "b")), Atom.of(set(s), ("b", "a"))]
        ref = nested_loop_plan_join(atoms, ("a", "b"))
        for strategy in ("leapfrog", "binary"):
            assert canon(multiway_join(atoms, ("a", "b"), strategy)) == canon(ref)


class TestEmptyAndUnbound:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_empty_conjunction_is_unit(self, strategy):
        assert multiway_join([], (), strategy) == [()]

    def test_binary_plan_join_empty_list(self):
        assert binary_plan_join([], ()) == [()]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_zero_variable_atoms_act_as_filters(self, strategy):
        unit = Atom.of([()], ())
        fail = Atom.of([], ())
        data = Atom.of([(1,)], ("x",))
        assert multiway_join([unit, data], ("x",), strategy) == [(1,)]
        assert multiway_join([fail, data], ("x",), strategy) == []

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_unbound_output_variable_is_named(self, strategy):
        atoms = [Atom.of([(1,)], ("x",))]
        with pytest.raises(ValueError, match="'q'"):
            multiway_join(atoms, ("x", "q"), strategy)

    def test_unbound_output_on_empty_atoms(self):
        with pytest.raises(ValueError, match="'v'"):
            binary_plan_join([], ("v",))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_empty_atom_with_variables(self, strategy):
        atoms = [Atom.of([], ("x",)), Atom.of([(1,)], ("x",))]
        assert multiway_join(atoms, ("x",), strategy) == []

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_empty_output_projection(self, strategy):
        atoms = [Atom.of([(1,), (2,)], ("x",))]
        assert multiway_join(atoms, (), strategy) == [()]


class TestHeuristic:
    def test_triangle_is_cyclic(self):
        atoms = [Atom.of([], ("a", "b")), Atom.of([], ("b", "c")),
                 Atom.of([], ("a", "c"))]
        assert is_cyclic(atoms)

    def test_path_is_acyclic(self):
        atoms = [Atom.of([], ("a", "b")), Atom.of([], ("b", "c"))]
        assert not is_cyclic(atoms)

    def test_four_clique_is_cyclic(self):
        pairs = [("a", "b"), ("a", "c"), ("a", "d"),
                 ("b", "c"), ("b", "d"), ("c", "d")]
        assert is_cyclic([Atom.of([], p) for p in pairs])

    def test_star_is_acyclic(self):
        atoms = [Atom.of([], ("h", "x")), Atom.of([], ("h", "y")),
                 Atom.of([], ("h", "z"))]
        assert not is_cyclic(atoms)

    def test_choose_strategy_small_input_binary(self):
        edges = [(i, i + 1) for i in range(10)]
        atoms = [Atom.of(edges, ("a", "b")), Atom.of(edges, ("b", "c")),
                 Atom.of(edges, ("a", "c"))]
        assert choose_strategy(atoms) == "binary"

    def test_choose_strategy_large_cyclic_leapfrog(self):
        edges = [(i, (i * 7 + 1) % 100) for i in range(100)]
        atoms = [Atom.of(edges, ("a", "b")), Atom.of(edges, ("b", "c")),
                 Atom.of(edges, ("a", "c"))]
        assert choose_strategy(atoms) == "leapfrog"

    def test_auto_strategy_runs(self):
        edges = [(1, 2), (2, 3), (1, 3)]
        atoms = [Atom.of(edges, ("a", "b")), Atom.of(edges, ("b", "c")),
                 Atom.of(edges, ("a", "c"))]
        assert multiway_join(atoms, ("a", "b", "c"), "auto") == [(1, 2, 3)]
