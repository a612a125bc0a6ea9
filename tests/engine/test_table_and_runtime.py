"""Units: binding tables, environments, and rule compilation."""

import pytest

from repro.engine.runtime import Closure, Env, compile_rule, literal_closure
from repro.engine.table import Table, union_tables
from repro.lang import ast, parse_expression, parse_program
from repro.model.relation import Relation


class TestTable:
    def test_unit(self):
        table = Table.unit()
        assert table.cols == ()
        assert table.rows == [((),)]

    def test_stash_and_gather_preserve_payload_order(self):
        table = Table(("x",), [(1, ("a",)), (2, ("b",))])
        stashed = table.stash_payload("s0")
        assert stashed.cols == ("x", "s0")
        assert stashed.rows[0] == (1, ("a",), ())
        gathered = stashed.gather_payload(["s0"])
        assert gathered.cols == ("x",)
        assert gathered.rows[0] == (1, ("a",))

    def test_gather_concatenates_in_given_order(self):
        table = Table(("x", "s0", "s1"), [(1, ("a",), ("b",), ())])
        gathered = table.gather_payload(["s1", "s0"])
        assert gathered.rows[0] == (1, ("b", "a"))

    def test_project_dedupes(self):
        table = Table(("x", "y"), [(1, 2, ()), (1, 3, ())])
        projected = table.project(["x"])
        assert projected.rows == [(1, ())]

    def test_dedupe(self):
        table = Table(("x",), [(1, ()), (1, ()), (2, ())])
        assert len(table.dedupe().rows) == 2

    def test_clear_payload(self):
        table = Table(("x",), [(1, ("junk",))])
        assert table.clear_payload().rows == [(1, ())]

    def test_filter(self):
        table = Table(("x",), [(1, ()), (2, ())])
        assert table.filter(lambda r: r[0] > 1).rows == [(2, ())]

    def test_bindings(self):
        table = Table(("x", "y"), [(1, 2, ())])
        assert table.bindings(table.rows[0]) == {"x": 1, "y": 2}

    def test_union_tables_projects_to_common(self):
        a = Table(("x", "extra"), [(1, "e", ())])
        b = Table(("x",), [(2, ())])
        merged = union_tables([a, b], ("x",))
        assert sorted(merged.rows) == [(1, ()), (2, ())]


class TestEnv:
    def test_lookup_chain(self):
        base = Env({"a": 1})
        child = base.extend({"b": 2})
        assert child.get("a") == (True, 1)
        assert child.get("b") == (True, 2)
        assert child.get("c") == (False, None)

    def test_shadowing(self):
        base = Env({"a": 1})
        child = base.extend({"a": 9})
        assert child.get("a") == (True, 9)
        assert base.get("a") == (True, 1)

    def test_extend_empty_is_identity(self):
        env = Env({"a": 1})
        assert env.extend({}) is env

    def test_flatten(self):
        env = Env({"a": 1}).extend({"b": 2}).extend({"a": 3})
        assert env.flatten() == {"a": 3, "b": 2}

    def test_contains(self):
        assert "a" in Env({"a": None})
        assert "b" not in Env({"a": None})


class TestCompileRule:
    def compile(self, source):
        (decl,) = parse_program(source).declarations
        return compile_rule(decl)

    def test_explicit_rel_params(self):
        rule = self.compile("def F({A},{B},x) : A(x) and B(x)")
        assert rule.rel_positions == (0, 1)
        assert rule.rel_param_names == ("A", "B")
        assert [type(b).__name__ for b in rule.value_head] == ["VarBinding"]

    def test_inferred_rel_param_from_application(self):
        """`def empty(R) : ...R(x...)...` — R inferred second-order."""
        rule = self.compile("def empty(R) : not exists((x...) | R(x...))")
        assert rule.rel_positions == (0,)

    def test_inferred_rel_param_from_reduce(self):
        rule = self.compile("def total[A] : reduce[add, A]")
        assert rule.rel_positions == (0,)

    def test_plain_variable_not_inferred(self):
        rule = self.compile("def F(x, y) : G(x, y)")
        assert rule.rel_positions == ()

    def test_free_names_include_domains(self):
        rule = self.compile("def F[x in Dom] : sum[G[x]]")
        assert "Dom" in rule.free
        assert "G" in rule.free
        assert "sum" in rule.free


class TestClosures:
    def test_literal_closure_from_abstraction(self):
        node = parse_expression("(j) : R(j)")
        closure = literal_closure(node, Env({"R": Relation([(1,)])}))
        assert closure.name == "<abstraction>"
        assert len(closure.rules) == 1
        assert not closure.is_parameterized()

    def test_parameterized_detection(self):
        (decl,) = parse_program("def F({A},x) : A(x)").declarations
        closure = Closure("F", (compile_rule(decl),), Env.EMPTY)
        assert closure.is_parameterized()
