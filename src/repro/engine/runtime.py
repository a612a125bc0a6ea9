"""Runtime representations: environments, compiled rules, and closures.

A *closure* packages the rules defining a relation name together with the
environment captured at its creation site. Closures are how Rel's
second-order features are evaluated without materializing infinite
relations: ``MatrixMult`` denotes an infinite second-order relation
(Section 4.2), but the engine only ever *applies* it, freezing the relation
parameters into an environment and evaluating the rule bodies on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.lang import ast
from repro.model.relation import Relation


class Env:
    """An immutable chained environment: name → runtime value.

    Runtime values are scalars (Rel values), Python tuples (tuple-variable
    bindings), :class:`Relation` instances (relation-variable bindings), or
    callables (:class:`Closure` / builtins) for second-order parameters.
    """

    __slots__ = ("_map", "_parent")

    EMPTY: "Env"

    def __init__(self, bindings: Optional[Dict[str, Any]] = None,
                 parent: Optional["Env"] = None) -> None:
        self._map = bindings or {}
        self._parent = parent

    def extend(self, bindings: Dict[str, Any]) -> "Env":
        if not bindings:
            return self
        return Env(bindings, self)

    def get(self, name: str) -> Tuple[bool, Any]:
        """Return ``(found, value)`` without raising."""
        env: Optional[Env] = self
        while env is not None:
            if name in env._map:
                return True, env._map[name]
            env = env._parent
        return False, None

    def __contains__(self, name: str) -> bool:
        return self.get(name)[0]

    def flatten(self) -> Dict[str, Any]:
        """All visible bindings, innermost shadowing outermost."""
        chain = []
        env: Optional[Env] = self
        while env is not None:
            chain.append(env._map)
            env = env._parent
        out: Dict[str, Any] = {}
        for layer in reversed(chain):
            out.update(layer)
        return out


Env.EMPTY = Env()


def _is_rel_param(binding: ast.Binding, body: ast.Node) -> bool:
    """Decide whether a head binding denotes a relation parameter.

    Explicit ``{A}`` bindings always do. Following the paper's "allowed to
    write ID instead of {ID}" flexibility, a plain head variable is inferred
    to be a relation parameter when the body *applies* it (uses it as an
    application target) or passes it to ``reduce``.
    """
    if isinstance(binding, ast.RelVarBinding):
        return True
    if not isinstance(binding, ast.VarBinding):
        return False
    name = binding.name
    for node in ast.walk(body):
        if isinstance(node, ast.Application):
            target = node.target
            if isinstance(target, ast.Ref) and target.name == name:
                return True
            if isinstance(target, ast.Ref) and target.name == "reduce":
                for arg in node.args:
                    inner = arg.expr if isinstance(arg, ast.Annotated) else arg
                    if isinstance(inner, ast.Ref) and inner.name == name:
                        return True
    return False


@dataclass(frozen=True)
class Rule:
    """A compiled ``def`` rule.

    ``head`` keeps the full binding list; ``rel_positions`` are the indices
    of relation parameters (explicit or inferred); ``value_head`` is the
    remaining (value-level) binding list, in order.
    """

    name: str
    head: Tuple[ast.Binding, ...]
    body: ast.Node
    formula_head: bool
    rel_positions: Tuple[int, ...]
    free: FrozenSet[str]

    @property
    def value_head(self) -> Tuple[ast.Binding, ...]:
        rel = set(self.rel_positions)
        return tuple(b for i, b in enumerate(self.head) if i not in rel)

    @property
    def rel_param_names(self) -> Tuple[str, ...]:
        names = []
        for i in self.rel_positions:
            binding = self.head[i]
            assert isinstance(binding, (ast.RelVarBinding, ast.VarBinding))
            names.append(binding.name)
        return tuple(names)


def compile_rule(defn: ast.RuleDef) -> Rule:
    """Compile one parsed ``def`` into its runtime form."""
    rel_positions = tuple(
        i for i, b in enumerate(defn.head) if _is_rel_param(b, defn.body)
    )
    bound = set()
    for binding in defn.head:
        if isinstance(binding, (ast.VarBinding, ast.InBinding,
                                ast.TupleVarBinding, ast.RelVarBinding)):
            bound.add(binding.name)
    free = set(ast.free_names(defn.body, frozenset(bound)))
    for binding in defn.head:
        if isinstance(binding, ast.InBinding):
            free |= ast.free_names(binding.domain, frozenset(bound))
        elif isinstance(binding, ast.ConstBinding):
            free |= ast.free_names(binding.expr, frozenset(bound))
    return Rule(
        name=defn.name,
        head=defn.head,
        body=defn.body,
        formula_head=defn.formula_head,
        rel_positions=rel_positions,
        free=frozenset(free),
    )


@dataclass(frozen=True)
class Closure:
    """A named relation definition with a captured environment."""

    name: str
    rules: Tuple[Rule, ...]
    env: Env

    def is_parameterized(self) -> bool:
        return any(rule.rel_positions for rule in self.rules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<closure {self.name}/{len(self.rules)} rules>"


def bounded_store(cache: Dict, key, entry, LIMIT: int) -> None:
    """``cache[key] = entry``; past ``LIMIT`` entries the oldest half is
    evicted (dicts keep insertion order). The one eviction rule of the
    engine's bounded caches; eviction pops with a default, so two threads
    evicting the same keys never raise."""
    cache[key] = entry
    if len(cache) > LIMIT:
        for old_key in list(cache)[: LIMIT // 2]:
            cache.pop(old_key, None)


#: id(abstraction node) -> (pinned node, compiled rule): abstraction
#: literals are applied per row / per instance, and a fresh Rule per call
#: would defeat every id()-keyed cache downstream (compiled plans,
#: orderability results, instance memos). The node pin keeps the key valid
#: for exactly as long as the entry lives.
#:
#: Thread-safety: this cache is process-global and shared by concurrent
#: snapshot readers. Single get/set operations are atomic under the GIL;
#: a double compile under a race is benign (both rules are valid, last
#: write wins), and eviction uses pop-with-default so two threads
#: evicting the same keys never raise.
_LITERAL_RULES: Dict[int, Tuple[ast.Abstraction, Rule]] = {}
_LITERAL_RULE_LIMIT = 4096


def literal_rule(node: ast.Abstraction) -> Rule:
    """The compiled rule of an abstraction literal, identity-stable per
    AST node."""
    entry = _LITERAL_RULES.get(id(node))
    if entry is not None and entry[0] is node:
        return entry[1]
    defn = ast.RuleDef(
        name="<abstraction>",
        head=node.bindings,
        body=node.body,
        formula_head=not node.brackets,
        pos=node.pos,
    )
    rule = compile_rule(defn)
    bounded_store(_LITERAL_RULES, id(node), (node, rule), _LITERAL_RULE_LIMIT)
    return rule


def literal_closure(node: ast.Abstraction, env: Env) -> Closure:
    """Wrap an abstraction literal (e.g. ``(j) : φ``) as an anonymous closure."""
    return Closure("<abstraction>", (literal_rule(node),), env)
