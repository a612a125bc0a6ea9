"""Join algorithms: the performance substrate behind GNF (Section 7).

The paper: "The ORM-inspired approach to data modeling entails splitting
data into many relations and performing many joins. This can be done without
sacrificing performance by embracing factorized representations [39] and
worst-case optimal joins [38, 47]; the existence of this toolbox enabled
many of Rel's design decisions."

This package provides that toolbox:

- :func:`hash_join` — the classical binary join (:func:`nested_loop_join`
  is its reference);
- :class:`LeapfrogTriejoin` — the worst-case optimal multiway join of
  Veldhuizen [47], walking sorted tries variable by variable;
- :func:`multiway_join` — a generic conjunctive-query evaluator with a
  selectable strategy (binary plan vs. leapfrog), used by the WCOJ
  benchmarks (triangle counting and friends).
"""

from repro.joins.binary import hash_join, nested_loop_join
from repro.joins.leapfrog import LeapfrogTriejoin, build_sorted_trie, leapfrog_triejoin
from repro.joins.planner import (
    Atom,
    binary_plan_join,
    canonicalize_atom,
    choose_strategy,
    is_cyclic,
    multiway_join,
    nested_loop_plan_join,
)

__all__ = [
    "Atom",
    "LeapfrogTriejoin",
    "binary_plan_join",
    "build_sorted_trie",
    "canonicalize_atom",
    "choose_strategy",
    "hash_join",
    "is_cyclic",
    "leapfrog_triejoin",
    "multiway_join",
    "nested_loop_join",
    "nested_loop_plan_join",
]
