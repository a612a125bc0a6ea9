"""Compiled executable plans for rule bodies and query conjunctions.

The GNF discipline means the same small rule bodies are evaluated thousands
of times inside semi-naive fixpoints, delta maintenance, and prepared-query
re-runs. Interpreting them from the AST each time re-pays the same costs on
every call: greedy safety ordering with speculative ``expand`` attempts,
re-classification of multiway-join atoms, and re-planning of the join.

A :class:`ConjunctionPlan` freezes the decisions of one *successful*
interpreted scheduling pass:

- ``order`` — the conjunct evaluation order found by the greedy scheduler
  (indices into the flattened items list, which is deterministic per anchor
  node);
- ``multiway`` — which conjuncts were extracted into one multiway join,
  as *name-based* atom specs (:class:`AtomPlan`): the relation is
  re-resolved through the environment/context on every execution, so data
  updates never stale a plan;
- ``refs`` / ``sig`` — the transitive program names the scheduling
  decisions can observe, with the *rules-generation* of each at compile
  time. Rule changes bump those generations; a plan whose signature no
  longer matches is dropped (stratum-level invalidation — data-only
  updates bump extent generations, not rule generations, so fixpoint
  iterations and incremental maintenance keep their plans warm).

Plans are hints, not proofs: execution replays the recorded order through
the ordinary ``expand`` machinery, which still raises ``NotOrderable`` if
the plan no longer fits (an environment kind flipped, an atom stopped
resolving to a finite extent). The executor then falls back to the
interpreted scheduler, which re-records. Results are therefore always
identical to fresh interpretation — the randomized agreement suite in
``tests/engine/test_plan_cache.py`` pins this.

Plans live in :class:`repro.engine.program.EvalState` (keyed by anchor
identity and bound-variable pattern) so semi-naive
iterations, the PR-3 delta drivers, and prepared-query re-evaluation all
share them; ``Session.plan_statistics()`` exposes the
compile/hit/fallback/invalidate counters.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Optional, Tuple

__all__ = ["AtomPlan", "MultiwayPlan", "ConjunctionPlan", "plan_refs"]


class AtomPlan:
    """One extracted join atom: a relation *name* plus its argument
    pattern (``("var", v) | ("const", c) | ("any", None)``).

    The name is re-resolved (environment first, then the evaluation
    context) at every execution, so the plan survives data updates and
    semi-naive delta swaps untouched."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Tuple[Tuple[str, Any], ...]) -> None:
        self.name = name
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AtomPlan({self.name}{[k for k, _ in self.args]})"


class MultiwayPlan:
    """The recorded multiway-join extraction of one conjunction."""

    __slots__ = ("consumed", "atoms", "join_vars")

    def __init__(self, consumed: FrozenSet[int],
                 atoms: Tuple[AtomPlan, ...],
                 join_vars: Tuple[str, ...]) -> None:
        self.consumed = consumed        # item indices served by the join
        self.atoms = atoms
        self.join_vars = join_vars      # first-occurrence variable order


class ConjunctionPlan:
    """Executable plan for one conjunction under one bound-variable
    pattern: the scheduled conjunct order plus the optional multiway-join
    extraction, with the rules-generation signature that keeps it valid."""

    __slots__ = ("order", "multiway", "refs", "sig")

    def __init__(self, order: Tuple[int, ...],
                 multiway: Optional[MultiwayPlan],
                 refs: FrozenSet[str],
                 sig: Tuple[Tuple[str, int], ...]) -> None:
        self.order = order              # non-extracted items, execution order
        self.multiway = multiway
        self.refs = refs                # transitive program names observed
        self.sig = sig                  # ((name, rule_generation), ...)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mw = len(self.multiway.atoms) if self.multiway else 0
        return f"ConjunctionPlan(order={self.order}, multiway_atoms={mw})"


def plan_refs(names, ctx) -> FrozenSet[str]:
    """The transitive program names a plan over ``names`` can observe
    (mirrors the memo layer's refs signature): rule changes anywhere in
    this set may flip orderability or atom eligibility."""
    program = getattr(ctx, "program", None)
    if program is None:
        return frozenset(names)
    refs = set()
    for name in names:
        refs |= program._refs_of(name)
    return frozenset(refs)
