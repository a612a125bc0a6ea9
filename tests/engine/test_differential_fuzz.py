"""Differential fuzzing: compiled plans ≡ interpretation ≡ the paper's
reference semantics, over ~100 seeded random programs.

Programs come from the shared generator
(``tests/support/generators.random_program``): 2–4 derived names over
small random base relations, mixing joins, projection, comparison
filters, stratified negation, unions, positive recursion, and (stdlib)
aggregation / second-order ``TC``. Every program runs on two engines —
as shipped (compiled plans replayed) and under ``oracles.interpreted``
(pure AST interpretation) — and, where the fragment is expressible, against
``repro.engine.reference`` evaluated as a naive stratified fixpoint (the
Figure 3–4 equations applied verbatim).

Any disagreement prints the full program source and base data, so a
failing seed is a self-contained repro.
"""

import random

import pytest

from support import oracles
from support.generators import random_program, reference_extents

from repro import connect

N_PROGRAMS = 100


def _sessions(program):
    pair = []
    for paths in ((), (oracles.interpreted,)):
        session = oracles.under(connect(load_stdlib=program.uses_stdlib),
                                *paths)
        for name, rel in program.base.items():
            session.define(name, rel)
        session.load(program.source)
        pair.append(session)
    return pair


def _describe(program):
    base = {name: sorted(rel.sorted_tuples())
            for name, rel in program.base.items()}
    return f"\nprogram:\n{program.source}\nbase: {base}"


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_compiled_interpreted_reference_agree(seed):
    rng = random.Random(seed)
    program = random_program(rng)
    compiled, interpreted = _sessions(program)

    # Compiled ≡ interpreted on every generated query (full extents,
    # point lookups, second-order applications).
    for query in program.queries:
        got = compiled.execute(query)
        want = interpreted.execute(query)
        assert got == want, (
            f"seed {seed}: plan-cache divergence on {query!r}: "
            f"{sorted(got.sorted_tuples())} != {sorted(want.sorted_tuples())}"
            + _describe(program)
        )

    # Engine ≡ reference semantics on the expressible fragment.
    if program.reference_ok:
        oracle = reference_extents(program)
        for name, want in oracle.items():
            got = compiled.relation(name)
            assert got == want, (
                f"seed {seed}: engine diverges from the reference "
                f"semantics on {name}: {sorted(got.sorted_tuples())} != "
                f"{sorted(want.sorted_tuples())}" + _describe(program)
            )


@pytest.mark.parametrize("seed", range(10))
def test_agreement_survives_an_update_step(seed):
    """One insert into a random base relation after first evaluation:
    the incremental path of both engines must agree with each other and
    with a from-scratch reference rebuild."""
    rng = random.Random(10_000 + seed)
    program = random_program(rng, allow_stdlib=False)
    compiled, interpreted = _sessions(program)
    for name in program.derived:  # materialize before the update
        assert compiled.relation(name) == interpreted.relation(name)

    target = rng.choice(sorted(program.base))
    arity = 1 if target in ("U", "V") else 2
    delta = [tuple(rng.randint(0, 3) for _ in range(arity))]
    compiled.insert(target, delta)
    interpreted.insert(target, delta)
    program.base[target] = program.base[target].union(
        compiled.relation(target))

    oracle = reference_extents(program)
    for name in program.derived:
        got = compiled.relation(name)
        assert got == interpreted.relation(name), (seed, name)
        assert got == oracle[name], (
            f"seed {seed}: post-update divergence on {name}"
            + _describe(program)
        )


def test_generator_covers_every_template():
    """The distribution actually exercises each construct within the
    first N_PROGRAMS seeds (guards against a silently skewed generator)."""
    seen = set()
    for seed in range(N_PROGRAMS):
        program = random_program(random.Random(seed))
        source = program.source
        if "count[" in source:
            seen.add("aggregation")
        if "not " in source:
            seen.add("negation")
        for name, _, body in program.rules:
            if name in body:
                seen.add("recursion")
        if any(sum(1 for n, _, _ in program.rules if n == name) > 1
               and name not in "".join(
                   b for n, _, b in program.rules if n == name)
               for name in program.derived):
            seen.add("union")
        if "exists" in source:
            seen.add("exists")
        if any(op in source for op in (" > ", " < ", " >= ", " <= ",
                                       " != ", " = ")):
            seen.add("comparison")
        if any(q.startswith("TC[") for q in program.queries):
            seen.add("second-order")
    assert {"aggregation", "negation", "recursion", "union", "exists",
            "comparison", "second-order"} <= seen, seen
