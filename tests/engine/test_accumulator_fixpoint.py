"""Recursive strata grown through the append-only accumulator.

Semi-naive materialisation and insert maintenance grow each member's
extent with ``columns.Accumulator`` (see ``RelProgram._grow``). These tests
pin its answers to two oracles — Kleene iteration (``_stratum_sn_eligible``
patched off) and the literal semantics of ``engine/reference.py`` — on
chain and hub closures over float and bool columns, check that it declines
on mixed-tag extents, and that snapshots taken before later inserts keep
their rows when the maintained extent grows past them.
"""

from unittest import mock

import pytest

from repro import Relation, RelProgram, connect
from repro.model import columns
from support.generators import GeneratedProgram, reference_extents

TC = [("P", ("x", "y"), "E(x, y)"),
      ("P", ("x", "y"), "exists((z) | E(x, z) and P(z, y))")]

# The closure with a bool label riding along every path.
LABELLED = [("P", ("x", "y", "b"), "E(x, y, b)"),
            ("P", ("x", "y", "b"),
             "exists((z) | E(x, z, b) and P(z, y, b))")]

FLOATS = [0.5 + i for i in range(6)]


def chain(nodes):
    return [(a, b) for a, b in zip(nodes, nodes[1:])]


def hub(spokes, hubs):
    return ([(s, h) for s in spokes for h in hubs]
            + [(h, s) for h in hubs for s in spokes])


GRAPHS = {
    "float-chain": (TC, chain(FLOATS)),
    "float-hub": (TC, hub(FLOATS[:4], [-1.5, -2.5])),
    "neg-zero-chain": (TC, chain([-0.0, 1.25, 2.5, 3.75])),
    "bool-chain": (LABELLED, [(a, b, i % 2 == 0)
                              for i, (a, b) in enumerate(chain(FLOATS))]
                   + [(a, b, True) for a, b in chain(FLOATS[:3])]),
    "bool-hub": (LABELLED, [(a, b, a < b)
                            for a, b in hub([1, 2, 3, 4], [7, 8])]),
}


def source(rules):
    return "\n".join(f"def {name}({', '.join(head)}) : {body}"
                     for name, head, body in rules)


def evaluate(rules, edges, kleene=False):
    program = RelProgram()
    program.define("E", Relation(edges))
    program.add_source(source(rules))
    if not kleene:
        return program.relation("P"), program.columnar_statistics()
    with mock.patch.object(RelProgram, "_stratum_sn_eligible",
                           return_value=False):
        return program.relation("P"), None


@pytest.mark.parametrize("graph", list(GRAPHS), ids=list(GRAPHS))
def test_accumulator_matches_kleene_and_reference(graph):
    rules, edges = GRAPHS[graph]
    got, stats = evaluate(rules, edges)
    kleene, _ = evaluate(rules, edges, kleene=True)
    reference = reference_extents(GeneratedProgram(
        base={"E": Relation(edges)}, rules=rules, derived=["P"]))["P"]
    assert got == kleene == reference
    assert sorted(got, key=repr) == sorted(reference, key=repr)
    if columns.KERNELS_AVAILABLE:
        assert stats.get("accumulate", 0) > 0
        assert stats.get("accumulate_fallback", 0) == 0


@pytest.mark.parametrize("edges", [
    chain([1, 2.5, 3, 4.5, 5]),        # ints beside floats: float64-typed
    chain([True, 1, 2, 3]),            # bool beside int: untypeable
], ids=["int-float", "bool-int"])
def test_mixed_tag_extents_fall_back_exactly(edges):
    got, stats = evaluate(TC, edges)
    kleene, _ = evaluate(TC, edges, kleene=True)
    assert got == kleene
    # The fallback keeps the stored representatives: no int became a float.
    assert sorted(map(repr, got)) == sorted(map(repr, kleene))
    assert stats.get("accumulate_fallback", 0) > 0
    assert stats.get("accumulate", 0) == 0


def closure(edges):
    reach = set(edges)
    while True:
        more = {(a, d) for a, b in reach for c, d in edges if b == c} - reach
        if not more:
            return reach
        reach |= more


def test_snapshot_before_inserts_keeps_its_rows():
    rules = source(TC) + "\ndef Root(y) : P(0, y)"
    nodes = list(range(40))
    edges = chain(nodes)
    session = connect(load_stdlib=False)
    session.define("E", edges)
    session.load(rules)
    pinned = session.relation("P")
    before = sorted(pinned)
    snapshot = session.snapshot()
    assert sorted(snapshot.relation("P")) == before
    for new in [(39, 40), (40, 41), (41, 42)]:
        session.insert("E", [new])
        edges.append(new)
        assert set(session.relation("P")) == closure(edges)
        assert set(session.relation("Root")) == \
            {(y,) for x, y in closure(edges) if x == 0}
    assert sorted(pinned) == before
    assert sorted(snapshot.relation("P")) == before
    assert session.maintenance_statistics().get("maintained_strata", 0) > 0
    if columns.KERNELS_AVAILABLE:
        assert session.columnar_statistics().get("accumulate", 0) > 0
