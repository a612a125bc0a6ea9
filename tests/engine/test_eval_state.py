"""One evaluation state for the live program, its snapshots and its forks.

:class:`~repro.engine.program.EvalState` is the only implementation: a
state built with a parent (a snapshot's or a fork's) reads each cache own
entry first, then the parent's, and keeps everything it computes, evicts
and counts to itself. These tests pin

- every explain counter of one scripted session and of its snapshot, as
  the counters read before the state's caches and counter tables were
  unified (the plane-dependent families under ``kernels``, and their
  row-plane values without it);
- that snapshot reads which miss, and a fork's maintenance, leave every
  parent cache and counter as it was;
- that each bounded cache evicts its oldest half past its limit (one
  rule, ``runtime.bounded_store``);
- that a fully bound probe into a base relation (DRed's re-derivation of
  a one-row delete) reads the relation's row dict instead of building an
  index over the whole base.
"""

import pytest

from repro import Relation, connect
from repro.engine import runtime
from repro.engine.program import EvalState, RelProgram
from repro.engine.snapshot import SnapshotState
from repro.joins.planner import Atom
from repro.lang import parse_expression
from repro.model import columns

kernels = pytest.mark.skipif(
    not columns.KERNELS_AVAILABLE,
    reason="columnar kernels unavailable (no numpy or REPRO_COLUMNAR=off)")
row_plane = pytest.mark.skipif(
    columns.KERNELS_AVAILABLE, reason="columnar kernels available")

ACCESSORS = ("evaluation_counts", "join_statistics", "plan_statistics",
             "maintenance_statistics", "columnar_statistics")

SCHEMA = """
def TC(x, y) : E(x, y)
def TC(x, y) : exists((z) | E(x, z) and TC(z, y))
def Out(y) : E(0, y)
def Unreached(x) : V(x) and not TC(0, x)
def Tri(a, b, c) : G(a, b) and G(b, c) and G(a, c)
def Two(a, c) : exists((b) | H(a, b) and H(b, c))
def Wide(a, c) : exists((b) | W(a, b) and W(b, c))
def Late(x, z) : exists((y) | H(x, y) and TC(y, z))
def Cl[{R}] : R
def Cl[{R}] : {(x, y) : exists((z) | R(x, z) and Cl[R](z, y))}
ic small(x, q) requires Q(x, q) implies q < 9
"""

VIEWS = ("TC", "Out", "Unreached", "Tri", "Two", "Wide")


def _scripted():
    """Materialise a recursive and non-recursive views; a maintained
    insert, a recomputed stratum, a DRed delete and rule changes; columnar,
    binary and leapfrog joins; demand-driven instances; snapshot reads;
    one committed and one aborted transaction. Returns the session's and
    the snapshot's counters."""
    s = connect(load_stdlib=False, schema=SCHEMA)
    s.define("E", [(i, i + 1) for i in range(40)] + [(0, 7), (3, 1)])
    s.define("V", [(i,) for i in range(45)])
    s.define("Q", [(1, 2)])
    # Cyclic over >= 128 rows, some untypeable: leapfrog on either plane.
    s.define("G", [(i, (i * 7) % 50) for i in range(100)]
             + [("a%d" % i, "b%d" % i) for i in range(40)]
             + [(i, (i * 3) % 50) for i in range(60)])
    s.define("H", [(i, i + 1) for i in range(20)])  # small: binary
    s.define("W", [(i, (i * 5) % 300) for i in range(300)])  # columnar
    for name in VIEWS:
        s.relation(name)
    s.insert("E", [(41, 42)])
    s.insert("V", [(99,)])
    s.define("V", [(i,) for i in range(3)])  # replaces most: recomputed
    s.delete("E", [(3, 4)])
    s.load("def Out(y) : E(1, y)")
    s.load("def Two(a, c) : H(c, a)")
    s.execute("Cl[H]")
    for name in VIEWS:
        s.relation(name)
    s.load("def TC(x, y) : E(y, x) and x = 1000")
    s.load("def Late2(x) : exists((z) | Late(x, z))")
    snap = s.snapshot()
    for name in VIEWS:
        snap.relation(name)
    snap.execute("{(x) : TC(1, x) and E(x, _)}")
    snap.relation("Late2")
    snap.execute("Cl[H]")
    snap.execute("Cl[E]")
    assert s.transact("def insert(:Q, x, q) : x = 3 and q = 4").committed
    assert not s.transact("def insert(:Q, x, q) : x = 5 and q = 50").committed
    s.relation("TC")
    s.relation("Out")
    return {side: {name: getattr(obj, name)() for name in ACCESSORS}
            for side, obj in (("session", s), ("snapshot", snap))}


#: Counters that do not depend on the data plane.
PINNED = {
    "session": {
        "evaluation_counts": {"Late": 5, "Late2": 1, "Out": 4, "TC": 86,
                              "Tri": 1, "Two": 2, "Unreached": 5,
                              "Wide": 1},
        "maintenance_statistics": {"dropped_strata": 1,
                                   "full_invalidations": 1,
                                   "keyed_keys": 1,
                                   "keyed_strata": 1,
                                   "maintained_strata": 7,
                                   "overdeleted_tuples": 259,
                                   "rederived_tuples": 34},
        "plan_statistics": {"compiled": 49, "hits": 251, "invalidated": 16},
    },
    "snapshot": {
        "evaluation_counts": {"Late": 1, "Late2": 1, "TC": 37,
                              "Unreached": 1},
        "maintenance_statistics": {},
        "plan_statistics": {"compiled": 12, "hits": 221},
    },
}

#: The plane-dependent counters with the columnar kernels.
PINNED_KERNELS = {
    "session": {
        "join_statistics": {"binary": 46, "columnar": 48, "leapfrog": 1},
        "columnar_statistics": {"accumulate": 80, "dedupe": 54, "emit": 5,
                                "join": 48, "join_fallback": 1,
                                "project": 23, "relation_native": 168,
                                "union": 36},
    },
    "snapshot": {
        "join_statistics": {"binary": 22, "columnar": 17},
        "columnar_statistics": {"accumulate": 36, "dedupe": 109, "emit": 1,
                                "join": 17, "project": 37,
                                "relation_native": 71, "union": 74},
    },
}

#: The same without them (no numpy, or ``REPRO_COLUMNAR=off``).
PINNED_ROWS = {
    "session": {"join_statistics": {"binary": 91, "leapfrog": 4},
                "columnar_statistics": {"accumulate_fallback": 80}},
    "snapshot": {"join_statistics": {"binary": 39},
                 "columnar_statistics": {"accumulate_fallback": 36}},
}


def _families(counters, pinned):
    return {side: {name: counters[side][name] for name in families}
            for side, families in pinned.items()}


def test_counters_match_the_pin():
    assert _families(_scripted(), PINNED) == PINNED


@kernels
def test_plane_counters_match_the_pin():
    assert _families(_scripted(), PINNED_KERNELS) == PINNED_KERNELS


@row_plane
def test_row_plane_counters_match_the_pin():
    assert _families(_scripted(), PINNED_ROWS) == PINNED_ROWS


# -- parents are never written --------------------------------------------

CACHES = ("memo", "plans", "_indexes", "_tries", "_atom_indexes",
          "_skeletons")


def _parent_view(program):
    state = program._state
    caches = [dict(getattr(state, name)) for name in CACHES] + [
        dict(state.extents), dict(state.name_gen), dict(state.rule_gen)]
    return caches, {name: getattr(program, name)() for name in ACCESSORS}


def _assert_unchanged(program, before):
    caches, counters = _parent_view(program)
    assert counters == before[1]
    for now, then in zip(caches, before[0]):
        assert now.keys() == then.keys()
        assert all(now[key] is then[key] for key in now)


def _warm_session():
    s = connect(load_stdlib=False, schema="""
        def TC(x, y) : E(x, y)
        def TC(x, y) : exists((z) | E(x, z) and TC(z, y))
        def Tagged(y) : E(5, y)
        def Tri(a, b, c) : G(a, b) and G(b, c) and G(a, c)
        def Cl[{R}] : R
        def Cl[{R}] : {(x, y) : exists((z) | R(x, z) and Cl[R](z, y))}
    """)
    s.define("E", [(i, i + 1) for i in range(30)] + [(5, 9)])
    s.define("G", [(i, (i * 7) % 40) for i in range(90)]
                  + [("a%d" % i, "b%d" % i) for i in range(40)])
    for name in ("TC", "Tagged", "Tri"):
        s.relation(name)
    s.execute("Cl[E]")
    return s


def test_snapshot_misses_leave_the_parent_unchanged():
    s = _warm_session()
    before = _parent_view(s.program)
    snap = s.snapshot()
    # Every read below misses the parent's caches somewhere: new plans,
    # new prefix indexes, new tries and hash indexes, new memo entries.
    snap.execute("{(x, z) : TC(x, 3) and E(3, z)}")
    snap.execute("{(a, c) : G(a, 1) and G(1, c) and G(a, c)}")
    snap.execute("Cl[{(1, 2); (2, 3)}]")
    snap.execute("{(y) : E(7, y)}")
    assert snap.plan_statistics().get("compiled", 0) > 0
    _assert_unchanged(s.program, before)


def test_fork_maintenance_leaves_the_parent_unchanged():
    s = _warm_session()
    program, state = s.program, s.program._state
    before = _parent_view(program)
    fork = program.fork()
    fork.apply_updates({"E": (Relation([(30, 31), (5, 40)]),
                              Relation([(2, 3)]))})
    for name in ("TC", "Tagged", "Tri"):
        fork.relation(name)
    fork.query("Cl[E]")
    assert fork.maintenance_statistics().get("maintained_strata", 0) > 0
    assert program._state is state
    _assert_unchanged(program, before)


def test_snapshot_state_reads_through_to_its_parent():
    s = _warm_session()
    state = s.program._state
    child = SnapshotState(state)
    rel = s.program.base_relation("E")
    parent_index = state.index(rel, 1)
    assert child.index(rel, 1) is parent_index
    assert not child._indexes
    key = next(iter(state.memo))
    assert child.memo_get(key) is state.memo[key]
    assert not child.memo


# -- eviction --------------------------------------------------------------


class _Plan:
    sig = ()
    refs = frozenset()


def _fill(cache, store, n):
    """Store ``n`` entries through ``store(i)``; return the keys in the
    order they were added."""
    keys = []
    for i in range(n):
        before = set(cache)
        store(i)
        keys.extend(k for k in cache if k not in before)
    return keys


def _rels(n):
    return [Relation([(i, j) for j in range(3)]) for i in range(n)]


STORES = {
    "MEMO_LIMIT": ("memo", lambda state, objs, i:
                   state.memoize(((), i), Relation([(i,)]))),
    "PLAN_LIMIT": ("plans", lambda state, objs, i:
                   state.install_plan(("k", i), objs[i], _Plan())),
    "INDEX_LIMIT": ("_indexes", lambda state, objs, i:
                    state.index(objs[i], 1)),
    "TRIE_LIMIT": ("_tries", lambda state, objs, i:
                   state.sorted_trie(Atom(tuple(objs[i].rows()), ("a", "b"),
                                          objs[i]), (0, 1))),
    "ATOM_INDEX": ("_atom_indexes", lambda state, objs, i:
                   state.atom_index(Atom(tuple(objs[i].rows()), ("a", "b"),
                                         objs[i]), (0,))),
    "SKELETON_LIMIT": ("_skeletons", lambda state, objs, i:
                       state.skeleton(objs[i], lambda obj: i)),
}


@pytest.mark.parametrize("limit_name", sorted(STORES))
def test_each_state_cache_evicts_its_oldest_half(monkeypatch, limit_name):
    attr, store = STORES[limit_name]
    monkeypatch.setattr(EvalState,
                        "INDEX_LIMIT" if limit_name == "ATOM_INDEX"
                        else limit_name, 4)
    state = EvalState()
    objs = _rels(6)
    cache = getattr(state, attr)
    keys = _fill(cache, lambda i: store(state, objs, i), 4)
    assert list(cache) == keys
    keys += _fill(cache, lambda i: store(state, objs, i + 4), 1)
    # Five entries is past the limit of four: the oldest two are gone.
    assert list(cache) == keys[2:]


def test_variant_cache_evicts_its_oldest_half(monkeypatch):
    monkeypatch.setattr(RelProgram, "VARIANT_LIMIT", 4)
    program = RelProgram(load_stdlib=False, source="""
        def P(x) : A(x)
        def P(x) : B(x)
        def P(x) : C(x)
        def P(x) : D(x)
        def P(x) : F(x)
    """)
    rules = program.rules_of("P")
    watch = frozenset("ABCDF")
    for rule in rules:
        program.delta_variants_of(rule, watch)
    assert [key[0] for key in program._variant_cache] == \
        [id(rule) for rule in rules[2:]]


def test_literal_rule_cache_evicts_its_oldest_half(monkeypatch):
    monkeypatch.setattr(runtime, "_LITERAL_RULES", {})
    monkeypatch.setattr(runtime, "_LITERAL_RULE_LIMIT", 4)
    nodes = [parse_expression("(x) : x = %d" % i) for i in range(5)]
    for node in nodes:
        runtime.literal_rule(node)
    assert list(runtime._LITERAL_RULES) == [id(node) for node in nodes[2:]]


# -- a fully bound probe reads the row dict ----------------------------------


def test_one_row_delete_builds_no_index_over_the_base(monkeypatch):
    s = connect(load_stdlib=False, schema="def Out(y) : E(0, y)")
    s.define("E", [(i % 50, i) for i in range(1000)])
    s.relation("Out")
    built = []
    real_index = EvalState.index

    def spy(state, rel, prefix_len):
        built.append((len(rel), prefix_len))
        return real_index(state, rel, prefix_len)

    monkeypatch.setattr(EvalState, "index", spy)
    s.delete("E", [(0, 50)])
    assert s.maintenance_statistics()["overdeleted_tuples"] == 1
    # The only index is the one-row delta's; DRed's re-derivation probes
    # E(0, 50) fully bound, and that is a row-dict lookup.
    assert built == [(1, 1)]
    state = s.program._state
    base = s.program.base_relation("E")
    assert not [key for key, (pin, _) in state._indexes.items()
                if pin is base]
    monkeypatch.setattr(EvalState, "index", real_index)
    assert s.relation("Out") == Relation(
        [(y,) for y in range(0, 1000, 50) if y != 50])


@pytest.mark.parametrize("stored, probe, found", [
    ((1.0, 2), "R(1, 2)", True),       # 1 == 1.0
    ((True, 2), "R(1, 2)", False),     # True != 1
    ((1, 2), "R(true, 2)", False),
    (("a", 2), "R(\"a\", 2)", True),
])
def test_fully_bound_probe_keeps_value_semantics(stored, probe, found):
    s = connect(load_stdlib=False)
    s.define("R", [stored, (7, 8)])
    s.load(f"def Hit(k) : {probe} and k = 1")
    assert bool(s.relation("Hit")) is found
