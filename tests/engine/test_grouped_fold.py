"""Grouped aggregation as one operator ≡ one closure instance per group.

A ``reduce``-defined aggregate applied to many groups at once (``m =
sum[{(v) : R(k, v)}]``, ``sum[R[k]]`` per row) is folded in one pass
(``expand._fold_grouped``) instead of instantiating the closure per group.
The per-group path stays for closures of any other shape and is the oracle
here: every query runs three ways — the grouped operator, the per-group
path (recogniser patched to decline), and the Figures 3–4 reference
evaluator for the groups plus a literal left fold — with the columnar
kernels forced (``oracles.kernels_forced``), as shipped, and never
(``oracles.row_plane``); ``REPRO_COLUMNAR=off`` sweeps the same file in CI.
"""

import heapq
import random
import time
from collections import deque

import pytest

from support import oracles

from repro import QueryTimeoutError, Relation, connect
from repro.engine import expand
from repro.engine.program import EvalContext
from repro.engine.reference import ReferenceEvaluator
from repro.lang import parse_expression
from repro.model.values import row_key

MODES = ("on", "auto", "off")
ORACLES = {"on": (oracles.kernels_forced,), "auto": (),
           "off": (oracles.row_plane,)}

RULES = """
    def total[{A}] : reduce[add, A]
    def left_plus_twice(x, y, z) : z = x + 2 * y
    def skew[{A}] : reduce[left_plus_twice, A]
"""


# -- the oracle ---------------------------------------------------------------


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _both(x, y, fn):
    if (_number(x) and _number(y)) or (isinstance(x, str) and isinstance(y, str)):
        return fn(x, y)
    return None


#: aggregate name -> (binary operator, value folded per tuple or None for
#: the tuple's last element).
AGGREGATES = {
    "sum": (lambda x, y: _both(x, y, lambda a, b: a + b), None),
    "total": (lambda x, y: _both(x, y, lambda a, b: a + b), None),
    "count": (lambda x, y: x + y, 1),
    "min": (lambda x, y: _both(x, y, min), None),
    "max": (lambda x, y: _both(x, y, max), None),
    "skew": (lambda x, y: x + 2 * y if _number(x) and _number(y) else None,
             None),
}


def _fold_order(v):
    return (0, v) if _number(v) else (1, str(v))


def reference_groups(env, tuples_expr, n_keys):
    """``(key, distinct tuples)`` pairs of ``tuples_expr`` (whose first
    ``n_keys`` positions are the group key), evaluated by the reference
    evaluator."""
    rows = ReferenceEvaluator(env).evaluate(parse_expression(tuples_expr))
    groups = {}
    for row in rows:
        key, tup = row[:n_keys], row[n_keys:]
        members = groups.setdefault(row_key(key), (key, {}))[1]
        members.setdefault(row_key(tup), tup)
    return [(key, list(members.values())) for key, members in groups.values()]


def reference_aggregate(agg, groups):
    """``key + (value,)`` rows: each group's tuples folded left to right in
    the engine's canonical order (numbers ascending, then by text)."""
    op, constant = AGGREGATES[agg]
    rows = []
    for key, tuples in groups:
        values = sorted((constant if constant is not None else t[-1]
                         for t in tuples if t or constant is not None),
                        key=_fold_order)
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
            if acc is None:
                break
        if acc is not None:
            rows.append(key + (acc,))
    return Relation(rows)


def exact(rel):
    """Representation-exact listing: ``1``, ``1.0`` and ``True`` differ."""
    return sorted(repr(t) for t in rel.rows())


def session_for(env, mode, rules=RULES):
    session = oracles.under(connect(), *ORACLES[mode])
    for name, rel in env.items():
        session.define(name, rel)
    session.load(rules)
    return session


def decline(monkeypatch):
    """Force the per-group path: the recogniser finds nothing fold-shaped."""
    monkeypatch.setattr(expand, "_fold_shape", lambda closure, k: None)


def both_paths(monkeypatch, env, queries, mode, rules=RULES):
    """Each of ``queries`` through the grouped operator and through the
    per-group path (one session each); asserts that the two agree exactly
    and returns the results in order."""
    with monkeypatch.context() as patch:
        folds = []
        real = expand._fold_grouped
        patch.setattr(expand, "_fold_grouped",
                      lambda *a: folds.append(1) or real(*a))
        session = session_for(env, mode, rules)
        fast = []
        for query in queries:
            before = len(folds)
            fast.append(session.execute(query))
            assert len(folds) > before, \
                f"{query}: the grouped operator never ran"
    with monkeypatch.context() as patch:
        decline(patch)
        patch.setattr(expand, "_fold_grouped", None)  # must not be reached
        session = session_for(env, mode, rules)
        generic = [session.execute(query) for query in queries]
    for query, got, want in zip(queries, fast, generic):
        assert exact(got) == exact(want), query
    return fast


def three_ways(monkeypatch, env, query, mode, rules=RULES):
    return both_paths(monkeypatch, env, [query], mode, rules)[0]


# -- seeded differential ------------------------------------------------------

KEYS = [1, 2, 3, 1.0, 2.5, True, False, "a", "b"]

VALUE_POOLS = {
    "ints": [0, 1, 2, 3, 5, 8, -4, 13],
    "floats": [0.5, 1.25, -2.0, 3.0, 0.1, 0.2, 0.3, 1e-9],
    "int_float": [1, 1.0, 2, 2.5, 3.0, 4, -1, -1.0],
    "with_bools": [1, 2, True, False, 3, 0],
    "strings": ["x", "y", "zz", "", "a b"],
    "mixed": [1, "x", 2.0, True, "y", 3],
    "past_2_53": [2 ** 53 + 1, 2 ** 53 + 3, -(2 ** 53) - 5, 2 ** 60],
    "int64_overflow": [2 ** 62, 2 ** 62 + 1, 2 ** 62 + 2, 2 ** 63 - 1],
    "beyond_int64": [2 ** 64, 2 ** 64 + 1, 7],
}


def random_env(seed, pool):
    rng = random.Random(f"{seed}/{pool}")
    values = VALUE_POOLS[pool]
    keys = rng.sample(KEYS, 5)
    pairs = [(rng.choice(keys), rng.choice(values)) for _ in range(28)]
    triples = [(rng.choice(keys), rng.randrange(4), rng.choice(values))
               for _ in range(28)]
    return {
        "R": Relation(pairs),
        "L": Relation(triples),
        "K": Relation([(k,) for k in keys]),
        "Few": Relation([(v,) for v in values[:2]]),
    }


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("pool", sorted(VALUE_POOLS))
@pytest.mark.parametrize("seed", range(2))
def test_grouped_aggregates_agree_three_ways(monkeypatch, seed, pool, mode):
    env = random_env(seed, pool)
    cases = []  # (aggregate, query, the groups' tuples, key width)
    for agg in AGGREGATES:
        if agg == "skew" and pool in ("strings", "mixed"):
            continue  # 2 * "x" is not arithmetic: nothing to compare
        cases += [
            (agg, f"(k, m) : m = {agg}[{{(v) : R(k, v)}}]",
             "(k, v) : R(k, v)", 1),
            # a filter that empties some groups: they give no output row
            (agg, f"(k, m) : m = {agg}[{{(v) : R(k, v) and Few(v)}}]",
             "(k, v) : R(k, v) and Few(v)", 1),
            # arity 2: the last column of *distinct tuples* is folded
            (agg, f"(k, m) : m = {agg}[{{(o, v) : L(k, o, v)}}]",
             "(k, o, v) : L(k, o, v)", 1),
            # the per-row forms: one relation (or one abstraction over the
            # bound k) per binding
            (agg, f"(k, m) : K(k) and m = {agg}[R[k]]",
             "(k, v) : K(k) and R(k, v)", 1),
            (agg, f"(k, m) : K(k) and m = {agg}[(o, v) : L(k, o, v)]",
             "(k, o, v) : K(k) and L(k, o, v)", 1),
            # no grouping variable at all
            (agg, f"{agg}[R]", "(k, v) : R(k, v)", 0),
        ]
    results = both_paths(monkeypatch, env, [case[1] for case in cases], mode)
    groups = {}
    for (agg, query, tuples_expr, n_keys), got in zip(cases, results):
        if (tuples_expr, n_keys) not in groups:
            groups[tuples_expr, n_keys] = reference_groups(env, tuples_expr,
                                                           n_keys)
        want = reference_aggregate(agg, groups[tuples_expr, n_keys])
        assert got == want, (
            f"seed {seed} {pool} {mode}: {query}\n got {exact(got)}\n"
            f"want {exact(want)}")


@pytest.mark.parametrize("mode", MODES)
def test_value_arguments_run_the_matcher_over_all_groups(monkeypatch, mode):
    env = {"R": Relation([(1, 10), (1, 30), (2, 10), (3, 7), (True, 10)])}
    cases = {
        "(k) : min[{(v) : R(k, v)}] = 10": [(1,), (2,), (True,)],
        "(k) : min[{(v) : R(k, v)}](10)": [(1,), (2,), (True,)],
        "(k, m) : min[{(v) : R(k, v)}](m)":
            [(1, 10), (2, 10), (3, 7), (True, 10)],
        "(k) : max[{(v) : R(k, v)}](_)": [(1,), (2,), (3,), (True,)],
        "(k, m) : R(k, _) and m = max[R[k]] and count[R[k]](2)": [(1, 30)],
        "(k) : R(k, _) and sum[R[k]](40)": [(1,)],
        "(k) : R(k, _) and sum[R[k]]()": [],
    }
    for query, want in cases.items():
        got = three_ways(monkeypatch, env, query, mode)
        assert got == Relation(want), query


@pytest.mark.parametrize("mode", MODES)
def test_value_identity_keeps_groups_and_tuples_apart(monkeypatch, mode):
    """The HEAD repros: raw Python equality merged the ``True`` and ``1``
    groups (and tuples); both forms now give the ``R[k]`` answer."""
    env = {"R": Relation([(1, 10), (True, 20)]),
           "T": Relation([(1, 1), (1, True), (2, 0), (2, False)])}
    summed = three_ways(monkeypatch, env,
                        "(k, m) : m = sum[{(v) : R(k, v)}]", mode)
    assert exact(summed) == ["(1, 10)", "(True, 20)"]
    assert summed == three_ways(
        monkeypatch, env, "(k, m) : R(k, _) and m = sum[R[k]]", mode)
    counted = three_ways(monkeypatch, env,
                         "(k, m) : m = count[{(v) : T(k, v)}]", mode)
    assert exact(counted) == ["(1, 2)", "(2, 2)"]
    assert counted == three_ways(
        monkeypatch, env, "(k, m) : T(k, _) and m = count[T[k]]", mode)
    # The per-row twin: an abstraction over the bound k is one closure per
    # row, and closures capturing True and 1 were one instance (16 twice).
    env["L"] = Relation([(1, 0, 5), (True, 0, 7), (True, 1, 9)])
    assert exact(three_ways(
        monkeypatch, env, "(k, m) : R(k, _) and m = sum[(o, v) : L(k, o, v)]",
        mode)) == ["(1, 5)", "(True, 16)"]
    for query, tuples_expr, agg in [
            ("(k, m) : m = sum[{(v) : R(k, v)}]", "(k, v) : R(k, v)", "sum"),
            ("(k, m) : m = count[{(v) : T(k, v)}]", "(k, v) : T(k, v)",
             "count")]:
        assert three_ways(monkeypatch, env, query, mode) == \
            reference_aggregate(agg, reference_groups(env, tuples_expr, 1))


@pytest.mark.parametrize("mode", MODES)
def test_today_s_corner_cases_are_kept(monkeypatch, mode):
    env = {"S": Relation([(1, "b"), (1, "a"), (1, "c")]),
           "B": Relation([(1, 5), (1, True), (2, True), (3, 4)]),
           "U": Relation([(1,), (2,)])}
    # sum of strings concatenates, in the fold's canonical order
    assert three_ways(monkeypatch, env, "(k, m) : m = sum[{(v) : S(k, v)}]",
                      mode) == Relation([(1, "abc")])
    # a bool inside a numeric group: the group has no sum; alone, it is
    # its own fold
    assert exact(three_ways(monkeypatch, env,
                            "(k, m) : m = sum[{(v) : B(k, v)}]", mode)) == \
        ["(2, True)", "(3, 4)"]
    # count folds a constant, so the empty tuple counts; sum has no last
    # column to fold there
    assert three_ways(monkeypatch, env,
                      "(k, m) : U(k) and m = count[{() : U(k)}]",
                      mode) == Relation([(1, 1), (2, 1)])
    assert not three_ways(monkeypatch, env,
                          "(k, m) : U(k) and m = sum[{() : U(k)}]", mode)


def test_reduce_over_only_the_empty_tuple_is_empty():
    """``reduce[add, {()}]`` indexed an empty value list (IndexError)."""
    session = connect()
    assert not session.execute("sum[{()}]")
    assert not session.execute("reduce[add, {()}]")
    assert session.execute("count[{()}]") == Relation([(1,)])


# -- recursion ----------------------------------------------------------------


def random_digraph(seed, n=9, m=16):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        if u != v:
            edges.add((u, v))
    ring = [(i, i % n + 1) for i in range(1, n + 1) if seed % 2]  # cyclic
    return list(range(1, n + 1)), sorted(edges | set(ring))


def bfs(vertices, edges):
    out = {v: [] for v in vertices}
    for u, v in edges:
        out[u].append(v)
    dist = {}
    for s in vertices:
        dist[s, s] = 0
        todo = deque([s])
        while todo:
            u = todo.popleft()
            for v in out[u]:
                if (s, v) not in dist:
                    dist[s, v] = dist[s, u] + 1
                    todo.append(v)
    return dist, out


def dijkstra(weighted, source):
    out = {}
    for u, v, w in weighted:
        out.setdefault(u, []).append((v, w))
    best = {source: 0}
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > best.get(u, d):
            continue
        for v, w in out.get(u, ()):
            if d + w < best.get(v, d + w + 1):
                best[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return best


@pytest.mark.parametrize("forced_generic", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_recursive_min_against_bfs_and_dijkstra(monkeypatch, seed,
                                                forced_generic):
    if forced_generic:
        decline(monkeypatch)
    vertices, edges = random_digraph(seed)
    rng = random.Random(seed)
    weighted = [(u, v, rng.randrange(1, 9)) for u, v in edges]
    session = connect()
    session.define("V", [(v,) for v in vertices])
    session.define("E", edges)
    session.define("W", weighted)
    dist, out = bfs(vertices, edges)

    apsp = {(x, y, d) for (x, y), d in dist.items()}
    assert set(session.execute("APSP[V, E]").rows()) == apsp
    # The verbatim teaser also derives, on the diagonal, the shortest
    # cycle through x (through any successor that reaches back).
    cycles = {(x, x, 1 + min(dist[z, x] for z in out[x] if (z, x) in dist))
              for x in vertices if any((z, x) in dist for z in out[x])}
    assert set(session.execute("APSPteaser[V, E]").rows()) == apsp | cycles
    # Demand-driven SSSP takes seconds on the ringed graphs: a sparse one.
    sparse = rng.sample(edges, 9)
    session.define("Sparse", sparse)
    assert set(session.execute("SSSP[Sparse, 1]").rows()) == \
        {(y, d) for (x, y), d in bfs(vertices, sparse)[0].items() if x == 1}
    assert set(session.execute("WSP[W, 1]").rows()) == \
        set(dijkstra(weighted, 1).items())


def test_closure_extent_is_entered_per_round_not_per_group(monkeypatch):
    """44,419 entries a pass on the benchmark graph before this operator:
    one per (x, y) group per round. Now only the APSP instance itself."""
    vertices, edges = random_digraph(3, n=30, m=60)
    calls = []
    real = EvalContext.closure_extent
    monkeypatch.setattr(
        EvalContext, "closure_extent",
        lambda self, closure, *a, **kw:
            calls.append(closure.name) or real(self, closure, *a, **kw))
    session = connect()
    session.define("V", [(v,) for v in vertices])
    session.define("E", edges)
    rows = session.execute("APSP[V, E]")
    dist, _ = bfs(vertices, edges)
    assert len(rows) == len(dist) > 400
    assert len(calls) <= 100, len(calls)
    assert "min" not in calls


# -- maintenance --------------------------------------------------------------

VIEW_RULES = RULES + """
    def Total(k, m) : m = sum[{(o, v) : L(k, o, v)}]
    def Lowest(k, m) : K(k) and m = min[L[k]]
    def Lines(k, n) : n = count[{(o) : L(k, o, _)}]
    def Grand(m) : m = total[{(k, o, v) : L(k, o, v)}]
"""
VIEWS = ("Total", "Lowest", "Lines", "Grand")


@pytest.mark.parametrize("seed", range(6))
def test_aggregate_views_stay_equal_to_from_scratch(seed):
    rng = random.Random(seed)
    keys = [1, 2, 3, 2.0, True]

    def session_over(lines):
        return session_for({"L": lines, "K": Relation([(k,) for k in keys])},
                           "auto", VIEW_RULES)

    def random_line():
        return (rng.choice(keys), rng.randrange(3), rng.randrange(10))

    live = session_over(Relation([random_line() for _ in range(10)]))
    for view in VIEWS:
        live.relation(view)  # materialize, so updates are maintained
    for step in range(14):
        lines = live.relation("L")
        if lines and rng.random() < 0.45:
            live.delete("L", [rng.choice(sorted(lines.rows(), key=repr))])
        else:
            live.insert("L", [random_line()])
        fresh = session_over(live.relation("L"))
        for view in VIEWS:
            # Value identity, not representation: which of 2 / 2.0 a key
            # shows as depends on the order rows arrived in.
            assert live.relation(view) == fresh.relation(view), \
                f"seed {seed} step {step}: {view}"


# -- budgets ------------------------------------------------------------------


def test_deadline_abort_inside_the_operator_then_requery_is_exact(monkeypatch):
    """The PR 9 abort-then-requery twin: the deadline passes while the
    grouped operator runs (its checkpoint raises from inside the instance
    fixpoint); the next query must see no trace of the aborted one."""
    vertices, edges = random_digraph(5)
    session = connect()
    session.define("V", [(v,) for v in vertices])
    session.define("E", edges)
    real = expand._fold_grouped
    entered = []

    def slow(*args):
        entered.append(1)
        if len(entered) == 3:  # mid-fixpoint: two rounds already folded
            time.sleep(0.25)
        return real(*args)

    monkeypatch.setattr(expand, "_fold_grouped", slow)
    with pytest.raises(QueryTimeoutError):
        session.execute("APSP[V, E]", deadline=0.2)
    assert len(entered) == 3
    monkeypatch.setattr(expand, "_fold_grouped", real)
    dist, _ = bfs(vertices, edges)
    assert set(session.execute("APSP[V, E]").rows()) == \
        {(x, y, d) for (x, y), d in dist.items()}


# -- the recogniser -----------------------------------------------------------


def shape_of(session, name, k=1):
    return expand._fold_shape(session.program.closures[name], k)


def test_recogniser_reads_the_rule_not_the_name():
    session = connect()
    session.load("""
        def total[{A}] : reduce[add, A]
        def inferred[A] : reduce[maximum, A]
        def tally[{A}] : reduce[add, (A, 1, 2)]
        def by_user_op[{A}] : reduce[total, A]
        def sum_plus[{A}] : reduce[add, A] + 1
        def two_params[{A}, {F}] : reduce[F, A]
        def formula({A}, v) : reduce(add, A, v)
        def with_value[{A}, x] : reduce[add, (A, x)]
        def bool_const[{A}] : reduce[add, (A, true)]
        def other_rel[{A}] : reduce[add, V]
        def filtered[{A}] : reduce[add, (x) : A(x) and x > 1]
        def two_rules[{A}] : reduce[add, A]
        def two_rules[{A}] : reduce[minimum, A]
        def V(x) : x = 1
    """)
    for name in ("sum", "count", "min", "max", "total", "inferred", "tally",
                 "by_user_op"):
        assert shape_of(session, name) is not None, name
    assert shape_of(session, "count")[2] == (1,)
    assert shape_of(session, "tally")[2] == (1, 2)
    for name in ("avg", "Argmin", "argmin", "sum_plus", "formula",
                 "with_value", "bool_const", "other_rel", "filtered",
                 "two_rules", "TC"):
        assert shape_of(session, name) is None, name
    assert shape_of(session, "two_params", k=2) is None
    assert shape_of(session, "sum", k=0) is None


def test_a_redefined_closure_is_judged_again(monkeypatch):
    session = connect(load_stdlib=False)
    session.define("R", [(1, 4), (1, 6), (2, 5)])
    session.load("def agg[{A}] : reduce[add, A]")
    query = "(k, m) : m = agg[{(v) : R(k, v)}]"
    assert shape_of(session, "agg") is not None
    assert session.execute(query) == Relation([(1, 10), (2, 5)])
    # A second rule for the same name: no longer one fold, and the union
    # of both rules' values is what the per-group path computes.
    session.load("def agg[{A}] : reduce[maximum, A]")
    assert shape_of(session, "agg") is None
    monkeypatch.setattr(expand, "_fold_grouped", None)  # must not be reached
    assert session.execute(query) == \
        Relation([(1, 10), (1, 6), (2, 5)])
