"""Resource governance: EvalBudget deadlines, row/iteration caps, cancel.

The contract under test is two-sided. The *limit* side: a budgeted query
stops promptly — a 0.1 s deadline on a ≥10 s recursive workload aborts
within 0.5 s, row and iteration caps abort mid-fixpoint, and a budget
cancelled from another thread aborts the evaluation it governs. The
*consistency* side (the one that is easy to get wrong): an abort discards
every partially-materialized extent, so an immediate re-query returns
exactly what an untouched session would — pinned both on targeted
workloads and differentially over random update/abort/query scripts.
"""

import random
import threading
import time

import pytest

import repro
from repro import (EvalBudget, QueryBudgetError, QueryCancelledError,
                   QueryTimeoutError, Relation, RelProgram)
from repro.engine import budget as budget_mod
from tests.support.generators import (SCRIPT_BASE, SCRIPT_QUERIES,
                                      SCRIPT_RULES, random_update_op)

TC_SOURCE = """
    def Path(x, y) : Edge(x, y)
    def Path(x, y) : exists((z) | Edge(x, z) and Path(z, y))
"""


def _cycle_session(n):
    session = repro.connect(load_stdlib=False)
    session.define("Edge", [(i, (i + 1) % n) for i in range(n)])
    session.load(TC_SOURCE)
    return session


# ---------------------------------------------------------------------------
# Budget construction and validation
# ---------------------------------------------------------------------------


def test_budget_rejects_nonpositive_limits():
    for kwargs in ({"deadline": 0}, {"deadline": -1}, {"max_rows": 0},
                   {"max_iterations": -3}, {"check_interval": 0}):
        with pytest.raises(ValueError):
            EvalBudget(**kwargs)


def test_budget_and_deadline_are_mutually_exclusive():
    session = _cycle_session(4)
    with pytest.raises(ValueError):
        session.execute("Path", budget=EvalBudget(max_rows=5), deadline=1.0)


def test_unlimited_budget_never_trips():
    budget = EvalBudget()
    budget.tick(10_000)
    budget.count_rows(10 ** 9)
    for _ in range(100):
        budget.count_iteration()
    assert budget.remaining() is None


def test_remaining_tracks_the_deadline():
    budget = EvalBudget(deadline=60.0)
    remaining = budget.remaining()
    assert 0 < remaining <= 60.0


# ---------------------------------------------------------------------------
# The acceptance workload: deadline on a ≥10 s recursive query
# ---------------------------------------------------------------------------


def test_deadline_aborts_fast_and_requery_is_exact():
    """An n-cycle's transitive closure is all n² ordered pairs, so the
    post-abort re-query has a closed-form oracle — no second engine run
    needed to check it. The full evaluation takes ≥10 s at this size;
    the budgeted attempt must die within 0.5 s."""
    n = 800
    session = _cycle_session(n)
    started = time.monotonic()
    with pytest.raises(QueryTimeoutError):
        session.execute("Path", deadline=0.1)
    elapsed = time.monotonic() - started
    assert elapsed < 0.5, f"abort took {elapsed:.3f}s, promised < 0.5s"

    rows = session.execute("Path")
    assert len(rows) == n * n
    assert (0, n - 1) in rows and (n - 1, 0) in rows


def test_deadline_bounds_abort_latency_at_columnar_scale():
    """The satellite regression: tick() amortizes clock reads, but one
    columnar kernel call stands in for millions of row operations, so a
    kernel-heavy fixpoint used to overshoot a 0.1 s deadline by whole
    multiples at 10x scale. Kernel dispatches and conjunct boundaries now
    checkpoint unconditionally; pin the latency bound at a size where the
    amortized path alone would blow past it."""
    n = 2400
    session = _cycle_session(n)
    started = time.monotonic()
    with pytest.raises(QueryTimeoutError):
        session.execute("Path", deadline=0.1)
    elapsed = time.monotonic() - started
    assert elapsed < 0.5, f"abort took {elapsed:.3f}s, promised < 0.5s"


def test_deadline_scales_down_to_small_workloads():
    session = _cycle_session(60)
    with pytest.raises(QueryTimeoutError):
        session.execute("Path", deadline=0.0001)
    assert len(session.execute("Path")) == 60 * 60


# ---------------------------------------------------------------------------
# Row and iteration caps
# ---------------------------------------------------------------------------


def test_max_rows_aborts_and_requery_is_exact():
    session = _cycle_session(40)
    with pytest.raises(QueryBudgetError):
        session.execute("Path", budget=EvalBudget(max_rows=50))
    assert len(session.execute("Path")) == 40 * 40


def test_max_iterations_aborts_and_requery_is_exact():
    session = _cycle_session(40)
    with pytest.raises(QueryBudgetError):
        session.execute("Path", budget=EvalBudget(max_iterations=2))
    assert len(session.execute("Path")) == 40 * 40


def test_generous_budget_changes_nothing():
    session = _cycle_session(30)
    generous = EvalBudget(deadline=300.0, max_rows=10 ** 9,
                          max_iterations=10 ** 6)
    assert session.execute("Path", budget=generous) == \
        _cycle_session(30).execute("Path")


# ---------------------------------------------------------------------------
# Cross-thread cancellation
# ---------------------------------------------------------------------------


def test_cancel_from_another_thread_aborts():
    session = _cycle_session(400)
    budget = EvalBudget()
    threading.Timer(0.05, budget.cancel).start()
    started = time.monotonic()
    with pytest.raises(QueryCancelledError):
        session.execute("Path", budget=budget)
    assert time.monotonic() - started < 0.5
    assert budget.cancelled
    # A cancelled budget stays cancelled: reuse trips immediately.
    with pytest.raises(QueryCancelledError):
        session.execute("Path", budget=budget)
    assert len(session.execute("Path")) == 400 * 400


# ---------------------------------------------------------------------------
# Thread-local scoping
# ---------------------------------------------------------------------------


def test_budget_is_thread_local():
    """A budget installed on one thread must not throttle another."""
    session = _cycle_session(50)
    oracle = _cycle_session(50).execute("Path")
    errors = []
    results = []

    def clean_reader():
        try:
            results.append(session.execute("Path"))
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    tight = EvalBudget(max_rows=10)
    with budget_mod.scoped(tight):
        worker = threading.Thread(target=clean_reader)
        worker.start()
        worker.join()
    assert not errors
    assert results[0] == oracle


def test_scoped_none_suspends_an_outer_budget():
    budget = EvalBudget(max_rows=1)
    with budget_mod.scoped(budget):
        with budget_mod.scoped(None):
            assert budget_mod.active_budget() is None
            budget_mod.count_rows(100)  # no active budget: free
        assert budget_mod.active_budget() is budget
    assert budget_mod.active_budget() is None


def test_writes_are_not_throttled_by_a_read_budget():
    """Session mutators run with the budget suspended: an expired deadline
    must never abort incremental maintenance halfway through a write."""
    session = repro.connect(load_stdlib=False)
    session.load(TC_SOURCE)
    expired = EvalBudget(deadline=0.000001)
    time.sleep(0.01)
    with budget_mod.scoped(expired):
        session.insert("Edge", [(i, i + 1) for i in range(80)])
    assert len(session.execute("Path")) == 80 * 81 // 2


# ---------------------------------------------------------------------------
# Differential: random abort points leave the session exactly consistent
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_abort_then_requery_differential(seed):
    """Interleave random updates, randomly-budgeted queries (some abort,
    some not), and unbudgeted queries; after every step the session must
    agree with a twin that replayed the same updates with no budgets."""
    rng = random.Random(seed * 1009 + 7)
    session = repro.connect()
    twin = repro.connect()
    for s in (session, twin):
        for name, rows in SCRIPT_BASE.items():
            s.define(name, rows)
        s.load(SCRIPT_RULES)

    for _ in range(10):
        kind, name, tuples = random_update_op(rng)
        for s in (session, twin):
            if kind == "insert":
                s.insert(name, tuples)
            else:
                s.delete(name, tuples)
        query = rng.choice(SCRIPT_QUERIES)
        roll = rng.random()
        if roll < 0.4:
            budget = EvalBudget(max_rows=rng.choice([1, 3, 10]))
        elif roll < 0.6:
            budget = EvalBudget(max_iterations=1)
        else:
            budget = None
        if budget is not None:
            try:
                session.execute(query, budget=budget)
            except QueryBudgetError:
                pass
        assert session.execute(query) == twin.execute(query), \
            f"seed {seed}: {query!r} diverged after a budgeted abort"


# ---------------------------------------------------------------------------
# Aborts inside delete-rederive
# ---------------------------------------------------------------------------

#: A 12-ring with chords: every delete over-deletes paths that other routes
#: re-derive.
RING = [(i, (i + 1) % 12) for i in range(12)] + \
    [(i, (i + 3) % 12) for i in range(0, 12, 2)]
RING_DELETES = [[(0, 1)], [(4, 5), (6, 9)], [(2, 3)], [(8, 9), (10, 11)]]


def _ring_program():
    program = RelProgram(TC_SOURCE, load_stdlib=False)
    program.define("Edge", Relation(RING))
    program.relation("Path")
    return program


@pytest.mark.parametrize("limit", ["max_rows", "deadline"])
def test_abort_inside_seeded_rederive_then_requery(limit, monkeypatch):
    """Session writes suspend read budgets, so a budget reaches DRed only
    through the program-level write (``RelProgram.define``). Land an abort
    inside the seeded rederive of every delete of a delete-heavy script: no
    partial extent may stay installed, and the re-query must equal a twin
    that applied the same deletes unbudgeted. A probe program measures the
    rows charged before and during the rederive — which also pins that
    ``max_rows`` counts the seeded evaluation."""
    victim, probe, twin = (_ring_program() for _ in range(3))
    rederive = RelProgram._rederive_candidates
    log = {}

    def spy(self, *args):
        budget = budget_mod.active_budget()
        if self is probe:
            log.setdefault("entry", budget.rows)
            try:
                return rederive(self, *args)
            finally:
                log["exit"] = budget.rows
        if self is victim:
            if limit == "deadline" and "slept" not in log:
                log["slept"] = True
                time.sleep(budget.deadline)
            try:
                return rederive(self, *args)
            except QueryBudgetError:
                log["aborted_inside"] = True
                raise
        return rederive(self, *args)

    monkeypatch.setattr(RelProgram, "_rederive_candidates", spy)
    live = Relation(RING)
    for rows in RING_DELETES:
        log.clear()
        live = live.difference(Relation(rows))
        with budget_mod.scoped(EvalBudget(max_rows=10 ** 9)):
            probe.define("Edge", live)
        assert log["exit"] > log["entry"] + 1
        budget = EvalBudget(max_rows=log["entry"] + 1) \
            if limit == "max_rows" else EvalBudget(deadline=0.2)
        with pytest.raises(QueryBudgetError), budget_mod.scoped(budget):
            victim.define("Edge", live)
        assert log.get("aborted_inside"), rows
        twin.define("Edge", live)
        extents = victim._state.extents
        assert "Path" not in extents
        assert not [n for n in extents if n.startswith("__delta__")]
        assert victim.relation("Path") == twin.relation("Path") == \
            probe.relation("Path")
