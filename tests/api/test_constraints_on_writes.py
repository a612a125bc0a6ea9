"""Integrity constraints hold on every write, not only on transactions.

Every session writer ends in the same commit step (Sections 3.4–3.5: each
change to the database is a transaction, aborted when a constraint fails).
A violating write raises :class:`ConstraintViolation` — ``transact``
returns ``committed=False`` — and leaves no trace: the database and the
live extents are the same objects, the version, the published snapshot and
the WAL have not moved, and a reopened durable session never saw it.
"""

import time

import pytest

from repro import ConstraintViolation, RelProgram, Relation, connect

SCHEMA = """
def Stocked(x) : exists((q) | Qty(x, q))
ic positive(x, q) requires Qty(x, q) implies q > 0
ic ordered_in_stock(x) requires Order(x) implies Stocked(x)
"""

#: writer -> (violating write, the constraint it breaks, satisfying write).
WRITERS = {
    "define": (lambda s: s.define("Qty", [(1, 5), (2, -3)]), "positive",
               lambda s: s.define("Qty", [(1, 5), (2, 3), (3, 1)])),
    "insert": (lambda s: s.insert("Qty", [(3, -1)]), "positive",
               lambda s: s.insert("Qty", [(3, 1)])),
    "delete": (lambda s: s.delete("Qty", [(1, 5)]), "ordered_in_stock",
               lambda s: s.delete("Qty", [(2, 3)])),
    "apply_batch": (lambda s: s.apply_batch({"Qty": [(1, 5), (2, -3)]}),
                    "positive",
                    lambda s: s.apply_batch({"Qty": [(1, 5), (3, 1)]})),
    "bulk_load": (lambda s: s.bulk_load("Qty", [(4, -4), (5, 5)]),
                  "positive", lambda s: s.bulk_load("Qty", [(4, 4)])),
    "load": (lambda s: s.load("ic small(x, q) requires Qty(x, q) implies q < 4"),
             "small",
             lambda s: s.load("ic small(x, q) requires Qty(x, q) implies q < 9")),
    "transact": (
        lambda s: s.transact("def insert(:Qty, x, q) : x = 3 and q = -1"),
        "positive",
        lambda s: s.transact("def insert(:Qty, x, q) : x = 3 and q = 1")),
    "server_insert": (lambda s: s.serve().insert("Qty", [(3, -1)]).result(),
                      "positive",
                      lambda s: s.serve().insert("Qty", [(3, 1)]).result()),
    "server_delete": (lambda s: s.serve().delete("Qty", [(1, 5)]).result(),
                      "ordered_in_stock",
                      lambda s: s.serve().delete("Qty", [(2, 3)]).result()),
    "server_define": (
        lambda s: s.serve().define("Qty", [(1, -5)]).result(), "positive",
        lambda s: s.serve().define("Qty", [(1, 7)]).result()),
    "server_load": (
        lambda s: s.serve().load(
            "ic small(x, q) requires Qty(x, q) implies q < 4").result(),
        "small",
        lambda s: s.serve().load(
            "ic small(x, q) requires Qty(x, q) implies q < 9").result()),
    "server_transact": (
        lambda s: s.serve().transact(
            "def insert(:Qty, x, q) : x = 3 and q = -1").result(),
        "positive",
        lambda s: s.serve().transact(
            "def insert(:Qty, x, q) : x = 3 and q = 1").result()),
}

DURABILITY = ["memory", "durable"]


@pytest.fixture(params=DURABILITY)
def opened(request, tmp_path):
    """A warm session whose schema was loaded before its data existed."""
    path = tmp_path / "db" if request.param == "durable" else None
    session = connect(load_stdlib=False, schema=SCHEMA, path=path)
    session.define("Qty", [(1, 5), (2, 3)])
    session.define("Order", [(1,)])
    assert session.relation("Stocked") == Relation([(1,), (2,)])
    session.snapshot()  # publish eagerly from here on
    yield session, path
    session.close()


def _capture(session):
    state = session.program._state
    return {
        "database": dict(session.database.items()),
        "state": state,
        "extents": dict(state.extents),
        "constraints": session.program.constraints,
        "version": session.version,
        "snapshot": session.snapshot(),
        "wal_appends": session.storage_statistics().get("wal_appends"),
    }


def _assert_unchanged(session, before):
    database = dict(session.database.items())
    assert database.keys() == before["database"].keys()
    assert all(database[name] is before["database"][name]
               for name in database)
    state = session.program._state
    assert state is before["state"]
    assert state.extents.keys() == before["extents"].keys()
    assert all(state.extents[name] is before["extents"][name]
               for name in state.extents)
    assert session.program.constraints == before["constraints"]
    assert session.version == before["version"]
    assert session.snapshot() is before["snapshot"]
    assert session.storage_statistics().get("wal_appends") \
        == before["wal_appends"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_violating_write_changes_nothing(opened, writer):
    session, path = opened
    violate, constraint, _ = WRITERS[writer]
    before = _capture(session)
    if writer.endswith("transact"):
        result = violate(session)
        assert not result.committed and result.aborted_by == constraint
    else:
        with pytest.raises(ConstraintViolation) as raised:
            violate(session)
        assert raised.value.constraint == constraint
        assert raised.value.witnesses
    _assert_unchanged(session, before)
    if path is not None:
        session.close()
        reopened = connect(load_stdlib=False, path=path)
        try:
            assert dict(reopened.database.items()) == before["database"]
            assert reopened.program.constraints == before["constraints"]
        finally:
            reopened.close()


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_satisfying_write_commits(opened, writer):
    session, path = opened
    _, _, satisfy = WRITERS[writer]
    before = _capture(session)
    result = satisfy(session)
    if writer.endswith("transact"):
        assert result.committed
    assert session.version == before["version"] + 1
    after = dict(session.database.items())
    if path is not None:
        assert session.storage_statistics()["wal_appends"] \
            == before["wal_appends"] + 1
        session.close()
        reopened = connect(load_stdlib=False, path=path)
        try:
            assert dict(reopened.database.items()) == after
            assert len(reopened.program.constraints) \
                == len(session.program.constraints)
        finally:
            reopened.close()


def test_violation_names_the_first_failing_constraint_and_its_witnesses():
    session = connect({"Qty": [(1, 5)]}, load_stdlib=False,
                      schema=SCHEMA + "ic a_first(x, q) requires "
                                      "Qty(x, q) implies q != 0")
    with pytest.raises(ConstraintViolation) as raised:
        session.insert("Qty", [(2, 0), (3, -1)])
    assert raised.value.constraint == "a_first"
    assert raised.value.witnesses == Relation([(2, 0)])


def test_load_of_violating_constraint_is_not_added():
    session = connect({"Qty": [(1, 5)]}, load_stdlib=False)
    with pytest.raises(ConstraintViolation):
        session.load("def Extra(x) : Qty(x, _)\n"
                     "ic small(x, q) requires Qty(x, q) implies q < 4")
    assert session.program.constraints == []
    assert "Extra" not in session.names()
    session.insert("Qty", [(2, 9)])  # no constraint was kept


def test_coalesced_run_fails_only_the_violating_op(opened):
    session, _ = opened
    server = session.serve()
    batches = server.statistics()["write_batches"]
    with session._lock:
        # The writer blocks on the session lock inside this define, after
        # draining its queue: the three ops below form the next batch.
        first = server.define("Other", [(0,)])
        while not first.running():
            time.sleep(0.001)
        futures = [server.insert("Qty", [(3, 1)]),
                   server.insert("Qty", [(4, -4)]),
                   server.delete("Qty", [(2, 3)])]
    assert first.result() is None
    assert futures[0].result() is None
    with pytest.raises(ConstraintViolation):
        futures[1].result()
    assert futures[2].result() is None
    assert server.statistics()["write_batches"] == batches + 2
    assert session.relation("Qty") == Relation([(1, 5), (3, 1)])


def test_writes_without_constraints_never_fork(monkeypatch):
    forks = []
    real_fork = RelProgram.fork

    def counting(self):
        forks.append(self)
        return real_fork(self)

    monkeypatch.setattr(RelProgram, "fork", counting)
    session = connect({"Qty": [(1, 5)]}, load_stdlib=False,
                      schema="def Stocked(x) : exists((q) | Qty(x, q))")
    session.relation("Stocked")
    session.insert("Qty", [(2, -1)])
    session.delete("Qty", [(1, 5)])
    session.define("Order", [(1,)])
    session.apply_batch({"Qty": [(3, 3)], "Order": [(3,)]})
    session.bulk_load("Qty", [(4, 4)])
    session.load("def Ordered(x) : Order(x)")
    assert forks == []
    assert session.relation("Stocked") == Relation([(3,), (4,)])


def test_constraints_sharing_a_name_all_hold(opened):
    """Two ``ic``s declared under one name both hold: the later one does
    not replace the earlier one's violations."""
    session, _ = opened
    session.load("ic bounded(x, q) requires Qty(x, q) implies q < 9")
    session.load("ic bounded(x, q) requires Qty(x, q) implies q > 0")
    before = _capture(session)
    with pytest.raises(ConstraintViolation) as raised:
        session.insert("Qty", [(3, 50)])
    assert raised.value.constraint == "bounded"
    assert raised.value.witnesses == Relation([(3, 50)])
    _assert_unchanged(session, before)
    result = session.transact("def insert(:Qty, x, q) : x = 3 and q = 50")
    assert not result.committed and result.aborted_by == "bounded"
    assert result.violations["bounded"] == Relation([(3, 50)])
    _assert_unchanged(session, before)

    server = session.serve()
    with session._lock:
        # As above: the writer blocks in ``first``; the three ops below
        # form one coalesced batch.
        first = server.define("Other", [(0,)])
        while not first.running():
            time.sleep(0.001)
        futures = [server.insert("Qty", [(3, 1)]),
                   server.insert("Qty", [(4, 50)]),
                   server.insert("Qty", [(5, -5)])]
    assert first.result() is None
    assert futures[0].result() is None
    for future in futures[1:]:
        with pytest.raises(ConstraintViolation):
            future.result()
    assert session.relation("Qty") == Relation([(1, 5), (2, 3), (3, 1)])
