"""A write is its delta: every writer hands the commit step one net
``(plus, minus)`` per relation, and nothing on the way to the WAL, the
constraint fork and maintenance touches the whole base again.

- the write-cost pin counts whole-base set operations per one-row write;
- GNF is checked once per write, on the relation as the write leaves it;
- a coalesced server batch and the same ops as direct session calls leave
  the same names, contents and reopened state.
"""

import contextlib

import pytest

from repro import connect
from repro.db import gnf
from repro.db.gnf import GNFViolation
from repro.db.transaction import fold
from repro.model.relation import EMPTY, Relation, apply_delta
from repro.server import QueryServer, _WriteOp

N = 10_000

#: The Relation methods a whole-base cost goes through.
SET_OPERATIONS = ("union", "difference", "intersect", "__eq__", "__ne__")


@contextlib.contextmanager
def whole_base_operations(big: int):
    """Count the set operations and equality tests with an operand of at
    least ``big`` rows (the base; every other relation here is tiny)."""
    calls = []
    saved = {name: vars(Relation).get(name) for name in SET_OPERATIONS}

    def counted(name, fn):
        def wrapper(self, other):
            if len(self) >= big or (isinstance(other, Relation)
                                    and len(other) >= big):
                calls.append(name)
            return fn(self, other)
        return wrapper

    def ne(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    for name, fn in saved.items():
        setattr(Relation, name, counted(name, fn or ne))
    try:
        yield calls
    finally:
        for name, fn in saved.items():
            if fn is None:
                delattr(Relation, name)
            else:
                setattr(Relation, name, fn)


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_one_row_writes_touch_the_base_at_most_once(durable, tmp_path):
    """Per one-row write into a 10k-row base with a tiny dependent view:
    the install's union or difference, and for a delete DRed's pre-state
    overlay. The WAL record, the no-op rule and maintenance's entry all
    take the writer's delta as given."""
    path = tmp_path / "db" if durable else None
    session = connect(path=path, load_stdlib=False, checkpoint_every=None)
    session.define("E", [(i, i + 1) for i in range(N)])
    session.load("def V(y) : E(0, y)")
    assert session.relation("V") == Relation([(1,)])
    writes = [
        ("insert", lambda: session.insert("E", [(0, -1)]), 1,
         {(1,), (-1,)}),
        ("transact", lambda: session.transact(
            "def insert(:E, x, y) : x = 0 and y = -2"), 1,
         {(1,), (-1,), (-2,)}),
        ("delete", lambda: session.delete("E", [(0, -1)]), 2,
         {(1,), (-2,)}),
    ]
    for what, write, most, view in writes:
        with whole_base_operations(N // 2) as calls:
            write()
        assert len(calls) <= most, (what, calls)
        assert set(session.relation("V")) == view, what
    if durable:
        session.close()
        again = connect(path=path, load_stdlib=False)
        assert set(again.relation("V")) == {(1,), (-2,)}
        assert len(again.relation("E")) == N + 1
        again.close()


class TestFold:
    """The one no-op rule: what an insert or delete adds to a pending
    delta, relative to the base."""

    BASE = Relation([(1,), (2,)])

    def folded(self, *ops, base=BASE):
        changes = {}
        database = {} if base is None else {"R": base}
        for kind, rows in ops:
            assert fold(changes, kind, "R", Relation(rows), database) \
                is changes
        return changes

    def test_insert_keeps_only_new_rows(self):
        assert self.folded(("insert", [(2,), (3,)])) == \
            {"R": (Relation([(3,)]), EMPTY)}

    def test_delete_keeps_only_present_rows(self):
        assert self.folded(("delete", [(2,), (3,)])) == \
            {"R": (EMPTY, Relation([(2,)]))}

    def test_existing_name_no_op_leaves_no_entry(self):
        assert self.folded(("insert", [(1,)])) == {}
        assert self.folded(("delete", [(9,)])) == {}
        assert self.folded(("insert", [(9,)]), ("delete", [(9,)])) == {}
        assert self.folded(("delete", [(1,)]), ("insert", [(1,)])) == {}

    def test_missing_name_is_created_even_empty(self):
        assert self.folded(("insert", []), base=None) == {"R": (EMPTY, EMPTY)}
        assert self.folded(("insert", [(1,)]), ("delete", [(1,)]),
                           base=None) == {"R": (EMPTY, EMPTY)}

    def test_delete_from_missing_name_changes_nothing(self):
        assert self.folded(("delete", [(1,)]), base=None) == {}

    def test_value_semantics(self):
        """``True`` and ``1`` are different rows, ``1`` and ``1.0`` one."""
        assert self.folded(("insert", [(True,), (1.0,)])) == \
            {"R": (Relation([(True,)]), EMPTY)}

    def test_apply_delta_reaches_the_post_state(self):
        plus, minus = self.folded(("insert", [(3,)]),
                                  ("delete", [(1,)]))["R"]
        assert apply_delta(self.BASE, plus, minus) == Relation([(2,), (3,)])


class TestGNFOnce:
    @pytest.fixture
    def durable(self, tmp_path):
        session = connect(path=tmp_path / "db", load_stdlib=False,
                          enforce_gnf=True)
        session.define("R", [(1, 2), (2, 3)])
        yield session, tmp_path / "db"
        session.close()

    def test_define_may_change_the_arity(self, durable):
        """The check reads the relation as the write leaves it, not the
        arities of the old value and the new rows together."""
        session, path = durable
        session.define("R", [(1, 2, 3)])
        assert session.database["R"] == Relation([(1, 2, 3)])
        session.close()
        again = connect(path=path, load_stdlib=False, enforce_gnf=True)
        assert again.database["R"] == Relation([(1, 2, 3)])
        again.close()

    def test_wrong_arity_insert_is_refused_unlogged(self, durable):
        session, path = durable
        before = session.storage_statistics()["wal_appends"]
        version = session.version
        with pytest.raises(GNFViolation, match="mixed arities"):
            session.insert("R", [(7, 8, 9)])
        assert session.storage_statistics()["wal_appends"] == before
        assert session.version == version
        assert session.database["R"] == Relation([(1, 2), (2, 3)])
        session.close()
        again = connect(path=path, load_stdlib=False, enforce_gnf=True)
        assert again.database["R"] == Relation([(1, 2), (2, 3)])
        again.close()

    def test_each_write_is_checked_once(self, durable, monkeypatch):
        session, _ = durable
        seen = []
        original = gnf.gnf_violations
        monkeypatch.setattr(gnf, "gnf_violations",
                            lambda name, rel: seen.append(name)
                            or original(name, rel))
        session.define("R", [(1, 2, 3)])
        assert seen == ["R"]

    def test_no_functional_scan(self, monkeypatch):
        monkeypatch.setattr(Relation, "is_functional", None)
        gnf.check_gnf("R", Relation([(1, 2), (1, 3)]))


#: Each op sequence as one coalesced server batch ≡ direct session calls.
SCRIPTS = {
    "insert existing": [("insert", "E", [(3, 4)])],
    "delete existing": [("delete", "E", [(1, 2)])],
    "insert missing": [("insert", "New", [(1,)])],
    "delete missing": [("delete", "Missing", [(1,)])],
    "insert then delete": [("insert", "E", [(9, 9)]),
                           ("delete", "E", [(9, 9)])],
    "delete then insert": [("delete", "E", [(1, 2)]),
                           ("insert", "E", [(1, 2)])],
    "missing, insert then delete": [("insert", "New", [(1,)]),
                                    ("delete", "New", [(1,)])],
    "duplicate insert": [("insert", "E", [(1, 2)]),
                         ("insert", "E", [(5, 6)]),
                         ("insert", "E", [(5, 6)])],
    "empty insert missing": [("insert", "Empty", [])],
    "across names": [("insert", "E", [(7, 8)]),
                     ("delete", "S", [(1,)]),
                     ("insert", "S", [(2,), (3,)]),
                     ("delete", "E", [(2, 3), (7, 8)]),
                     ("delete", "Missing", [(1,)]),
                     ("insert", "S", [(1,)])],
}


def _open(path):
    session = connect(path=path, load_stdlib=False, checkpoint_every=None)
    session.load("def Path(x, y) : E(x, y)\n"
                 "def Path(x, y) : exists((z) | E(x, z) and Path(z, y))")
    return session


def _state(session):
    return (session.names(),
            {name: session.database[name] for name in sorted(session.database)},
            session.relation("Path"))


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_coalesced_batch_equals_one_by_one(script, tmp_path):
    ops = SCRIPTS[script]
    direct = _open(tmp_path / "direct")
    served = _open(tmp_path / "served")
    for session in (direct, served):
        session.define("E", [(1, 2), (2, 3)])
        session.define("S", [(1,)])
        session.relation("Path")  # materialised: maintenance runs
    for kind, name, rows in ops:
        getattr(direct, kind)(name, rows)
    server = QueryServer(served, threads=1)
    batch = [_WriteOp(kind, name, Relation(rows)) for kind, name, rows in ops]
    server._apply(batch)  # the writer thread's step, on one drained batch
    assert [op.future.result(timeout=10) for op in batch] == [None] * len(ops)
    assert server.statistics()["coalesced_ops"] == len(ops) - 1
    server.close()
    assert _state(served) == _state(direct)
    expected = _state(direct)
    direct.close()
    served.close()
    for where in ("direct", "served"):
        again = _open(tmp_path / where)
        assert _state(again) == expected, where
        again.close()
