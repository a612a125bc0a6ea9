"""The append-only accumulator behind the semi-naive round loop.

``columns.Accumulator`` must be an exact stand-in for "difference against
the extent, then union into it": every absorb returns exactly the rows the
accumulated relation lacked (in ``row_key`` space), every handed-out view
stays the relation it was, and anything it cannot answer exactly it
declines (``None``) so the caller can fall back to Relation algebra. Both
membership paths are covered — the set-kernel pass of the first rounds and
the hashed sorted-run index built once those passes have cost enough.

Skipped when the kernels are unavailable (no numpy, or the
``REPRO_COLUMNAR=off`` ablation run), where the accumulator never starts.
"""

import random

import pytest

from repro.model import columns
from repro.model.relation import EMPTY, Relation
from repro.model.values import row_key

pytestmark = pytest.mark.skipif(
    not columns.KERNELS_AVAILABLE,
    reason="columnar kernels unavailable (no numpy or REPRO_COLUMNAR=off)")


def native(rows):
    """A columnar-native relation over ``rows`` (as fixpoint rounds make)."""
    return Relation.from_columns(columns.ColumnSet.from_rows(list(rows)))


def keys(rel):
    return {row_key(t) for t in rel}


def index_built(acc):
    return acc._runs is not None


class Oracle:
    """Difference-then-union on row keys, side by side with an accumulator."""

    def __init__(self, start=EMPTY):
        self.acc = columns.Accumulator.start(start)
        self.seen = keys(start)

    def absorb(self, rows):
        fresh = self.acc.absorb(native(rows) if rows else EMPTY)
        want = {row_key(t) for t in rows} - self.seen
        assert keys(fresh) == want and len(fresh) == len(want)
        self.seen |= want
        assert keys(self.acc.view) == self.seen
        assert len(self.acc.view) == len(self.seen)
        return fresh


def pairs(rng, n, hi=60):
    return list({(rng.randrange(-hi, hi), rng.randrange(hi))
                 for _ in range(n)})


class TestGrowth:
    def test_absorb_keeps_only_fresh_rows_on_both_paths(self):
        rng = random.Random(1)
        oracle = Oracle()
        oracle.absorb(pairs(rng, 200))
        for _ in range(40):
            oracle.absorb(pairs(rng, rng.randint(1, 30)))
        assert index_built(oracle.acc)

    def test_earlier_views_survive_later_absorbs_and_regrowth(self):
        rng = random.Random(2)
        oracle = Oracle(native(pairs(rng, 50)))
        pinned = [(oracle.acc.view, sorted(oracle.acc.view))]
        frontiers = []
        for _ in range(30):
            fresh = oracle.absorb(pairs(rng, 25, hi=200))
            frontiers.append((fresh, sorted(fresh)))
            pinned.append((oracle.acc.view, sorted(oracle.acc.view)))
        # Thirty appends of up to 25 rows over 50 regrow the buffers
        # several times; no earlier prefix or frontier may have moved.
        for view, rows in pinned + frontiers:
            assert sorted(view) == rows
        assert index_built(oracle.acc)

    def test_views_are_read_only(self):
        acc = columns.Accumulator.start(EMPTY)
        acc.absorb(native([(1, 2), (3, 4)]))
        with pytest.raises(ValueError):
            acc.view.columns().arrays[0][0] = 9

    def test_start_copies_instead_of_writing_into_the_extent(self):
        extent = native([(1, 2), (3, 4)])
        before = [arr.copy() for arr in extent.columns().arrays]
        acc = columns.Accumulator.start(extent)
        acc.absorb(native([(5, 6)]))
        assert acc.view is not extent and sorted(extent) == [(1, 2), (3, 4)]
        assert all((a == b).all()
                   for a, b in zip(extent.columns().arrays, before))

    def test_nothing_fresh_returns_the_identical_view(self):
        rng = random.Random(3)
        start = native(pairs(rng, 100))
        acc = columns.Accumulator.start(start)
        assert acc.absorb(native(list(start)[:10])) is EMPTY
        assert acc.view is start
        acc.absorb(native([(1000, 1000)]))
        view = acc.view
        for _ in range(6):  # past the switch to the index
            assert acc.absorb(native([(1000, 1000), list(start)[0]])) is EMPTY
            assert acc.view is view
        assert index_built(acc)

    def test_appended_is_the_suffix_since_start(self):
        start = native([(1, 1), (2, 2)])
        acc = columns.Accumulator.start(start)
        assert acc.appended() is EMPTY
        acc.absorb(native([(2, 2), (3, 3)]))
        acc.absorb(native([(4, 4), (3, 3)]))
        assert sorted(acc.appended()) == [(3, 3), (4, 4)]


class TestValuePools:
    """Each pool is either answered exactly or declined."""

    def test_bool_and_int_columns_never_merge(self):
        acc = columns.Accumulator.start(native([(1,), (2,)]))
        assert acc.absorb(native([(True,)])) is None

    def test_int_against_float_declines(self):
        acc = columns.Accumulator.start(native([(1,), (2,)]))
        assert acc.absorb(native([(1.0,), (2.5,)])) is None
        big = 2 ** 53 + 1
        acc = columns.Accumulator.start(native([(big,)]))
        assert acc.absorb(native([(float(big),)])) is None
        assert acc.view is not None and sorted(acc.view) == [(big,)]

    def test_dict_backed_int_in_float_column_declines(self):
        # (1,) beside (2.5,) types as float64: appending it would rewrite
        # the stored 1 as 1.0.
        assert columns.Accumulator.start(Relation([(1,), (2.5,)])) is None
        acc = columns.Accumulator.start(native([(0.5,)]))
        assert acc.absorb(Relation([(1,), (2.5,)])) is None
        assert acc.absorb(Relation([(1.0,), (2.5,)])) is not None

    def test_negative_zero_is_zero(self):
        oracle = Oracle(native([(0.0, 1.5)]))
        assert oracle.absorb([(-0.0, 1.5)]) is EMPTY
        for i in range(8):  # switch to the index, then probe it
            oracle.absorb([(float(i + 2), 0.0)])
        assert index_built(oracle.acc)
        assert oracle.absorb([(-0.0, 1.5), (2.0, -0.0)]) is EMPTY

    def test_strings(self):
        rng = random.Random(4)
        oracle = Oracle()
        words = [f"w{i}" for i in range(40)]
        for _ in range(25):
            oracle.absorb(list({(rng.choice(words), rng.choice(words))
                                for _ in range(rng.randint(1, 20))}))
        assert index_built(oracle.acc)

    def test_bool_columns(self):
        oracle = Oracle()
        oracle.absorb([(True, 1), (False, 1)])
        for i in range(10):
            oracle.absorb([(True, i), (False, i + 1)])
        assert index_built(oracle.acc)

    def test_untypeable_rows_decline(self):
        assert columns.Accumulator.start(Relation([(1,), (True,)])) is None
        acc = columns.Accumulator.start(EMPTY)
        assert acc.absorb(Relation([(1,), (1, 2)])) is None


def test_constant_row_hash_is_still_exact(monkeypatch):
    monkeypatch.setattr(
        columns, "_row_hashes",
        lambda tags, arrays: columns._np.zeros(len(arrays[0]),
                                               dtype=columns._np.uint64))
    rng = random.Random(5)
    oracle = Oracle()
    oracle.absorb(pairs(rng, 40, hi=12))
    for _ in range(30):
        oracle.absorb(pairs(rng, rng.randint(1, 8), hi=12))
    assert index_built(oracle.acc)
