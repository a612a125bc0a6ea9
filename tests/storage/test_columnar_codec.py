"""Columnar checkpoint blocks (PR 7/8): format, determinism, compatibility.

``encode_relation`` writes typed relations as contiguous per-column
blocks and everything else as the PR-6 row lists; ``decode_relation``
accepts both forever. These tests pin the format choice per relation
shape, byte determinism, exact value round-trips, and — the part users
depend on — that checkpoints written by either codec reopen under the
other.

PR 8 adds the interned string-table block variant (``str`` columns as
integer codes into one sorted per-block ``strings`` table, sharing the
process-wide interner on both encode and decode); the compatibility
matrix extends to three formats, all decodable forever. Encode writes
only the newest format, so the older two are produced here, test-side:
``columnar=False`` gives the row list, :func:`_inline_strings` the
pre-table block.
"""

import json

import pytest

from repro import Relation, connect
from repro.model import columns
from repro.model.values import Symbol
from repro.storage import codec

kernels = pytest.mark.skipif(
    not columns.KERNELS_AVAILABLE,
    reason="columnar kernels unavailable (no numpy or REPRO_COLUMNAR=off)")

_encode = codec.encode_relation


def _inline_strings(rel, *, columnar=None):
    """The PR-7 block: ``str`` columns spelled out row by row, no table."""
    enc = _encode(rel, columnar=columnar)
    if not isinstance(enc, dict) or "strings" not in enc["c"]:
        return enc
    block = enc["c"]
    table = block["strings"]
    return {"c": {"tags": block["tags"],
                  "cols": [[table[i] for i in col] if tag == "str" else col
                           for tag, col in zip(block["tags"], block["cols"])]}}


def _row_lists(rel, *, columnar=None):
    """The PR-6 format: every relation a sorted row list."""
    return _encode(rel, columnar=False)


#: Which writer each checkpoint format comes from; ``None`` is today's.
WRITERS = {"rows": _row_lists, "inline": _inline_strings, None: _encode}


@kernels
class TestFormatSelection:
    def test_typed_relations_become_blocks(self):
        enc = codec.encode_relation(Relation([(1, "a"), (2, "b")]))
        assert enc["c"]["tags"] == ["int", "str"]
        assert enc["c"]["cols"][0] == [1, 2]

    def test_untypeable_relations_stay_row_lists(self):
        for rel in (Relation([(1, 2), (1, 2, 3)]),     # mixed arity
                    Relation([(True,), (1,)]),          # bool/int column
                    Relation([(Symbol("s"),)]),         # tagged sort
                    Relation(),                         # empty
                    Relation([()])):                    # arity 0
            assert isinstance(codec.encode_relation(rel), list)

    def test_columnar_flag_forces_row_format(self):
        rel = Relation([(1,), (2,)])
        assert isinstance(codec.encode_relation(rel, columnar=False), list)
        assert isinstance(codec.encode_relation(rel), dict)


@kernels
class TestRoundTrip:
    CASES = [
        Relation([(1, "a"), (2, "b"), (1, "c")]),
        Relation([(True,), (False,)]),
        Relation([(1.5, -7), (2.0, 9)]),
        Relation([(i, float(i) / 2, f"s{i % 5}") for i in range(200)]),
    ]

    @pytest.mark.parametrize("rel", CASES)
    def test_block_round_trips_through_json(self, rel):
        payload = codec.dump_payload(codec.encode_relation(rel))
        assert codec.decode_relation(json.loads(payload)) == rel

    def test_bytes_deterministic_across_insertion_order(self):
        rows = [(3, "c"), (1, "a"), (2, "b")]
        a = codec.dump_payload(codec.encode_relation(Relation(rows)))
        b = codec.dump_payload(codec.encode_relation(Relation(rows[::-1])))
        assert a == b

    def test_value_types_survive(self):
        rel = Relation([(True, 7, 0.5, "x")])
        back = codec.decode_relation(codec.encode_relation(rel))
        row = next(iter(back.rows()))
        assert [type(v) for v in row] == [bool, int, float, str]

    def test_malformed_blocks_raise(self):
        with pytest.raises(codec.CodecError):
            codec.decode_relation({"c": {"tags": ["int"], "cols": []}})
        with pytest.raises(codec.CodecError):
            codec.decode_relation({"x": 1})


@kernels
class TestInternedStringTables:
    REL = Relation([(i % 7, f"name-{i % 5}", float(i)) for i in range(40)])

    def test_str_blocks_carry_a_sorted_table(self):
        enc = codec.encode_relation(self.REL)
        block = enc["c"]
        assert block["strings"] == sorted(f"name-{i}" for i in range(5))
        # str columns hold small local codes, not strings
        str_col = block["cols"][block["tags"].index("str")]
        assert set(str_col) <= set(range(5))

    def test_interned_block_round_trips(self):
        payload = codec.dump_payload(codec.encode_relation(self.REL))
        back = codec.decode_relation(json.loads(payload))
        assert back == self.REL
        # the reopen fast path: the decoded relation is columnar-native
        assert back.columns() is not None

    def test_bool_columns_round_trip_alongside_strings(self):
        rel = Relation([(True, "t"), (False, "t"), (True, "f")])
        back = codec.decode_relation(codec.encode_relation(rel))
        assert back == rel
        assert {type(r[0]) for r in back.rows()} == {bool}

    def test_bytes_deterministic_regardless_of_interner_history(self):
        # Interner codes depend on process history; the sorted table must
        # erase that — same rows, same bytes, whatever was interned first.
        rows = [(1, "zeta"), (2, "alpha"), (3, "mu")]
        a = codec.dump_payload(codec.encode_relation(Relation(rows)))
        Relation([(9, "omega-first")]).columns()  # shift the interner
        b = codec.dump_payload(codec.encode_relation(Relation(rows[::-1])))
        assert a == b

    def test_str_free_blocks_carry_no_table(self):
        enc = codec.encode_relation(Relation([(1, 2.5), (3, 4.5)]))
        assert "strings" not in enc["c"]

    def test_intern_tables_flag_forces_inline_strings(self):
        # Encode has no inline-string switch any more; the pre-table block
        # it used to write must still decode.
        enc = _inline_strings(self.REL)
        assert "strings" not in enc["c"]
        assert "name-0" in enc["c"]["cols"][enc["c"]["tags"].index("str")]
        assert codec.decode_relation(json.loads(codec.dump_payload(enc))) \
            == self.REL

    def test_decode_without_kernels_resolves_through_the_table(self):
        enc = codec.encode_relation(self.REL)
        real = columns.available
        columns.available = lambda: False
        try:
            back = codec.decode_relation(json.loads(codec.dump_payload(enc)))
        finally:
            columns.available = real
        assert back == self.REL


class TestCheckpointCompatibility:
    """A checkpoint in any format reopens under today's writer and under
    the older ones (``encode_relation`` is patched where WALs and
    checkpoints call it)."""

    def _write(self, path, monkeypatch, writer):
        monkeypatch.setattr(codec, "encode_relation", WRITERS[writer])
        session = connect(path=path, load_stdlib=False)
        session.define("E", [(i, i + 1) for i in range(50)])
        session.insert("E", [(99, 0)])
        session.load("def P(x) : exists((y) | E(x, y))")
        session.checkpoint()
        session.close()

    def _reopen_and_check(self, path, monkeypatch, writer):
        monkeypatch.setattr(codec, "encode_relation", WRITERS[writer])
        session = connect(path=path, load_stdlib=False)
        assert len(session.relation("E")) == 51
        assert (99, 0) in session.relation("E")
        assert len(session.relation("P")) == 51
        session.close()

    def test_row_checkpoint_reopens_under_columnar(self, tmp_path,
                                                   monkeypatch):
        self._write(tmp_path / "db", monkeypatch, "rows")
        self._reopen_and_check(tmp_path / "db", monkeypatch, None)

    @kernels
    def test_columnar_checkpoint_reopens_under_row_codec(self, tmp_path,
                                                         monkeypatch):
        self._write(tmp_path / "db", monkeypatch, None)
        self._reopen_and_check(tmp_path / "db", monkeypatch, "rows")

    @kernels
    @pytest.mark.parametrize("write_interned", [True, False])
    def test_string_checkpoints_reopen_across_intern_formats(
            self, tmp_path, monkeypatch, write_interned):
        rows = [(i, f"label-{i % 9}") for i in range(80)]
        monkeypatch.setattr(codec, "encode_relation",
                            WRITERS[None if write_interned else "inline"])
        session = connect(path=tmp_path / "db", load_stdlib=False)
        session.define("S", rows)
        session.checkpoint()
        session.close()
        # Decode reads whichever block it finds, whatever encode writes.
        monkeypatch.setattr(codec, "encode_relation",
                            WRITERS["inline" if write_interned else None])
        session = connect(path=tmp_path / "db", load_stdlib=False)
        assert session.relation("S") == Relation(rows)
        session.close()
