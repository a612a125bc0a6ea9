"""The WAL format does not move: the payload bytes of the records a fixed
script of writes appends are pinned byte for byte, as the engine wrote
them before writes carried their deltas end to end, and a log made of
those bytes reopens to the state the script leaves.

A relation is logged as a columnar block when the columnar plane is
available and as a sorted row list when it is not (no numpy, or
``REPRO_COLUMNAR=off``), so each has its own expected bytes.
"""

import struct

import pytest

from repro import connect
from repro.model import columns
from repro.model.relation import Relation
from repro.storage import wal

COLUMNAR = [
    # define E
    b'{"op":"batch","updates":{"E":[{"c":{"cols":[[1,2,3],[2,3,4]],'
    b'"tags":["int","int"]}},[]]}}',
    # define Name
    b'{"op":"batch","updates":{"Name":[{"c":{"cols":[[1,2],[0,1]],'
    b'"strings":["ann","bob"],"tags":["int","str"]}},[]]}}',
    # one-row insert
    b'{"op":"batch","updates":{"E":[{"c":{"cols":[[4],[5]],'
    b'"tags":["int","int"]}},[]]}}',
    # one-row delete
    b'{"op":"batch","updates":{"E":[[],{"c":{"cols":[[1],[2]],'
    b'"tags":["int","int"]}}]}}',
    # apply_batch
    b'{"op":"batch","updates":{"E":[{"c":{"cols":[[6],[7]],'
    b'"tags":["int","int"]}},{"c":{"cols":[[4],[5]],"tags":["int","int"]}}],'
    b'"Flag":[{"c":{"cols":[[1,2],[true,false]],"tags":["int","bool"]}},[]]}}',
    # transact
    b'{"op":"batch","updates":{"Name":[{"c":{"cols":[[3],[0]],'
    b'"strings":["cy"],"tags":["int","str"]}},{"c":{"cols":[[1],[0]],'
    b'"strings":["ann"],"tags":["int","str"]}}],'
    b'"New":[{"c":{"cols":[[1.5]],"tags":["float"]}},[]]}}',
    # empty insert into a missing name
    b'{"op":"batch","updates":{"Empty":[[],[]]}}',
    # bulk_load
    b'{"name":"E","op":"bulk","rows":[[8,9],[2,3]]}',
]

ROWS = [
    b'{"op":"batch","updates":{"E":[[[1,2],[2,3],[3,4]],[]]}}',
    b'{"op":"batch","updates":{"Name":[[[1,"ann"],[2,"bob"]],[]]}}',
    b'{"op":"batch","updates":{"E":[[[4,5]],[]]}}',
    b'{"op":"batch","updates":{"E":[[],[[1,2]]]}}',
    b'{"op":"batch","updates":{"E":[[[6,7]],[[4,5]]],'
    b'"Flag":[[[1,true],[2,false]],[]]}}',
    b'{"op":"batch","updates":{"Name":[[[3,"cy"]],[[1,"ann"]]],'
    b'"New":[[[1.5]],[]]}}',
    b'{"op":"batch","updates":{"Empty":[[],[]]}}',
    b'{"name":"E","op":"bulk","rows":[[8,9],[2,3]]}',
]

FINAL = {
    "E": Relation([(2, 3), (3, 4), (6, 7), (8, 9)]),
    "Name": Relation([(2, "bob"), (3, "cy")]),
    "Flag": Relation([(1, True), (2, False)]),
    "New": Relation([(1.5,)]),
    "Empty": Relation(),
}


def script(session):
    session.define("E", [(1, 2), (2, 3), (3, 4)])
    session.define("Name", [(1, "ann"), (2, "bob")])
    session.insert("E", [(4, 5)])
    session.delete("E", [(1, 2)])
    session.apply_batch({"E": [(2, 3), (3, 4), (6, 7)],
                         "Flag": [(1, True), (2, False)]})
    result = session.transact(
        'def insert(:Name, x, y) : x = 3 and y = "cy"\n'
        'def delete(:Name, x, y) : Name(x, y) and x = 1\n'
        'def insert(:New, x) : x = 1.5')
    assert result.committed
    session.insert("Empty", [])
    session.delete("E", [(99, 99)])   # no-op: no record
    session.insert("E", [(2, 3)])     # duplicate: no record
    session.bulk_load("E", [(8, 9), (2, 3)])


def payloads(directory):
    """Every record payload of every segment, as raw bytes."""
    out = []
    for segment in wal.list_segments(directory):
        data = segment.read_bytes()
        offset = wal.HEADER_LEN
        while offset < len(data):
            length, _ = struct.unpack_from("<II", data, offset)
            out.append(data[offset + 8:offset + 8 + length])
            offset += 8 + length
    return out


def expected():
    return COLUMNAR if columns.available() else ROWS


def test_record_bytes_are_pinned(tmp_path):
    session = connect(path=tmp_path, load_stdlib=False,
                      checkpoint_every=None)
    script(session)
    assert dict(session.database.items()) == FINAL
    session.close()
    assert payloads(tmp_path) == expected()


@pytest.mark.parametrize("records", [COLUMNAR, ROWS],
                         ids=["columnar", "rows"])
def test_pinned_log_reopens_to_the_final_state(records, tmp_path):
    """A log holding exactly the pinned bytes (both encodings decode on
    either plane) recovers the script's final state."""
    segment = wal.segment_path(tmp_path, 1)
    segment.write_bytes(wal.WAL_MAGIC + b"".join(
        wal.frame_record(payload) for payload in records))
    session = connect(path=tmp_path, load_stdlib=False)
    assert dict(session.database.items()) == FINAL
    session.close()
