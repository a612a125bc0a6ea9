"""A log written by the retired bulk side-table format is refused, not guessed.

Bulk loads used to be able to keep their rows in ``tables.sqlite`` and log
only ``{"op": "bulk", "name": …, "batch": id}``. That format is gone: a bulk
record always carries its rows. A directory that still holds a batch-id
record must fail to open with a :class:`StorageError` that names the
segment, the batch id and the side-table file — never a ``KeyError``, never
a silent skip — and opening it must leave every byte on disk as it was.
"""

import re

import pytest

from repro import connect
from repro.storage import StorageError, recover_state, wal
from repro.storage.codec import dump_payload

RECORDS = [
    {"op": "bulk", "name": "E", "rows": [[1, 2]]},
    {"op": "bulk", "name": "E", "batch": 7},
]


def _directory_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture(params=[False, True], ids=["no-side-file", "side-file"])
def old_directory(request, tmp_path):
    segment = wal.segment_path(tmp_path, 1)
    segment.write_bytes(wal.WAL_MAGIC + b"".join(
        wal.frame_record(dump_payload(r)) for r in RECORDS))
    if request.param:
        (tmp_path / "tables.sqlite").write_bytes(b"not read")
    return tmp_path


def _refusal(directory):
    segment = wal.segment_path(directory, 1).name
    return pytest.raises(StorageError, match=re.escape(segment)
                         + r".*batch 7.*tables\.sqlite")


def test_recovery_refuses_a_batch_record(old_directory):
    before = _directory_bytes(old_directory)
    with _refusal(old_directory):
        recover_state(old_directory)
    assert _directory_bytes(old_directory) == before


def test_connect_refuses_before_writing(old_directory):
    before = _directory_bytes(old_directory)
    with _refusal(old_directory):
        connect(path=old_directory, load_stdlib=False)
    assert _directory_bytes(old_directory) == before
