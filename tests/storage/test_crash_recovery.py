"""The kill-at-random-offset harness: recovery equals the committed prefix.

For each seeded script we drive a durable session through a random
insert/delete/bulk sequence (ops drawn from
:func:`tests.support.generators.random_update_op`), keeping a plain-dict
oracle of the base state after every *committed record*. Then the final
WAL segment is truncated at **every byte boundary of its final record**
(and, cheaply, at every record boundary before that), and
:func:`repro.storage.recover_state` must return exactly the oracle state
of the record prefix that survived the cut — never a partial record, never
a lost committed one.

Checkpoint interleavings are part of the matrix: some seeds checkpoint
every few records, so the truncated tail sits on top of a checkpoint and
recovery has to merge both correctly.

``recover_state`` is a pure read-only function, which is what makes the
~hundreds of recoveries per seed affordable; the end-to-end ``connect``
path is exercised once per seed on the untruncated directory.
"""

import random

import pytest

from repro import connect
from repro.model.relation import EMPTY, Relation
from repro.storage import wal
from repro.storage.errors import WALCorruptionError
from repro.storage.recovery import recover_state
from tests.support.generators import SCRIPT_ARITIES, random_update_op

N_SEEDS = 30
OPS_PER_SCRIPT = 12


def _apply_oracle(oracle, kind, name, tuples):
    """Mirror one op on the plain-dict oracle; True when state changed."""
    old = oracle.get(name, EMPTY)
    if kind == "insert" or kind == "bulk":
        new = old.union(Relation(tuples))
    else:
        new = old.difference(Relation(tuples))
    if new == old and (name in oracle or kind == "delete"):
        return False
    oracle[name] = new
    return True


def _run_script(seed, directory):
    """Drive one seeded script; returns oracle states per committed record.

    ``states[i]`` is the base mapping after the first ``i`` WAL records
    (counting across all segments and the checkpoint they fold into)."""
    rng = random.Random(seed)
    checkpoint_every = rng.choice([0, 0, 3, 5])
    fsync = rng.choice(["batch", "never"])
    session = connect(path=directory, load_stdlib=False, fsync=fsync,
                      checkpoint_every=checkpoint_every)
    oracle = {}
    states = [dict(oracle)]
    for _ in range(OPS_PER_SCRIPT):
        kind, name, tuples = random_update_op(rng)
        if kind == "insert" and rng.random() < 0.2:
            kind = "bulk"
        before = dict(oracle)
        changed = _apply_oracle(oracle, kind, name, tuples)
        if kind == "insert":
            session.insert(name, tuples)
        elif kind == "delete":
            session.delete(name, tuples)
        else:
            rng.random()  # kept so every seeded script stays the same
            session.bulk_load(name, tuples)
        # Only state-changing ops append a record; a no-op leaves the
        # record count (and therefore the truncation map) untouched.
        if changed:
            states.append(dict(oracle))
        else:
            assert oracle == before
    session.close()
    return states


def _frame_offsets(path):
    """Byte offsets of every record boundary in one segment (header at 0
    to the segment end), by rescanning prefix lengths."""
    data = path.read_bytes()
    offsets = [wal.HEADER_LEN]
    import struct
    pos = wal.HEADER_LEN
    while pos < len(data):
        length, _ = struct.unpack_from("<II", data, pos)
        pos += 8 + length
        offsets.append(pos)
    assert pos == len(data), "segment ended mid-frame before truncation"
    return offsets


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_every_torn_tail_recovers_the_committed_prefix(tmp_path, seed):
    directory = tmp_path / "db"
    states = _run_script(seed, directory)
    total_records = len(states) - 1

    clean = recover_state(directory)
    assert clean.base == states[-1], "clean recovery must equal the oracle"
    assert clean.torn_bytes == 0

    segments = wal.list_segments(directory)
    assert segments, "script must leave a live segment"
    final = segments[-1]
    original = final.read_bytes()
    offsets = _frame_offsets(final)
    records_in_final = len(offsets) - 1
    earlier = total_records - records_in_final  # checkpoint + prior segments

    try:
        # Every record boundary of the final segment: the coarse sweep.
        for kept, boundary in enumerate(offsets):
            final.write_bytes(original[:boundary])
            state = recover_state(directory)
            assert state.base == states[earlier + kept], \
                f"seed {seed}: cut at record boundary {kept}"
        if records_in_final:
            # Every *byte* boundary of the final record: the fine sweep.
            last_start = offsets[-2]
            for cut in range(last_start, len(original)):
                final.write_bytes(original[:cut])
                state = recover_state(directory)
                assert state.base == states[earlier + records_in_final - 1], \
                    f"seed {seed}: cut at byte {cut} resurrected a " \
                    f"partial record"
                assert state.torn_bytes == cut - last_start
                assert state.tail_good_bytes == last_start
    finally:
        final.write_bytes(original)


@pytest.mark.parametrize("seed", range(0, N_SEEDS, 7))
def test_corrupted_final_record_recovers_the_prefix(tmp_path, seed):
    """Bit flips (not just truncation) in the final record are dropped."""
    directory = tmp_path / "db"
    states = _run_script(seed, directory)
    segments = wal.list_segments(directory)
    final = segments[-1]
    original = final.read_bytes()
    offsets = _frame_offsets(final)
    if len(offsets) < 2:
        pytest.skip("seed left an empty final segment")
    last_start = offsets[-2]
    rng = random.Random(seed * 977)
    try:
        for _ in range(10):
            data = bytearray(original)
            where = rng.randrange(last_start, len(original))
            data[where] ^= 1 << rng.randrange(8)
            final.write_bytes(bytes(data))
            state = recover_state(directory)
            # Either the flip broke the record (CRC/codec: prefix state)
            # or it survived framing by landing in the payload *and*
            # colliding CRC-32 — which a single bit flip cannot.
            assert state.base == states[len(states) - 2], \
                f"seed {seed}: flip at byte {where} not detected"
    finally:
        final.write_bytes(original)


def test_damage_before_the_tail_refuses_to_recover(tmp_path):
    """A bad frame followed by more segments is corruption, not a crash."""
    directory = tmp_path / "db"
    session = connect(path=directory, load_stdlib=False, checkpoint_every=0)
    session.insert("E", [(1, 2)])
    session.checkpoint()  # rotates: segment 1 covered, segment 2 live
    session.insert("E", [(3, 4)])
    session.close()
    # Forge damage in a non-final position: re-create a pre-checkpoint
    # segment with a torn record, after the checkpoint that covered it...
    segments = wal.list_segments(directory)
    assert len(segments) == 1
    live = segments[-1]
    # ...by appending a *second* segment after damaging the live one.
    data = live.read_bytes()
    live.write_bytes(data[:-3])
    nxt = wal.segment_path(directory, wal.segment_index(live) + 1)
    writer = wal.WALWriter(nxt)
    writer.append({"op": "load", "source": "def x = 1"})
    writer.close()
    with pytest.raises(WALCorruptionError):
        recover_state(directory)


def test_reopen_after_torn_tail_appends_cleanly(tmp_path):
    """The manager truncates the torn bytes, so post-crash writes land
    after the last committed record instead of behind garbage."""
    directory = tmp_path / "db"
    session = connect(path=directory, load_stdlib=False, checkpoint_every=0)
    session.insert("E", [(1, 2)])
    session.insert("E", [(3, 4)])
    session.close()
    final = wal.list_segments(directory)[-1]
    final.write_bytes(final.read_bytes()[:-5])  # tear the last record

    reopened = connect(path=directory, load_stdlib=False,
                       checkpoint_every=0)
    assert reopened.relation("E") == Relation([(1, 2)])
    stats = reopened.storage_statistics()
    assert stats["recoveries"] == 1
    assert stats["replayed_records"] == 1
    reopened.insert("E", [(5, 6)])
    reopened.close()

    third = connect(path=directory, load_stdlib=False)
    assert third.relation("E") == Relation([(1, 2), (5, 6)])
    third.close()


# ---------------------------------------------------------------------------
# Scripted fault injection: every hook point, recovery = committed prefix
# ---------------------------------------------------------------------------

import errno

from repro.storage import FaultInjector, faults
from repro.storage.errors import CheckpointError

#: (hook op, errno) pairs the fault matrix sweeps. ``write`` models a disk
#: that fills mid-append, the others a device that starts erroring.
FAULT_MATRIX = [
    ("write", errno.ENOSPC),
    ("fsync", errno.EIO),
    ("rename", errno.EIO),
    ("open", errno.EIO),
]

FAULT_SEEDS = range(6)
FAULT_OPS_PER_SCRIPT = 8


def _run_faulted_script(seed, directory, op, err, after, partial):
    """Drive a random update script with a persistent fault armed at the
    ``after``-th matching hook call; returns ``(before, after_states)``:
    the oracle just before the first failing op (or the final oracle when
    nothing user-visible failed) and the oracle including that op.

    A raised update is *usually* uncommitted (log-before-apply rolls the
    WAL back), but an ``open`` fault on segment rotation fires after the
    op's record landed — so the caller accepts either oracle for the
    failing op, and exactly one of them for everything else."""
    rng = random.Random(seed * 7919 + after)
    fsync = "always" if op == "fsync" else rng.choice(["always", "batch"])
    session = connect(path=directory, load_stdlib=False, fsync=fsync,
                      checkpoint_every=rng.choice([2, 3]))
    oracle = {}
    raised = False
    injector = FaultInjector().fail(op, err=err, after=after, times=10_000,
                                    partial=partial)
    with faults.injected(injector):
        for _ in range(FAULT_OPS_PER_SCRIPT):
            kind, name, tuples = random_update_op(rng)
            before = dict(oracle)
            changed = _apply_oracle(oracle, kind, name, tuples)
            try:
                if kind == "insert":
                    session.insert(name, tuples)
                else:
                    session.delete(name, tuples)
            except OSError:
                raised = True
                break
            assert changed or oracle == before
        try:
            session.close()
        except (OSError, CheckpointError):
            pass  # deferred storage failures surface at close; tolerated
    if not raised:
        before = dict(oracle)
    return before, oracle


@pytest.mark.parametrize("op,err", FAULT_MATRIX,
                         ids=[op for op, _ in FAULT_MATRIX])
@pytest.mark.parametrize("seed", FAULT_SEEDS)
def test_faulted_scripts_recover_the_committed_prefix(tmp_path, seed, op,
                                                      err):
    """For every hook point and several fault onsets: after a script dies
    on an injected persistent fault, recovery returns exactly the oracle
    of the committed prefix — never a half-applied op, never a lost
    committed one — and a full ``connect`` reopen agrees."""
    rng = random.Random(seed)
    for after in range(3):
        partial = op == "write" and rng.random() < 0.5
        directory = tmp_path / f"db-{op}-{after}"
        before, after_state = _run_faulted_script(
            seed, directory, op, err, after, partial)

        recovered = recover_state(directory)
        assert recovered.base in (before, after_state), \
            f"seed {seed}, {op} fault after {after}: recovery matches " \
            f"neither the pre-failure nor post-failure oracle"

        reopened = connect(path=directory, load_stdlib=False)
        for name, rel in recovered.base.items():
            have = reopened.relation(name) if name in reopened.database \
                else EMPTY
            assert have == rel, \
                f"seed {seed}, {op}: reopen diverged on {name}"
        reopened.close()
