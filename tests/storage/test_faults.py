"""The fault-injection seam: scripted I/O failures, retry, degradation.

Four layers of contract, bottom-up:

- the :class:`FaultInjector` itself fires exactly when armed (op match,
  ``after`` countdown, ``times`` budget, path substring, partial writes);
- a WAL append that dies mid-write rolls the segment back to its last
  committed record (never a buried half-frame) and is safe to retry;
- the manager's :class:`RetryPolicy` absorbs transient failures with
  bounded backoff (counted in ``statistics()["retries"]``) and surfaces
  persistent ones unchanged, with memory and log still in step;
- a failing checkpoint *degrades* instead of killing the session: the
  WAL keeps accepting writes, ``checkpoint_errors`` shows immediately,
  ``close()``/``sync()`` re-raise, and the next rotation retries.
"""

import errno
import time

import pytest

from repro import connect
from repro.model.relation import Relation
from repro.storage import FaultInjector, RetryPolicy, faults, wal
from repro.storage.errors import CheckpointError, StorageError


# ---------------------------------------------------------------------------
# Injector mechanics
# ---------------------------------------------------------------------------


def test_injector_validates_specs():
    inj = FaultInjector()
    with pytest.raises(ValueError):
        inj.fail("chmod")
    with pytest.raises(ValueError):
        inj.fail("fsync", partial=True)
    with pytest.raises(ValueError):
        inj.fail("write", after=-1)
    with pytest.raises(ValueError):
        inj.fail("write", times=0)


def test_injector_counts_down_after_and_spends_times(tmp_path):
    inj = FaultInjector().fail("fsync", err=errno.EIO, after=2, times=1)
    target = tmp_path / "f"
    with faults.injected(inj):
        faults.before_fsync(target)  # 1st: let through
        faults.before_fsync(target)  # 2nd: let through
        with pytest.raises(OSError) as info:
            faults.before_fsync(target)  # 3rd: fires
        assert info.value.errno == errno.EIO
        faults.before_fsync(target)  # spent: quiet again
    assert inj.fired == 1
    # Cleared on exit: no injector, no faults.
    faults.before_fsync(target)


def test_injector_path_substring_scopes_the_fault(tmp_path):
    inj = FaultInjector().fail("open", path="checkpoint")
    with faults.injected(inj):
        faults.before_open(tmp_path / "wal-00000001.log")  # no match
        with pytest.raises(OSError):
            faults.before_open(tmp_path / "checkpoint-00000001.ckpt")


# ---------------------------------------------------------------------------
# WAL-level repair
# ---------------------------------------------------------------------------


def test_failed_append_rolls_the_segment_back(tmp_path):
    path = tmp_path / "wal-00000001.log"
    writer = wal.WALWriter(path, fsync="never")
    writer.append({"op": "load", "source": "def a = 1"})
    committed = writer.bytes_written

    inj = FaultInjector().fail("write", err=errno.ENOSPC, partial=True)
    with faults.injected(inj):
        with pytest.raises(OSError) as info:
            writer.append({"op": "load", "source": "def b = 2"})
        assert info.value.errno == errno.ENOSPC
    # The torn prefix was truncated away: scan sees one clean record.
    assert path.stat().st_size == committed
    scan = wal.scan_segment(path)
    assert len(scan.records) == 1 and not scan.torn

    # The very same writer keeps working after the rollback.
    writer.append({"op": "load", "source": "def b = 2"})
    writer.close()
    assert len(wal.scan_segment(path).records) == 2


def test_full_write_fault_is_clean_refusal(tmp_path):
    path = tmp_path / "wal-00000001.log"
    writer = wal.WALWriter(path, fsync="never")
    inj = FaultInjector().fail("write", err=errno.EIO)
    with faults.injected(inj):
        with pytest.raises(OSError):
            writer.append({"op": "load", "source": "def a = 1"})
    writer.append({"op": "load", "source": "def a = 1"})
    writer.close()
    assert len(wal.scan_segment(path).records) == 1


def test_retry_policy_validates_and_backs_off():
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=0.1, max_delay=0.01)
    policy = RetryPolicy(attempts=5, base_delay=0.001, max_delay=0.004)
    assert [policy.delay(i) for i in (1, 2, 3, 4)] == \
        [0.001, 0.002, 0.004, 0.004]


# ---------------------------------------------------------------------------
# Manager-level retry
# ---------------------------------------------------------------------------


def test_transient_append_faults_are_retried_and_counted(tmp_path):
    session = connect(path=tmp_path / "db", load_stdlib=False)
    inj = FaultInjector().fail("write", err=errno.EIO, times=2)
    with faults.injected(inj):
        session.insert("K", [(1,)])
    stats = session.storage_statistics()
    assert stats["retries"] == 2
    assert stats["wal_appends"] == 1
    session.close()
    reopened = connect(path=tmp_path / "db", load_stdlib=False)
    assert reopened.relation("K") == Relation([(1,)])
    reopened.close()


def test_transient_fsync_faults_are_retried(tmp_path):
    session = connect(path=tmp_path / "db", load_stdlib=False,
                      fsync="always")
    inj = FaultInjector().fail("fsync", err=errno.EIO, path="wal")
    with faults.injected(inj):
        session.insert("K", [(1,)])
    assert session.storage_statistics()["retries"] >= 1
    session.close()


def test_exhausted_retries_surface_and_leave_state_consistent(tmp_path):
    session = connect(path=tmp_path / "db", load_stdlib=False)
    session.insert("K", [(1,)])
    inj = FaultInjector().fail("write", err=errno.ENOSPC, times=100)
    with faults.injected(inj):
        with pytest.raises(OSError) as info:
            session.insert("K", [(2,)])
        assert info.value.errno == errno.ENOSPC
    # Log-before-apply: the failed write reached neither memory nor log.
    assert session.relation("K") == Relation([(1,)])
    session.insert("K", [(3,)])
    session.close()
    reopened = connect(path=tmp_path / "db", load_stdlib=False)
    assert reopened.relation("K") == Relation([(1,), (3,)])
    reopened.close()


def test_failed_transaction_append_leaves_memory_as_a_reopen_sees_it(tmp_path):
    """A transaction logs before it installs, like insert/delete: when the
    append fails, memory must not keep rows that a reopen would lose."""
    session = connect(path=tmp_path / "db", load_stdlib=False)
    session.insert("Acct", [("a", 1)])
    inj = FaultInjector().fail("write", err=errno.ENOSPC, times=50)
    with faults.injected(inj):
        with pytest.raises(OSError):
            session.transact('def insert(:Acct, t, n) : t = "c" and n = 2')
    assert session.database["Acct"] == session.relation("Acct")
    session.transact('def insert(:Acct, t, n) : t = "d" and n = 3')
    in_memory = session.relation("Acct")
    session.close()
    reopened = connect(path=tmp_path / "db", load_stdlib=False)
    assert reopened.relation("Acct") == in_memory == \
        Relation([("a", 1), ("d", 3)])
    reopened.close()


def test_broken_segment_refuses_further_appends(tmp_path):
    """If even the rollback truncate fails, the writer goes into a broken
    state instead of silently burying a committed record."""
    path = tmp_path / "wal-00000001.log"
    writer = wal.WALWriter(path, fsync="never")
    writer.append({"op": "load", "source": "def a = 1"})
    writer._broken = True
    with pytest.raises(StorageError):
        writer.append({"op": "load", "source": "def b = 2"})
    writer._broken = False
    writer.close()


# ---------------------------------------------------------------------------
# Checkpoint degradation
# ---------------------------------------------------------------------------


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def test_checkpoint_failure_degrades_and_recovers(tmp_path):
    session = connect(path=tmp_path / "db", load_stdlib=False,
                      checkpoint_every=2)
    inj = FaultInjector().fail("rename", path="checkpoint", times=1000)
    with faults.injected(inj):
        for i in range(6):
            session.insert("K", [(i,)])  # rotations fire, checkpoints die
        assert _wait_for(
            lambda: session.storage_statistics()["checkpoint_errors"] >= 1)
        # Degraded, not dead: the WAL kept accepting every write.
        stats = session.storage_statistics()
        assert stats["wal_appends"] == 6
        assert stats["checkpoints"] == 0
        session.insert("K", [(100,)])  # still writable while degraded
        # close() re-raises the deferred failure — after releasing
        # resources. (Still inside the fault scope: were the injector
        # cleared first, the retry rotation would succeed and rightly
        # supersede the failure.)
        with pytest.raises(CheckpointError):
            session.close()
    assert session.closed

    # Every committed write recovers by WAL replay despite 0 checkpoints.
    reopened = connect(path=tmp_path / "db", load_stdlib=False,
                       checkpoint_every=2)
    assert reopened.relation("K") == \
        Relation([(i,) for i in range(6)] + [(100,)])
    # The next (un-faulted) rotation retries and clears the degradation.
    reopened.insert("K", [(200,)])
    reopened.checkpoint()
    stats = reopened.storage_statistics()
    assert stats["checkpoints"] >= 1
    reopened.close()  # clean: the success superseded the old failure


def test_sync_reraises_a_pending_checkpoint_failure(tmp_path):
    session = connect(path=tmp_path / "db", load_stdlib=False,
                      checkpoint_every=0)
    session.insert("K", [(1,)])
    inj = FaultInjector().fail("rename", path="checkpoint", times=1000)
    with faults.injected(inj):
        with pytest.raises(CheckpointError):
            session.checkpoint()  # explicit wait=True surfaces it directly
        session.insert("K", [(2,)])
        storage = session._storage
        storage.begin_checkpoint(session._sources,
                                 session.program.durable_state())
        assert _wait_for(lambda: not storage._checkpoint_in_flight()
                         or storage._ckpt_error is not None)
        storage._ckpt_thread.join()
        with pytest.raises(CheckpointError):
            session.sync()
    # Re-raising consumed the pending error; close is clean.
    session.close()


def test_checkpoint_write_faults_are_retried_transiently(tmp_path):
    session = connect(path=tmp_path / "db", load_stdlib=False,
                      checkpoint_every=0)
    session.insert("K", [(1,)])
    inj = FaultInjector().fail("fsync", err=errno.EIO, path="checkpoint")
    with faults.injected(inj):
        session.checkpoint()  # one transient fsync fault: retried, clean
    stats = session.storage_statistics()
    assert stats["checkpoints"] == 1
    assert stats["checkpoint_errors"] == 0
    assert stats["retries"] >= 1
    session.close()


def test_atomic_write_cleans_up_its_tmp_file_on_fault(tmp_path):
    session = connect(path=tmp_path / "db", load_stdlib=False,
                      checkpoint_every=0)
    session.insert("K", [(1,)])
    inj = FaultInjector().fail("rename", path="checkpoint", times=1000)
    with faults.injected(inj):
        with pytest.raises(CheckpointError):
            session.checkpoint()
    leftovers = list((tmp_path / "db").glob("*.tmp"))
    assert not leftovers, f"tmp litter after failed checkpoint: {leftovers}"
    # The explicit checkpoint() already surfaced (and consumed) the error.
    session.close()
