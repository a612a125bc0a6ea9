"""Durable storage: write-ahead log, checkpoints, recovery.

Everything the engine computes is reconstructible from two things — the
rule *sources* a session has loaded and the contents of its *base*
relations. This package persists exactly that logical state:

- :mod:`repro.storage.wal` — an append-only, length+CRC-framed write-ahead
  log. One record per committed batch (a server burst that commits as
  one ``apply_batch`` is one record; a bulk load is one record with its
  rows inline);
- :mod:`repro.storage.checkpoint` — atomic snapshot checkpoints of the
  full (sources, base extents) state, written from the copy-on-write
  capture of :meth:`repro.engine.program.RelProgram.durable_state`, after
  which the covered WAL segments are deleted;
- :mod:`repro.storage.recovery` — crash recovery: load the latest valid
  checkpoint, replay the WAL tail, tolerate torn final records;
- :mod:`repro.storage.manager` — :class:`StorageManager`, the object a
  durable :class:`repro.api.Session` owns: fsync policy, segment rotation,
  background checkpoints, bounded-backoff retry of transient I/O failures
  (:class:`RetryPolicy`), and the ``storage_statistics()`` counters;
- :mod:`repro.storage.faults` — the fault-injection seam: scripted
  open/write/fsync/rename failures (ENOSPC, EIO, torn writes) that the
  crash-recovery and degradation tests drive through every I/O site.

The user-facing surface is ``repro.connect(path=...)`` — see
:mod:`repro.api`.
"""

from repro.storage.errors import (CheckpointError, StorageClosedError,
                                  StorageError, WALCorruptionError)
from repro.storage.faults import FaultInjector, injected
from repro.storage.manager import RetryPolicy, StorageManager
from repro.storage.recovery import RecoveredState, recover_state

__all__ = [
    "CheckpointError",
    "FaultInjector",
    "RecoveredState",
    "RetryPolicy",
    "StorageClosedError",
    "StorageError",
    "StorageManager",
    "WALCorruptionError",
    "injected",
    "recover_state",
]
