"""Crash recovery: newest valid checkpoint + WAL-tail replay.

:func:`recover_state` is deliberately a *pure* function of a storage
directory — no :class:`~repro.api.Session`, no engine, no mutation of the
files it reads. It returns the committed logical state (sources + base
extents) plus enough bookkeeping for two very different callers:

- ``connect(path=...)`` feeds the result into a fresh session and lets the
  :class:`~repro.storage.manager.StorageManager` repair the torn tail
  before appending;
- the crash-recovery test harness calls it thousands of times (every
  truncation offset of every seeded script) and compares ``base`` against
  a plain-dict oracle, which only works because nothing here needs a live
  engine.

Damage policy: a torn tail on the *final* segment is the expected
signature of a crash mid-append and is silently dropped (that record never
committed). A bad frame on any earlier segment means committed data was
lost, and recovery raises :class:`~repro.storage.errors.WALCorruptionError`
rather than resurrect a prefix that was never the latest committed state.
A corrupt checkpoint falls back to the next-older one (longer replay, same
state). A bulk record that names a batch instead of carrying its rows was
written by the retired side-table format; recovery raises
:class:`~repro.storage.errors.StorageError` for it instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.model.relation import EMPTY, Relation, apply_delta
from repro.storage import checkpoint as ckpt, codec, wal
from repro.storage.errors import (CheckpointError, StorageError,
                                  WALCorruptionError)


@dataclass
class RecoveredState:
    """Everything :func:`recover_state` learned from a storage directory."""

    #: Rule/source texts in original load order (replayed via ``load``).
    sources: List[str] = field(default_factory=list)
    #: Base relation extents at the committed tip.
    base: Dict[str, Relation] = field(default_factory=dict)

    #: True when the directory held prior storage files (a reopen, not a
    #: fresh database).
    found_existing: bool = False
    #: Index of the checkpoint the state was seeded from (None = no valid
    #: checkpoint; replay started from empty).
    checkpoint_index: Optional[int] = None
    #: Highest WAL segment index covered by that checkpoint (0 = none).
    through_segment: int = 0

    #: WAL records applied on top of the checkpoint.
    replayed_records: int = 0
    #: Bytes dropped from the final segment's torn tail (0 = clean).
    torn_bytes: int = 0
    #: Index of the last existing segment (None = no segments on disk);
    #: the manager truncates it to ``tail_good_bytes`` before appending.
    tail_segment: Optional[int] = None
    tail_good_bytes: int = 0


def _load_checkpoint(directory: Path) -> tuple:
    """(state dict or None, checkpoint index or None).

    ``CURRENT`` is a hint, not an authority: whatever it points at is
    validated like any other candidate, and the newest checkpoint that
    actually passes its CRC wins."""
    candidates: List[Path] = []
    current = ckpt.read_current(directory)
    if current is not None and (directory / current).exists():
        candidates.append(directory / current)
    for path in reversed(ckpt.list_checkpoints(directory)):
        if path not in candidates:
            candidates.append(path)
    candidates.sort(key=ckpt.checkpoint_index, reverse=True)
    last_error: Optional[CheckpointError] = None
    for path in candidates:
        try:
            return ckpt.read_checkpoint(path), ckpt.checkpoint_index(path)
        except CheckpointError as exc:
            last_error = exc
    if last_error is not None:
        raise CheckpointError(
            f"no valid checkpoint in {directory} (last: {last_error})"
        ) from last_error
    return None, None


def _apply_record(record: Dict[str, Any], state: RecoveredState,
                  segment_name: str) -> None:
    op = record.get("op")
    if op == "load":
        state.sources.append(record["source"])
    elif op == "batch":
        for name, (plus, minus) in record["updates"].items():
            state.base[name] = apply_delta(state.base.get(name, EMPTY),
                                           codec.decode_relation(plus),
                                           codec.decode_relation(minus))
    elif op == "bulk":
        if "rows" not in record:
            raise StorageError(
                f"{segment_name}: bulk record references batch "
                f"{record.get('batch')!r} in tables.sqlite, a side-table "
                f"format this version no longer reads"
            )
        name = record["name"]
        state.base[name] = state.base.get(name, EMPTY).union(
            codec.decode_relation(record["rows"]))
    else:
        raise WALCorruptionError(
            f"{segment_name}: unknown WAL record op {op!r}"
        )


def recover_state(path: Path) -> RecoveredState:
    """Reconstruct the committed logical state under ``path``.

    Read-only: repairing the torn tail (file truncation) is the
    manager's job, so the harness can probe the same directory
    repeatedly."""
    directory = Path(path)
    state = RecoveredState()
    segments = wal.list_segments(directory)
    checkpoints = ckpt.list_checkpoints(directory)
    state.found_existing = bool(
        segments or checkpoints or (directory / ckpt.CURRENT_NAME).exists()
    )
    if not state.found_existing:
        return state

    ckpt_state, ckpt_index = _load_checkpoint(directory)
    if ckpt_state is not None:
        state.checkpoint_index = ckpt_index
        state.through_segment = ckpt_state["through_segment"]
        state.sources = list(ckpt_state["sources"])
        state.base = ckpt.decode_base(ckpt_state)

    # Segments at or below through_segment are covered by the checkpoint;
    # they linger only when a crash hit between CURRENT-swap and cleanup.
    replay = [s for s in segments
              if wal.segment_index(s) > state.through_segment]

    for pos, segment in enumerate(replay):
        scan = wal.scan_segment(segment)
        is_final = pos == len(replay) - 1
        if scan.torn and not is_final:
            raise WALCorruptionError(
                f"{segment.name}: damaged frame mid-log "
                f"({scan.torn_bytes} bad bytes) with later segments "
                f"present — refusing to drop committed records"
            )
        for record in scan.records:
            _apply_record(record, state, segment.name)
        state.replayed_records += len(scan.records)
        if is_final:
            state.torn_bytes = scan.torn_bytes
            state.tail_segment = wal.segment_index(segment)
            state.tail_good_bytes = scan.good_bytes
    return state
