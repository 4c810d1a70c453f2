"""Checkpoint repositories.

A store survives its writer: the LRM saves checkpoints into a
cluster-level repository so that a task can be resumed on a *different*
node after eviction or crash (migration, in the paper's terms).  The
memory store backs simulations; the file store demonstrates the same
interface against a real filesystem.

Each store has one behaviour: a save serializes the state into the
CRC-checked envelope of :mod:`repro.checkpoint.serializer` and stores
those bytes whole; a restore hands them back and ``state()`` validates
them.  A store never decides that a save is unnecessary — the writer
knows whether its state moved (``Lrm._checkpoint`` compares progress)
without anybody hashing the bytes.
"""

import os
from dataclasses import dataclass
from time import perf_counter
from typing import Optional
from urllib.parse import quote, unquote

from repro.checkpoint.serializer import (
    CheckpointCorrupted,
    deserialize,
    serialize,
)


@dataclass(frozen=True)
class CheckpointRecord:
    """One saved checkpoint."""

    task_id: str
    sequence: int
    time: float
    data: bytes

    def state(self) -> dict:
        """Decode (and validate) the stored state."""
        return deserialize(self.data)


class MemoryCheckpointStore:
    """In-memory repository keeping the latest checkpoint per task."""

    def __init__(self):
        self._records: dict[str, CheckpointRecord] = {}
        self._sequences: dict[str, int] = {}
        self.bytes_written = 0
        self.saves = 0

    def save(self, task_id: str, state: dict, now: float) -> CheckpointRecord:
        """Serialize and store a checkpoint; returns the record."""
        sequence = self._sequences.get(task_id, 0) + 1
        self._sequences[task_id] = sequence
        record = CheckpointRecord(task_id, sequence, now, serialize(state))
        self._records[task_id] = record
        self.bytes_written += len(record.data)
        self.saves += 1
        return record

    def load_latest(self, task_id: str) -> Optional[CheckpointRecord]:
        """Most recent checkpoint for the task, or None."""
        return self._records.get(task_id)

    def discard(self, task_id: str) -> None:
        """Forget all checkpoints for a finished task."""
        self._records.pop(task_id, None)
        self._sequences.pop(task_id, None)

    @property
    def task_ids(self) -> list:
        return sorted(self._records)

    def to_metrics(self, registry, prefix: str = "checkpoint") -> None:
        """Publish the store's counters as registry views."""
        registry.bind(prefix, self, ("saves", "bytes_written"))


_SUFFIX = ".ckpt"


class FileCheckpointStore:
    """Filesystem-backed repository: one file per task's latest checkpoint.

    All writes go to a temporary file first, which is flushed to disk
    and then moved into place with an atomic rename (and the directory
    flushed after it, where the platform can), so a crash mid-save never
    leaves a torn checkpoint behind — the previous record stays intact.

    A file is named by its task id percent-encoded with no safe
    characters: distinct ids get distinct files, no id can put ``/`` or
    ``..`` into a path, and ``task_ids`` decodes the real ids back.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._sequences: dict[str, int] = {}
        self.bytes_written = 0
        self.saves = 0
        self._restore_hist = None

    def _path(self, task_id: str) -> str:
        return os.path.join(
            self.directory, quote(task_id, safe="") + _SUFFIX
        )

    def save(self, task_id: str, state: dict, now: float) -> CheckpointRecord:
        data = serialize(state)
        sequence = self._sequences.get(task_id, 0) + 1
        self._sequences[task_id] = sequence
        envelope = serialize(
            {"task_id": task_id, "sequence": sequence, "time": now,
             "data": data}
        )
        path = self._path(task_id)
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(envelope)
            f.flush()
            os.fsync(f.fileno())    # the bytes are on disk before ...
        os.replace(tmp, path)       # ... the atomic rename publishes them
        self._sync_directory()      # ... and the rename is on disk too
        self.bytes_written += len(envelope)
        self.saves += 1
        return CheckpointRecord(task_id, sequence, now, data)

    def _sync_directory(self) -> None:
        if not hasattr(os, "O_DIRECTORY"):   # no directory handles here
            return
        fd = os.open(self.directory, os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def load_latest(self, task_id: str) -> Optional[CheckpointRecord]:
        path = self._path(task_id)
        started = perf_counter()
        try:    # no exists() first: a discard may come in between
            with open(path, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            return None
        envelope = deserialize(data)
        # The directory is outside input: a file put under another
        # task's name must not resume that task.
        stored_id = envelope.get("task_id")
        if stored_id != task_id:
            raise CheckpointCorrupted(
                f"{path} holds a checkpoint of task {stored_id!r}, "
                f"not {task_id!r}"
            )
        if self._restore_hist is not None:
            self._restore_hist.observe(perf_counter() - started)
        return CheckpointRecord(
            task_id, envelope["sequence"], envelope["time"], envelope["data"]
        )

    def discard(self, task_id: str) -> None:
        self._sequences.pop(task_id, None)
        try:
            os.remove(self._path(task_id))
        except FileNotFoundError:
            pass

    @property
    def task_ids(self) -> list:
        return sorted(
            unquote(fname[:-len(_SUFFIX)])
            for fname in os.listdir(self.directory)
            if fname.endswith(_SUFFIX)
        )

    def to_metrics(self, registry, prefix: str = "checkpoint") -> None:
        """Publish the store's counters as registry views, plus a
        restore-latency histogram: here a restore reads and validates a
        file."""
        registry.bind(prefix, self, ("saves", "bytes_written"))
        from repro.obs.metrics import LATENCY_BOUNDS_S
        self._restore_hist = registry.histogram(
            f"{prefix}.restore_latency_s", LATENCY_BOUNDS_S
        )
