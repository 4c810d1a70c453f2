"""Portable checkpointing and rollback recovery.

Section 3 of the paper requires checkpoints that are "machine and
operating system independent to permit migration of computation across
grid nodes".  The serializer here produces a versioned, checksummed,
architecture-neutral byte format; stores keep checkpoints either in
memory (simulation) or on disk; and the recovery manager computes
consistent rollback points for parallel applications.
"""

from repro.checkpoint.serializer import (
    CheckpointCorrupted,
    deserialize,
    serialize,
)
from repro.checkpoint.store import (
    CheckpointRecord,
    FileCheckpointStore,
    MemoryCheckpointStore,
)
from repro.checkpoint.recovery import RecoveryManager

__all__ = [
    "CheckpointCorrupted",
    "serialize",
    "deserialize",
    "CheckpointRecord",
    "MemoryCheckpointStore",
    "FileCheckpointStore",
    "RecoveryManager",
]
