"""Portable checkpointing.

Section 3 of the paper requires checkpoints that are "machine and
operating system independent to permit migration of computation across
grid nodes".  The serializer here produces a versioned, checksummed,
architecture-neutral byte format, and stores keep checkpoints either in
memory (simulation) or on disk.  A BSP job's rollback point is the last
superstep its coordinator checkpointed
(:attr:`repro.bsp.gridexec.BspGridCoordinator.checkpointed`).
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

__all__ = [
    "CheckpointCorrupted",
    "serialize",
    "deserialize",
    "CheckpointRecord",
    "MemoryCheckpointStore",
    "FileCheckpointStore",
]
