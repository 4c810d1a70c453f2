"""bsp_checkpoint — the execution plane with realistic state sizes.

A single-threaded driver (no thread per BSP process) runs virtual BSP
processes through supersteps.  In each superstep every process sends
BSMP messages to eight peers, does DRMA puts and gets, then the buffers
are exchanged and the registers synchronised; each process mutates about
5 % of a 128 KiB state and saves it to the checkpoint store (writes).
Every eighth superstep sixteen processes roll back: ``load_latest`` +
``state()``, compared byte for byte with what was saved (reads).

Why it exists: inside a ``Grid`` a checkpoint is ~90 bytes, so the grid
workloads never exercise this layer.  The ORB and the simulator are idle
here: a comm-plane or event-loop change must show no change, and a
checkpoint change that trades bytes for CPU shows both sides.
"""

import hashlib
import random
import struct
from time import perf_counter

from repro.bsp.drma import Registers
from repro.bsp.messages import MessageBuffers
from repro.checkpoint.store import MemoryCheckpointStore

from support import fast_kwargs, percentile

SUPERSTEPS = 32
DEGREE = 8                  # peers each process talks to per superstep
MSGS_PER_PEER = 4
SEGMENT_BYTES = 4096
STATE_SEGMENTS = 32         # 128 KiB of state per process
MUTATED_SEGMENTS = 2        # ~5 % of the state changes per superstep
ROLLBACK_EVERY = 8
ROLLBACK_PROCS = 16


def sizes(scale: float) -> dict:
    """Workload constants at ``scale`` (1.0 is the size of record)."""
    return {"procs": max(ROLLBACK_PROCS, round(128 * scale))}


class BspCheckpoint:
    name = "bsp_checkpoint"
    residual_layer = "harness"

    def __init__(self, seed: int, scale: float = 1.0, profile: str = "default"):
        self.seed = seed
        self.sizes = sizes(scale)
        self.profile = profile
        self.restores: list = []      # host seconds of each rollback read
        self.restore_mismatches = 0
        self.checksum = 0

    def setup(self) -> None:
        nprocs = self.sizes["procs"]
        rng = random.Random(self.seed)
        self.buffers = MessageBuffers(nprocs, **fast_kwargs(
            MessageBuffers.__init__, ("combining",), self.profile))
        self.registers = Registers(nprocs, **fast_kwargs(
            Registers.__init__, ("batched",), self.profile))
        self.store = MemoryCheckpointStore(**fast_kwargs(
            MemoryCheckpointStore.__init__, ("chunked", "skip_unchanged"),
            self.profile))
        for pid in range(nprocs):
            self.registers.register(pid, "acc", 0.0)
        # Replica pairs share their bulk state, as replicated tasks do.
        blobs = [rng.randbytes(SEGMENT_BYTES * STATE_SEGMENTS)
                 for _ in range((nprocs + 1) // 2)]
        self.states = [
            {"pid": pid, "step": 0, "blob": bytearray(blobs[pid // 2])}
            for pid in range(nprocs)
        ]
        self.peers = [
            [(pid + offset) % nprocs
             for offset in rng.sample(range(1, nprocs), DEGREE)]
            for pid in range(nprocs)
        ]
        self.rollback_pids = sorted(rng.sample(range(nprocs), ROLLBACK_PROCS))

    def _superstep(self, step: int) -> None:
        buffers, registers = self.buffers, self.registers
        for pid, peers in enumerate(self.peers):
            for peer in peers:
                for m in range(MSGS_PER_PEER):
                    buffers.send(pid, peer, [float(pid), float(step * m)])
                registers.put(pid, peer, "acc", float(step + pid))
                registers.get(peer, "acc", reader=pid)
        buffers.exchange()
        registers.synchronize()
        checksum = self.checksum
        for pid in range(len(self.peers)):
            inbox = buffers.inbox(pid)
            checksum += len(inbox) + int(sum(m[0] for m in inbox))
        self.checksum = checksum
        now = float(step)
        for pid, state in enumerate(self.states):
            state["step"] = step
            blob = state["blob"]
            for m in range(MUTATED_SEGMENTS):
                segment = (step * 7 + m * 13 + pid) % STATE_SEGMENTS
                offset = segment * SEGMENT_BYTES + 16
                blob[offset:offset + 8] = struct.pack("<II", step, m)
            self.store.save(f"t{pid}", {
                "pid": pid, "step": step, "blob": bytes(blob),
            }, now)

    def _rollback(self) -> None:
        for pid in self.rollback_pids:
            started = perf_counter()
            restored = self.store.load_latest(f"t{pid}").state()
            self.restores.append(perf_counter() - started)
            state = self.states[pid]
            if (restored["blob"] != state["blob"]
                    or restored["step"] != state["step"]):
                self.restore_mismatches += 1

    def run(self):
        # One step is a superstep, with the roll-backs that follow it
        # every ``ROLLBACK_EVERY``-th time (2 % of that step).
        for step in range(1, SUPERSTEPS + 1):
            self._superstep(step)
            if step % ROLLBACK_EVERY == 0:
                self._rollback()
            yield

    def finish(self) -> dict:
        sha = hashlib.sha256()
        sha.update(f"checksum={self.checksum}\n".encode())
        for pid in self.rollback_pids:
            sha.update(self.store.load_latest(f"t{pid}").state()["blob"])
        for pid in range(len(self.peers)):
            sha.update(repr(self.registers.local_read(pid, "acc")).encode())
        restores = sorted(self.restores)
        return {
            "digest": sha.hexdigest(),
            "attempted": len(restores),
            "failed": self.restore_mismatches,
            "extra": {"restore_p50_ms": percentile(restores, 0.5) * 1e3},
            "samples": {"restores": len(restores)},
            "counters": {
                "checkpoint.store.saves": self.store.saves,
                "checkpoint.store.bytes_written": self.store.bytes_written,
                "bsp.messages.sent": self.buffers.messages_sent,
                "bsp.messages.orb_calls": self.buffers.orb_calls,
                "bsp.messages.wire_bytes": self.buffers.wire_bytes,
                "bsp.drma.orb_calls": self.registers.drma_calls,
            },
        }
