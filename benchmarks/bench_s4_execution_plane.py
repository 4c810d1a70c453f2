"""S4 — execution-plane scaling (infrastructure benchmark).

The seed execution plane re-stores every BSP process's *entire* state at
each checkpoint and issues one ORB call per BSMP message / DRMA request
— both linear in state size and message count.  This benchmark measures
what the PR's two opt-in features buy, at 64/256/1024 processes:

* **Checkpoint plane** — each process carries a large multi-chunk state
  of which only 1–10 % mutates per superstep.  ``full`` mode is the
  seed store (whole snapshot per save); ``chunked`` is the
  content-addressed delta store (changed chunks only, cross-replica
  dedup, full rebase every ``REBASE_EVERY`` saves).  Replica pairs
  share their bulk state, so the chunk pool dedups across processes
  exactly as replicated tasks do on a real cluster repository.
* **Comm plane** — each process exchanges messages and DRMA traffic
  with ``DEGREE`` peers per superstep.  ``per-message`` mode accounts
  one ORB call per send/put/get (seed); ``combining`` coalesces all
  messages per (sender, destination) pair into one CDR batch flushed at
  the barrier and batches DRMA per pair — O(messages) → O(peers) calls.

Both modes run the identical deterministic workload (no RNG), so the
delivered messages and the restored checkpoint bytes are asserted
bit-identical to the seed oracle in-run.  Rows land in
``BENCH_S4.json`` with ``--bench-json``; the committed file is the CI
baseline and the headline gates (>= 3x checkpoint bytes down at 1024
processes / 10 % mutation, exactly O(peers) ORB calls when combining)
re-run in ``perf_smoke.py``.
"""

import struct
import time

from repro.bsp.drma import Registers
from repro.bsp.messages import MessageBuffers
from repro.checkpoint.store import MemoryCheckpointStore
from repro.analysis.metrics import Table

from conftest import save_json, save_result

PROCESSES = (64, 256, 1024)
SUPERSTEPS = 12
CHUNK_SIZE = 4096
STATE_CHUNKS = 32              # ~128 KiB of serialized state per process
REBASE_EVERY = 8
MUTATION_RATES = (0.01, 0.10)

DEGREE = 8                     # peers each process talks to per superstep
MSGS_PER_PEER = 4
PUTS_PER_PEER = 3
GETS_PER_PEER = 2

_SEGMENT_FILL = bytes(range(256)) * (CHUNK_SIZE // 256)


def make_state(pid: int) -> dict:
    """Deterministic large state; replica pairs share their bulk blob."""
    replica_group = pid // 2
    segments = [
        struct.pack("<II", replica_group, j) + _SEGMENT_FILL[8:]
        for j in range(STATE_CHUNKS)
    ]
    return {
        "pid": pid,
        "step": 0,
        "blob": bytearray(b"".join(segments)),
    }


def mutate(state: dict, step: int, rate: float) -> None:
    """Touch ``rate`` of the blob's segments in place (same length)."""
    state["step"] = step
    nmut = max(1, int(STATE_CHUNKS * rate))
    blob = state["blob"]
    for m in range(nmut):
        segment = (step * 7 + m * 13) % STATE_CHUNKS
        offset = segment * CHUNK_SIZE + 16
        blob[offset:offset + 8] = struct.pack("<II", step, m)


def _snapshot(state: dict) -> dict:
    return {"pid": state["pid"], "step": state["step"],
            "blob": bytes(state["blob"])}


ORACLE_PIDS = (0, 1, 7)   # spot-check restores against the seed oracle


def measure_checkpoint_plane(nprocs: int, rate: float, mode: str) -> dict:
    """Run the checkpoint workload in one store mode; returns its row."""
    if mode == "chunked":
        store = MemoryCheckpointStore(
            chunked=True, chunk_size=CHUNK_SIZE, rebase_every=REBASE_EVERY
        )
    else:
        store = MemoryCheckpointStore()
    oracle = MemoryCheckpointStore()   # seed store, latest snapshot only
    states = [make_state(pid) for pid in range(nprocs)]
    start = time.perf_counter()
    for step in range(1, SUPERSTEPS + 1):
        now = float(step)
        for pid, state in enumerate(states):
            mutate(state, step, rate)
            snap = _snapshot(state)
            store.save(f"t{pid}", snap, now)
            if pid in ORACLE_PIDS:
                oracle.save(f"t{pid}", snap, now)
    elapsed = time.perf_counter() - start
    # The store must hand back byte-identical state after the full run
    # (which crossed a rebase: SUPERSTEPS > REBASE_EVERY).
    for pid in ORACLE_PIDS:
        if pid >= nprocs:
            continue
        restored = store.load_latest(f"t{pid}")
        expected = oracle.load_latest(f"t{pid}")
        assert restored.data == expected.data
        assert restored.state() == expected.state()
    row = {
        "nprocs": nprocs,
        "mutation_rate": rate,
        "mode": mode,
        "saves": store.saves,
        "bytes_written": store.bytes_written,
        "wall_s": round(elapsed, 4),
        "saves_per_wall_s": round(store.saves / elapsed, 1),
    }
    if mode == "chunked":
        row.update({
            "dedup_hit_rate": round(store.repo.dedup_hit_rate, 4),
            "rebases": store.repo.rebases,
            "bytes_written_full": store.bytes_written_full,
            "bytes_written_delta": store.bytes_written_delta,
        })
    return row


def drive_comm(nprocs: int, combining: bool) -> dict:
    """Run the comm workload; returns its row plus a delivery checksum."""
    buffers = MessageBuffers(nprocs, combining=combining)
    registers = Registers(nprocs, batched=combining)
    for pid in range(nprocs):
        registers.register(pid, "acc", 0.0)
    checksum = 0
    start = time.perf_counter()
    for step in range(1, SUPERSTEPS + 1):
        for pid in range(nprocs):
            for k in range(DEGREE):
                peer = (pid + k + 1) % nprocs
                for m in range(MSGS_PER_PEER):
                    buffers.send(pid, peer, [float(pid), float(step * m)])
                for p in range(PUTS_PER_PEER):
                    registers.put(pid, peer, "acc", float(step + p))
                for _ in range(GETS_PER_PEER):
                    registers.get(peer, "acc", reader=pid)
        buffers.exchange()
        registers.synchronize()
        for pid in range(nprocs):
            checksum += len(buffers.inbox(pid))
            checksum += int(sum(m[0] for m in buffers.inbox(pid)))
    elapsed = time.perf_counter() - start
    return {
        "nprocs": nprocs,
        "mode": "combining" if combining else "per-message",
        "messages_sent": buffers.messages_sent,
        "orb_calls": buffers.orb_calls,
        "drma_calls": registers.drma_calls,
        "wire_bytes": buffers.wire_bytes,
        "puts_applied": registers.puts_applied,
        "comm_wall_s": round(elapsed, 4),
        "checksum": checksum,
    }


def run_experiment():
    ckpt_table = Table(
        ["procs", "mutation", "mode", "MB written", "dedup", "saves/s (wall)"],
        title="S4a: checkpoint bytes per 12 supersteps",
    )
    ckpt_rows = []
    for nprocs in PROCESSES:
        for rate in MUTATION_RATES:
            for mode in ("full", "chunked"):
                row = measure_checkpoint_plane(nprocs, rate, mode)
                ckpt_rows.append(row)
                ckpt_table.add_row(
                    nprocs, f"{rate:.0%}", mode,
                    f"{row['bytes_written'] / 1e6:,.1f}",
                    f"{row.get('dedup_hit_rate', 0.0):.2f}",
                    f"{row['saves_per_wall_s']:,.0f}",
                )
    comm_table = Table(
        ["procs", "mode", "messages", "ORB calls", "DRMA calls",
         "KB on wire", "wall s"],
        title="S4b: superstep comm calls per 12 supersteps",
    )
    comm_rows = []
    for nprocs in PROCESSES:
        for combining in (False, True):
            row = drive_comm(nprocs, combining)
            comm_rows.append(row)
            comm_table.add_row(
                nprocs, row["mode"], row["messages_sent"],
                f"{row['orb_calls']:,}", f"{row['drma_calls']:,}",
                f"{row['wire_bytes'] / 1024.0:,.0f}",
                f"{row['comm_wall_s']:.3f}",
            )
    return ckpt_table, comm_table, ckpt_rows, comm_rows


def _ckpt_row(rows, nprocs, rate, mode):
    return next(
        r for r in rows
        if r["nprocs"] == nprocs and r["mutation_rate"] == rate
        and r["mode"] == mode
    )


def _comm_row(rows, nprocs, mode):
    return next(
        r for r in rows if r["nprocs"] == nprocs and r["mode"] == mode
    )


def test_s4_execution_plane(benchmark):
    ckpt_table, comm_table, ckpt_rows, comm_rows = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    save_result(
        "s4_execution_plane",
        ckpt_table.render() + "\n\n" + comm_table.render(),
    )
    save_json("S4", {
        "experiment": "s4_execution_plane",
        "supersteps": SUPERSTEPS,
        "chunk_size": CHUNK_SIZE,
        "state_chunks": STATE_CHUNKS,
        "rebase_every": REBASE_EVERY,
        "degree": DEGREE,
        "msgs_per_peer": MSGS_PER_PEER,
        "checkpoint_rows": ckpt_rows,
        "comm_rows": comm_rows,
    })
    # Headline: at every scale and mutation rate <= 10%, chunking cuts
    # checkpoint bytes >= 3x (the 1024-proc / 10% pairing is the
    # acceptance gate; 1% does far better).
    for nprocs in PROCESSES:
        for rate in MUTATION_RATES:
            full = _ckpt_row(ckpt_rows, nprocs, rate, "full")
            chunked = _ckpt_row(ckpt_rows, nprocs, rate, "chunked")
            assert full["saves"] == chunked["saves"]
            ratio = full["bytes_written"] / chunked["bytes_written"]
            assert ratio >= 3.0, (nprocs, rate, ratio)
            # Replica pairs must actually share chunk storage.
            assert chunked["dedup_hit_rate"] > 0.3
            # SUPERSTEPS crosses REBASE_EVERY: the chain really rebased.
            assert chunked["rebases"] >= nprocs
    for nprocs in PROCESSES:
        seed = _comm_row(comm_rows, nprocs, "per-message")
        comb = _comm_row(comm_rows, nprocs, "combining")
        # Identical delivery in both modes...
        assert seed["checksum"] == comb["checksum"]
        assert seed["messages_sent"] == comb["messages_sent"]
        assert seed["puts_applied"] == comb["puts_applied"]
        # ...but combining issues exactly one BSMP call per communicating
        # pair per superstep (O(peers)), and one DRMA call per direction
        # per pair, independent of per-pair message counts.
        assert comb["orb_calls"] == SUPERSTEPS * nprocs * DEGREE
        assert seed["orb_calls"] == comb["orb_calls"] * MSGS_PER_PEER
        assert comb["drma_calls"] == SUPERSTEPS * nprocs * DEGREE * 2
        assert seed["drma_calls"] == \
            SUPERSTEPS * nprocs * DEGREE * (PUTS_PER_PEER + GETS_PER_PEER)
        assert comb["wire_bytes"] < seed["wire_bytes"]
