"""Unit tests for portable checkpointing and rollback recovery."""

import shutil

import pytest

from repro.apps.job import JobState
from repro.apps.spec import ApplicationSpec
from repro.checkpoint.recovery import RecoveryManager
from repro.checkpoint.serializer import (
    CheckpointCorrupted,
    deserialize,
    serialize,
)
from repro.checkpoint.store import FileCheckpointStore, MemoryCheckpointStore
from repro.core.grid import Grid
from repro.obs.metrics import MetricsRegistry
from repro.sim.clock import SECONDS_PER_DAY


class TestSerializer:
    @pytest.mark.parametrize("state", [
        {},
        {"progress_mips": 1234.5},
        {"superstep": 7, "registers": {"x": [1, 2, 3]}, "blob": b"\x00\xff"},
        {"nested": {"deep": [{"a": None}, True, 2.5]}},
    ])
    def test_roundtrip(self, state):
        assert deserialize(serialize(state)) == state

    def test_non_dict_rejected(self):
        with pytest.raises(TypeError):
            serialize([1, 2, 3])

    def test_unserializable_state_rejected(self):
        with pytest.raises(TypeError):
            serialize({"fn": lambda: None})

    def test_truncated_data(self):
        data = serialize({"x": 1})
        with pytest.raises(CheckpointCorrupted):
            deserialize(data[:10])

    def test_bit_flip_detected(self):
        data = bytearray(serialize({"x": 1}))
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(CheckpointCorrupted):
            deserialize(bytes(data))

    def test_bad_magic(self):
        data = bytearray(serialize({"x": 1}))
        data[0:4] = b"NOPE"
        with pytest.raises(CheckpointCorrupted):
            deserialize(bytes(data))

    def test_format_is_deterministic(self):
        # Byte-identical output enables cross-node content comparison.
        assert serialize({"a": 1, "b": 2.0}) == serialize({"a": 1, "b": 2.0})

    # -- corruption matrix: every way the envelope can lie ------------------

    def test_truncated_header(self):
        data = serialize({"x": 1})
        for cut in range(12):   # shorter than magic+version+length
            with pytest.raises(CheckpointCorrupted):
                deserialize(data[:cut])

    def test_truncated_payload(self):
        data = serialize({"x": 1, "y": [1, 2, 3]})
        with pytest.raises(CheckpointCorrupted):
            deserialize(data[:-6])   # loses CRC tail and payload bytes

    def test_declared_length_mismatch(self):
        import struct
        import zlib
        data = bytearray(serialize({"x": 1}))
        # Rewrite the length field to claim one byte fewer, then re-seal
        # the CRC so only the length lie can trip validation.
        magic, version, length = struct.unpack_from("<4sHxxI", data)
        struct.pack_into("<I", data, 8, length - 1)
        body = bytes(data[:-4])
        data[-4:] = struct.pack("<I", zlib.crc32(body))
        with pytest.raises(CheckpointCorrupted) as excinfo:
            deserialize(bytes(data))
        assert "declared" in str(excinfo.value)

    def test_appended_bytes_after_crc(self):
        data = serialize({"x": 1})
        with pytest.raises(CheckpointCorrupted):
            deserialize(data + b"\x00")
        with pytest.raises(CheckpointCorrupted):
            deserialize(data + b"trailing garbage")

    def test_appended_bytes_with_resealed_crc(self):
        # An attacker recomputing the CRC over body+garbage still fails:
        # the declared length no longer matches the actual payload span.
        import struct
        import zlib
        data = serialize({"x": 1})
        body = data[:-4] + b"\xde\xad"
        forged = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(CheckpointCorrupted):
            deserialize(forged)

    def test_payload_with_undecoded_tail_rejected(self):
        # Grow the declared payload to cover extra in-payload bytes and
        # re-seal the CRC: the VARIANT decode must consume every byte.
        import struct
        import zlib
        data = serialize({"x": 1})
        payload = data[12:-4] + b"\x00\x00\x00\x00"
        header = struct.pack("<4sHxxI", b"IGCP", 1, len(payload))
        body = header + payload
        forged = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(CheckpointCorrupted) as excinfo:
            deserialize(forged)
        assert "undecoded" in str(excinfo.value)


class TestMemoryStore:
    def test_save_and_load(self):
        store = MemoryCheckpointStore()
        store.save("t1", {"progress_mips": 10.0}, now=5.0)
        record = store.load_latest("t1")
        assert record.sequence == 1
        assert record.time == 5.0
        assert record.state()["progress_mips"] == 10.0

    def test_latest_wins(self):
        store = MemoryCheckpointStore()
        store.save("t1", {"p": 1}, 1.0)
        store.save("t1", {"p": 2}, 2.0)
        assert store.load_latest("t1").state()["p"] == 2
        assert store.load_latest("t1").sequence == 2

    def test_missing_task(self):
        assert MemoryCheckpointStore().load_latest("ghost") is None

    def test_discard(self):
        store = MemoryCheckpointStore()
        store.save("t1", {"p": 1}, 1.0)
        store.discard("t1")
        assert store.load_latest("t1") is None
        store.discard("t1")   # idempotent

    def test_accounting(self):
        store = MemoryCheckpointStore()
        store.save("t1", {"p": 1}, 1.0)
        store.save("t2", {"p": 2}, 1.0)
        assert store.saves == 2
        assert store.bytes_written > 0
        assert store.task_ids == ["t1", "t2"]

    def test_metrics_views(self):
        store = MemoryCheckpointStore()
        registry = MetricsRegistry()
        store.to_metrics(registry, prefix="checkpoint.c0")
        store.save("t", {"blob": bytes(100)}, 1.0)
        snap = registry.snapshot()["metrics"]
        assert snap["checkpoint.c0.saves"] == store.saves == 1
        assert snap["checkpoint.c0.bytes_written"] == store.bytes_written
        # A restore here is a dict lookup: nothing to time.
        assert "checkpoint.c0.restore_latency_s" not in snap


class TestFileStore:
    def test_save_and_load(self, tmp_path):
        store = FileCheckpointStore(str(tmp_path))
        store.save("job0.1", {"progress_mips": 42.0}, now=7.0)
        record = store.load_latest("job0.1")
        assert record.task_id == "job0.1"
        assert record.time == 7.0
        assert record.state()["progress_mips"] == 42.0

    def test_survives_new_store_instance(self, tmp_path):
        FileCheckpointStore(str(tmp_path)).save("t1", {"p": 9}, 1.0)
        fresh = FileCheckpointStore(str(tmp_path))
        assert fresh.load_latest("t1").state()["p"] == 9

    def test_discard_removes_file(self, tmp_path):
        store = FileCheckpointStore(str(tmp_path))
        store.save("t1", {"p": 1}, 1.0)
        store.discard("t1")
        assert store.load_latest("t1") is None
        assert store.task_ids == []

    def test_task_ids(self, tmp_path):
        store = FileCheckpointStore(str(tmp_path))
        store.save("a", {}, 0.0)
        store.save("b", {}, 0.0)
        assert store.task_ids == ["a", "b"]

    def test_corrupted_file_detected(self, tmp_path):
        store = FileCheckpointStore(str(tmp_path))
        store.save("t1", {"p": 1}, 1.0)
        path = store._path("t1")
        with open(path, "r+b") as f:
            f.seek(12)
            f.write(b"\xff\xff\xff")
        with pytest.raises(CheckpointCorrupted):
            store.load_latest("t1")

    def test_unsafe_task_ids_sanitised(self, tmp_path):
        store = FileCheckpointStore(str(tmp_path))
        store.save("../evil/path", {"p": 1}, 1.0)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        assert files[0].parent == tmp_path

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = FileCheckpointStore(str(tmp_path))
        for i in range(3):
            store.save("t1", {"p": i}, float(i))
        assert not [p for p in tmp_path.iterdir()
                    if p.name.endswith(".tmp")]

    def test_ids_differing_only_in_unsafe_characters_do_not_collide(
            self, tmp_path):
        store = FileCheckpointStore(str(tmp_path))
        store.save("job/1", {"p": 1}, 1.0)
        store.save("job_1", {"p": 2}, 2.0)
        assert store.load_latest("job/1").state() == {"p": 1}
        assert store.load_latest("job_1").state() == {"p": 2}
        assert store.task_ids == ["job/1", "job_1"]
        store.discard("job_1")
        assert store.load_latest("job/1").state() == {"p": 1}
        store.save("job_1", {"p": 3}, 3.0)
        store.discard("job/1")
        assert store.load_latest("job_1").state() == {"p": 3}
        assert store.task_ids == ["job_1"]

    def test_task_ids_are_the_real_ids(self, tmp_path):
        store = FileCheckpointStore(str(tmp_path))
        for task_id in ("../evil/path", "50%", "job0.1"):
            store.save(task_id, {}, 0.0)
        assert store.task_ids == sorted(["../evil/path", "50%", "job0.1"])
        assert all(p.parent == tmp_path for p in tmp_path.iterdir())

    def test_id_with_a_slash_survives_a_fresh_instance(self, tmp_path):
        saved = FileCheckpointStore(str(tmp_path)).save(
            "job/1", {"blob": bytes(range(256)), "step": 3}, 4.0
        )
        restored = FileCheckpointStore(str(tmp_path)).load_latest("job/1")
        assert restored == saved

    def test_checkpoint_filed_under_another_tasks_name_is_refused(
            self, tmp_path):
        store = FileCheckpointStore(str(tmp_path))
        store.save("t1", {"p": 1}, 1.0)
        shutil.copy(store._path("t1"), store._path("t2"))
        with pytest.raises(CheckpointCorrupted):
            store.load_latest("t2")
        assert store.load_latest("t1").state() == {"p": 1}

    def test_metrics_views(self, tmp_path):
        store = FileCheckpointStore(str(tmp_path))
        registry = MetricsRegistry()
        store.to_metrics(registry, prefix="checkpoint.c0")
        store.save("t", {"p": 1}, 1.0)
        store.load_latest("t")
        snap = registry.snapshot()["metrics"]
        assert snap["checkpoint.c0.saves"] == store.saves == 1
        assert snap["checkpoint.c0.bytes_written"] == store.bytes_written
        assert snap["checkpoint.c0.restore_latency_s"]["count"] == 1


def test_grid_checkpoints_land_in_the_cluster_store():
    """A checkpointing BSP job completes, and what the cluster's
    repository counted is what the metrics snapshot reports."""
    grid = Grid(policy="first_fit", lupa_enabled=False)
    grid.enable_metrics()
    grid.add_cluster("c0")
    for i in range(4):
        grid.add_node("c0", f"n{i}", dedicated=True)
    grid.run_for(120)
    job_id = grid.submit(ApplicationSpec(
        name="bsp", kind="bsp", tasks=4, program="kernel",
        work_mips=4e7, checkpoint_every_supersteps=2,
        metadata={"supersteps": 8},
    ))
    assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
    assert grid.job(job_id).state is JobState.COMPLETED
    store = grid.clusters["c0"].checkpoint_store
    snap = grid.metrics.snapshot()["metrics"]
    assert snap["checkpoint.c0.saves"] == store.saves > 0
    assert "lrm.total.checkpoints_skipped" in snap


class TestRecoveryManager:
    def test_no_checkpoints_means_scratch(self):
        recovery = RecoveryManager("j", ["a", "b"])
        assert recovery.consistent_superstep() is None
        assert recovery.rollback_point() == 0

    def test_consistent_cut(self):
        recovery = RecoveryManager("j", ["a", "b"])
        recovery.record_checkpoint("a", 2)
        recovery.record_checkpoint("b", 2)
        recovery.record_checkpoint("a", 4)
        # b never saved superstep 4: the cut stays at 2.
        assert recovery.consistent_superstep() == 2
        assert recovery.rollback_point() == 2

    def test_cut_advances_when_all_catch_up(self):
        recovery = RecoveryManager("j", ["a", "b"])
        for superstep in (2, 4):
            recovery.record_checkpoint("a", superstep)
            recovery.record_checkpoint("b", superstep)
        assert recovery.consistent_superstep() == 4

    def test_one_empty_member_blocks(self):
        recovery = RecoveryManager("j", ["a", "b"])
        recovery.record_checkpoint("a", 2)
        assert recovery.consistent_superstep() is None

    def test_unknown_member(self):
        recovery = RecoveryManager("j", ["a"])
        with pytest.raises(KeyError):
            recovery.record_checkpoint("ghost", 1)

    def test_superstep_must_increase(self):
        recovery = RecoveryManager("j", ["a"])
        recovery.record_checkpoint("a", 3)
        with pytest.raises(ValueError):
            recovery.record_checkpoint("a", 3)

    def test_prune(self):
        recovery = RecoveryManager("j", ["a", "b"])
        for superstep in (2, 4, 6):
            recovery.record_checkpoint("a", superstep)
            recovery.record_checkpoint("b", superstep)
        recovery.prune_before(4)
        assert recovery.consistent_superstep() == 6

    def test_needs_members(self):
        with pytest.raises(ValueError):
            RecoveryManager("j", [])

    def test_duplicate_record_rejected_without_corrupting_state(self):
        recovery = RecoveryManager("j", ["a", "b"])
        recovery.record_checkpoint("a", 2)
        recovery.record_checkpoint("b", 2)
        # A duplicate (re-delivered notification) is rejected...
        with pytest.raises(ValueError):
            recovery.record_checkpoint("a", 2)
        # ...and the consistent cut is unaffected by the attempt.
        assert recovery.consistent_superstep() == 2
        recovery.record_checkpoint("a", 4)
        recovery.record_checkpoint("b", 4)
        assert recovery.consistent_superstep() == 4

    def test_regressing_superstep_rejected(self):
        recovery = RecoveryManager("j", ["a"])
        recovery.record_checkpoint("a", 4)
        with pytest.raises(ValueError):
            recovery.record_checkpoint("a", 2)

    def test_stragglers(self):
        recovery = RecoveryManager("j", ["a", "b", "c"])
        # Nobody has checkpointed: nobody is behind anybody.
        assert recovery.stragglers() == []
        recovery.record_checkpoint("a", 2)
        recovery.record_checkpoint("b", 2)
        # c never saved anything; it (alone) holds the cut back.
        assert recovery.stragglers() == ["c"]
        recovery.record_checkpoint("a", 4)
        assert recovery.stragglers() == ["b", "c"]
        recovery.record_checkpoint("b", 4)
        recovery.record_checkpoint("c", 4)
        assert recovery.stragglers() == []
        assert recovery.consistent_superstep() == 4

    def test_prune_around_consistent_cut(self):
        recovery = RecoveryManager("j", ["a", "b"])
        for superstep in (2, 4, 6):
            recovery.record_checkpoint("a", superstep)
        for superstep in (2, 4):
            recovery.record_checkpoint("b", superstep)
        cut = recovery.consistent_superstep()
        assert cut == 4
        # Pruning strictly below the cut must not move it...
        recovery.prune_before(cut)
        assert recovery.consistent_superstep() == 4
        assert recovery.rollback_point() == 4
        # ...while pruning past it drops the only common superstep: the
        # job can then only restart from scratch.
        recovery.prune_before(cut + 1)
        assert recovery.consistent_superstep() is None
        assert recovery.rollback_point() == 0

    def test_rollback_point_counts_rollbacks(self):
        recovery = RecoveryManager("j", ["a"])
        recovery.record_checkpoint("a", 2)
        assert recovery.rollback_point() == 2
        assert recovery.rollback_point() == 2
        assert recovery.rollbacks == 2
