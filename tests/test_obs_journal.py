"""Structured event journal: recording, bounds, schema, grid wiring."""

import json

import pytest

from repro.obs.journal import (
    EVENT_TYPES,
    EventJournal,
    JournalFormatError,
    export_journal_jsonl,
    load_journal_jsonl,
    validate_journal,
    validate_journal_file,
)
from repro.sim.events import EventLoop


class TestEventJournal:
    def test_records_are_stamped_in_sim_time(self):
        loop = EventLoop()
        journal = EventJournal(clock=loop)
        journal.record("node_up", node="n0")
        loop.run_until(42.0)
        event = journal.record("node_down", node="n0", reason="test")
        assert event.time == 42.0
        assert journal.events[0].time == 0.0
        assert event.attrs == {"reason": "test"}

    def test_unknown_type_rejected(self):
        journal = EventJournal()
        with pytest.raises(ValueError):
            journal.record("node_exploded", node="n0")

    def test_sequence_numbers_strictly_increase(self):
        journal = EventJournal()
        events = [journal.record("node_up", node=f"n{i}") for i in range(5)]
        assert [e.seq for e in events] == [0, 1, 2, 3, 4]

    def test_record_returns_event_for_causal_chaining(self):
        journal = EventJournal()
        down = journal.record("node_down", node="n0")
        evicted = journal.record(
            "task_evicted", node="n0", task_id="t1", cause=down.seq
        )
        assert evicted.cause == down.seq

    def test_disabled_journal_records_nothing_and_returns_none(self):
        journal = EventJournal()
        journal.disable()
        assert journal.record("node_up", node="n0") is None
        assert len(journal) == 0
        journal.enable()
        assert journal.record("node_up", node="n0") is not None

    def test_bounded_buffer_counts_drops_and_keeps_seq_advancing(self):
        journal = EventJournal(max_events=3)
        for i in range(5):
            event = journal.record("node_up", node=f"n{i}")
        assert len(journal) == 3
        assert journal.recorded == 3
        assert journal.dropped == 2
        # The tail event still got a (valid, increasing) seq so later
        # survivors can reference it.
        assert event.seq == 4

    def test_select_filters_by_type_node_job_task(self):
        journal = EventJournal()
        journal.record("node_up", node="a")
        journal.record("node_up", node="b")
        journal.record("task_scheduled", node="a", job_id="j", task_id="t")
        assert len(journal.select(type="node_up")) == 2
        assert len(journal.select(node="a")) == 2
        assert len(journal.select(job_id="j", task_id="t")) == 1
        assert journal.select(type="node_down") == []

    def test_to_metrics_publishes_accounting_views(self):
        from repro.obs.metrics import MetricsRegistry

        journal = EventJournal(max_events=1)
        registry = MetricsRegistry()
        journal.to_metrics(registry)
        journal.record("node_up", node="a")
        journal.record("node_up", node="b")
        metrics = registry.snapshot()["metrics"]
        assert metrics["obs.journal.recorded"] == 1
        assert metrics["obs.journal.dropped"] == 1
        assert metrics["obs.journal.size"] == 1

    def test_max_events_must_be_positive(self):
        with pytest.raises(ValueError):
            EventJournal(max_events=0)


class TestExportAndValidation:
    def _journal(self):
        loop = EventLoop()
        journal = EventJournal(clock=loop)
        journal.record("node_up", node="n0", mips=1000.0)
        loop.run_until(10.0)
        down = journal.record("node_down", node="n0", reason="test")
        journal.record("task_evicted", node="n0", job_id="j0",
                       task_id="t0", cause=down.seq)
        return journal

    def test_jsonl_round_trip_validates(self, tmp_path):
        journal = self._journal()
        path = str(tmp_path / "journal.jsonl")
        assert export_journal_jsonl(journal.events, path) == 3
        events = load_journal_jsonl(path)
        assert validate_journal(events) == 3
        assert validate_journal_file(path) == 3
        assert events[2]["cause"] == events[1]["seq"]
        assert events[1]["attrs"]["reason"] == "test"

    def test_validate_accepts_journal_events_directly(self):
        assert validate_journal(self._journal().events) == 3

    def test_validator_rejects_unknown_type(self):
        events = [e.to_dict() for e in self._journal().events]
        events[0]["type"] = "bogus"
        with pytest.raises(JournalFormatError, match="unknown type"):
            validate_journal(events)

    def test_validator_rejects_non_increasing_seq(self):
        events = [e.to_dict() for e in self._journal().events]
        events[1]["seq"] = events[0]["seq"]
        with pytest.raises(JournalFormatError, match="seq"):
            validate_journal(events)

    def test_validator_rejects_time_going_backwards(self):
        events = [e.to_dict() for e in self._journal().events]
        events[2]["time"] = -1.0
        with pytest.raises(JournalFormatError, match="backwards"):
            validate_journal(events)

    def test_validator_rejects_forward_causal_link(self):
        events = [e.to_dict() for e in self._journal().events]
        events[0]["cause"] = 99
        with pytest.raises(JournalFormatError, match="precede"):
            validate_journal(events)

    def test_validator_rejects_missing_fields_and_bad_types(self):
        with pytest.raises(JournalFormatError, match="missing"):
            validate_journal([{"seq": 0, "time": 0.0, "type": "node_up"}])
        with pytest.raises(JournalFormatError, match="node"):
            validate_journal([{"seq": 0, "time": 0.0, "type": "node_up",
                               "node": 5, "attrs": {}}])
        with pytest.raises(JournalFormatError, match="not an object"):
            validate_journal(["nope"])

    def test_loader_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0}\nnot json\n')
        with pytest.raises(JournalFormatError, match="line 2"):
            load_journal_jsonl(str(path))


class TestGridWiring:
    def _grid(self):
        from repro import Grid

        grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0")
        for i in range(2):
            grid.add_node("c0", f"d{i}", dedicated=True)
        return grid

    def test_journal_off_by_default(self):
        grid = self._grid()
        assert grid.journal is None
        for handle in grid.clusters.values():
            assert handle.grm.journal is None
            for node in handle.nodes.values():
                assert node.lrm.journal is None

    def test_enable_is_idempotent_and_retroactively_rosters_nodes(self):
        grid = self._grid()
        grid.run_for(120)
        journal = grid.enable_journal()
        assert grid.enable_journal() is journal
        ups = journal.select(type="node_up")
        assert sorted(e.node for e in ups) == ["d0", "d1"]
        assert all(e.attrs.get("retroactive") for e in ups)

    def test_node_added_after_enable_is_journalled_live(self):
        grid = self._grid()
        grid.enable_journal()
        grid.add_node("c0", "d2", dedicated=True)
        grid.run_for(120)
        ups = grid.journal.select(type="node_up", node="d2")
        assert len(ups) == 1
        assert not ups[0].attrs.get("retroactive")
        assert grid.clusters["c0"].nodes["d2"].lrm.journal is grid.journal

    def test_job_lifecycle_emits_linked_events(self):
        from repro import ApplicationSpec

        grid = self._grid()
        grid.run_for(120)
        journal = grid.enable_journal()
        job_id = grid.submit(ApplicationSpec(
            name="t", work_mips=1e6,
            metadata={"checkpoint_interval_s": 300.0},
        ))
        assert grid.wait_for_job(job_id, max_seconds=4 * 3600.0)
        types = {e.type for e in journal.events}
        assert "reservation_granted" in types
        assert "task_scheduled" in types
        assert "checkpoint_saved" in types
        assert "task_completed" in types
        scheduled = journal.select(type="task_scheduled", job_id=job_id)
        assert scheduled and scheduled[0].attrs["initial_progress_mips"] == 0.0
        assert validate_journal(journal.events) == len(journal)

    def test_remove_node_emits_caused_eviction(self):
        from repro import ApplicationSpec

        grid = self._grid()
        grid.run_for(120)
        journal = grid.enable_journal()
        job_id = grid.submit(ApplicationSpec(name="t", work_mips=5e7))
        grid.run_for(600)
        victim = grid.job(job_id).tasks[0].node
        grid.remove_node("c0", victim)
        downs = journal.select(type="node_down", node=victim)
        assert len(downs) == 1
        assert downs[0].attrs["reason"] == "removed"
        evictions = journal.select(type="task_evicted")
        assert evictions and evictions[0].cause == downs[0].seq

    def test_bsp_job_emits_supersteps_and_batch_checkpoints(self):
        from repro import ApplicationSpec

        grid = self._grid()
        grid.run_for(120)
        journal = grid.enable_journal()
        job_id = grid.submit(ApplicationSpec(
            name="bsp", kind="bsp", tasks=2, program="kernel",
            work_mips=4e6, checkpoint_every_supersteps=2,
            metadata={"supersteps": 4, "superstep_comm_bytes": 1000},
        ))
        assert grid.wait_for_job(job_id, max_seconds=24 * 3600.0)
        steps = journal.select(type="bsp_superstep", job_id=job_id)
        # The last barrier releases members to run to completion, so the
        # final superstep ends in task_completed events, not a barrier.
        assert [e.attrs["superstep"] for e in steps] == [1, 2, 3]
        saves = journal.select(type="checkpoint_saved", job_id=job_id)
        assert saves and all(e.attrs["members"] >= 1 for e in saves)
        assert len(journal.select(type="task_completed", job_id=job_id)) == 2

    def test_update_from_unregistered_node_is_journalled_as_dropped(self):
        grid = self._grid()
        journal = grid.enable_journal()
        grm = grid.clusters["c0"].grm
        grm.send_update({"node": "ghost", "mips": 1000.0})
        drops = journal.select(type="update_dropped", node="ghost")
        assert len(drops) == 1
        assert drops[0].attrs["reason"] == "unregistered"

    def test_reservation_lease_expiry_is_a_violation_event(self):
        grid = self._grid()
        journal = grid.enable_journal()
        lrm = grid.clusters["c0"].nodes["d0"].lrm
        reply = lrm.request_reservation({
            "task_id": "tx", "cpu_fraction": 0.5, "mem_mb": 64.0,
            "disk_mb": 0.0, "lease_seconds": 30.0,
        })
        assert reply["accepted"]
        grid.run_for(60.0)   # never confirmed -> expires
        violations = journal.select(type="reservation_violated", node="d0")
        assert len(violations) == 1
        assert violations[0].task_id == "tx"


def test_journal_does_not_perturb_determinism():
    """Same seed, with and without the journal: identical event stream."""
    import hashlib

    from repro.apps.spec import ApplicationSpec
    from repro.core.grid import Grid
    from repro.sim.usage import PROFILES

    def run(enable):
        grid = Grid(seed=17, lupa_enabled=False)
        grid.add_cluster("c0")
        for i in range(3):
            grid.add_node("c0", f"n{i}",
                          profile=PROFILES["office_worker"])
        if enable:
            grid.enable_journal()
        grid.submit(ApplicationSpec(
            name="d", tasks=2,
            metadata={"checkpoint_interval_s": 600.0},
        ))
        digest = hashlib.sha256()
        for _ in range(48):
            grid.run_for(1800.0)
            digest.update(repr(grid.loop.now).encode())
            digest.update(repr(grid.loop.events_fired).encode())
        digest.update(repr(grid.protocol_stats()).encode())
        return digest.hexdigest()

    assert run(False) == run(True)


def test_event_type_vocabulary_is_the_documented_set():
    assert EVENT_TYPES == {
        "node_up", "node_down",
        "cluster_up", "cluster_down",
        "task_scheduled", "task_evicted", "task_restored", "task_completed",
        "checkpoint_saved", "checkpoint_restored",
        "reservation_granted", "reservation_violated",
        "bsp_superstep", "update_dropped",
    }


def test_export_accepts_plain_dicts(tmp_path):
    path = str(tmp_path / "j.jsonl")
    events = [{"seq": 0, "time": 0.0, "type": "node_up", "node": "a",
               "job_id": None, "task_id": None, "cause": None, "attrs": {}}]
    assert export_journal_jsonl(events, path) == 1
    assert json.loads(open(path).read())["node"] == "a"
