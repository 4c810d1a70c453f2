"""The per-interval path: counters that are views, and what each send
does not do.

Every node sends the GRM an update every interval, so the update send,
the status it builds and the run it fires in are held to their floor
here by counting calls from outside (wrapping class methods), never by
wall-clock time:

* the LRM asks its NCC for the next blackout edge once, not once per
  send;
* a machine's grid totals are re-summed by ``allocate`` and ``release``
  and nowhere else;
* a run member requeued for the instant the tail run is due joins that
  run inline, without a ``_push_task`` call.

``Lrm.updates_sent``, ``GrmStats.updates_received`` and
``Orb.requests_handled`` are views over the counters that are bumped;
their identities hold and the metrics snapshot keeps every name and
value it had when they were bumped counters
(``tests/data/per_interval_metrics.json``; re-record it with
``PYTHONPATH=src python tests/test_per_interval_path.py --write``).
"""

import json
import sys
from pathlib import Path

import pytest

from repro.apps.spec import ApplicationSpec
from repro.core.grid import Grid
from repro.core.lrm import Lrm
from repro.core.ncc import NodeControlCenter
from repro.sim.events import EventLoop
from repro.sim.machine import Machine
from repro.sim.usage import ERRATIC, NIGHT_OWL, OFFICE_WORKER, STUDENT_LAB

EXPECTED_PATH = Path(__file__).parent / "data" / "per_interval_metrics.json"
HOURS = 2.0


def small_grid(metrics: bool = False):
    """Four nodes of mixed owners under the default policy (no blackout),
    two 2-task jobs, two simulated hours."""
    grid = Grid(seed=11)
    grid.add_cluster("c0")
    for i, profile in enumerate((OFFICE_WORKER, STUDENT_LAB, NIGHT_OWL,
                                 ERRATIC)):
        grid.add_node("c0", f"n{i}", profile=profile)
    registry = grid.enable_metrics() if metrics else None
    for i in range(2):
        grid.submit(ApplicationSpec(name=f"job{i}", tasks=2,
                                    work_mips=2e6), "c0")
    grid.run_until(HOURS * 3600.0)
    return grid, registry


def snapshot_values(registry) -> dict:
    """Every metric of a snapshot; a latency histogram by name only
    (None), since it holds host times."""
    metrics = registry.snapshot()["metrics"]
    return {name: None if name.endswith("latency_s") else value
            for name, value in sorted(metrics.items())}


class TestCounterViews:
    def test_identities_hold_on_a_fault_free_grid(self):
        grid, _ = small_grid()
        lrms = [node.lrm for node in grid.clusters["c0"].nodes.values()]
        for lrm in lrms:
            assert lrm.updates_sent == lrm.updates_full + lrm.heartbeats_sent
            assert lrm.updates_sent == HOURS * 60   # one a minute
        stats = grid.clusters["c0"].grm.stats
        assert stats.updates_received \
            == stats.statuses_received + stats.heartbeats_received
        assert sum(lrm.updates_sent for lrm in lrms) \
            == stats.updates_received
        assert sum(lrm.updates_full for lrm in lrms) \
            == stats.statuses_received
        orbs = [grid.clusters["c0"].orb] \
            + [node.orb for node in grid.clusters["c0"].nodes.values()]
        for orb in orbs:
            assert orb.stats()["requests_handled"] == orb.requests_handled \
                == orb.stats()["requests_received"]
        protocol = grid.protocol_stats()
        assert protocol["requests_handled"] == protocol["requests_received"]

    def test_metrics_snapshot_keeps_every_name_and_value(self):
        _, registry = small_grid(metrics=True)
        values = snapshot_values(registry)
        expected = json.loads(EXPECTED_PATH.read_text())
        assert {name: values.get(name, "missing") for name in expected} \
            == expected
        # ...and publishes nothing the pin does not name.
        assert sorted(set(values) - set(expected)) == []
        assert values["grm.c0.statuses_received"] \
            == expected["lrm.total.updates_full"]


@pytest.fixture
def calls(monkeypatch):
    """Count calls of class methods, wrapped before any grid is built
    (a periodic task holds the bound method it was started with)."""
    counts = {}

    def wrap(cls, name, check=None):
        original = getattr(cls, name)
        key = f"{cls.__name__}.{name}"
        counts[key] = 0

        def counted(self, *args, **kwargs):
            if check is not None:
                check(self, sys._getframe(1), *args)
            result = original(self, *args, **kwargs)
            counts[key] += 1   # only calls that returned
            return result

        monkeypatch.setattr(cls, name, counted)

    return wrap, counts


class TestPerSendWork:
    def test_the_blackout_edge_is_computed_once_per_node(self, calls):
        wrap, counts = calls
        callers = set()
        wrap(NodeControlCenter, "next_sharing_change")
        wrap(Lrm, "_next_sharing_change",
             lambda lrm, caller: callers.add(caller.f_code.co_name))
        wrap(Lrm, "_send_update")
        small_grid()
        assert counts["Lrm._send_update"] == 4 * HOURS * 60
        assert counts["NodeControlCenter.next_sharing_change"] == 4
        assert callers <= {"attach_grm", "_replan"}   # never a send

    def test_totals_are_resummed_only_by_allocate_and_release(self, calls):
        wrap, counts = calls
        wrap(Machine, "allocate")
        wrap(Machine, "release")
        wrap(Machine, "_resum")
        small_grid()
        assert counts["Machine.allocate"] == 4   # one per task
        assert counts["Machine._resum"] \
            == counts["Machine.allocate"] + counts["Machine.release"]

    def test_a_run_member_joins_the_tail_without_a_push(self, calls):
        wrap, _ = calls
        joins_through_push = []

        def from_fire(loop, caller, when, task):
            if caller.f_code.co_name == "_fire" and when == loop._tail_when:
                joins_through_push.append(when)

        wrap(EventLoop, "_push_task", from_fire)
        grid, _ = small_grid()
        assert joins_through_push == []
        # ...and members did join: some heap entry is a run of four or
        # more (the four nodes tick together).
        runs = [entry[2] for entry in grid.loop._heap
                if entry[2].__class__ is list]
        assert max(len(run) for run in runs) >= 4


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    _, registry = small_grid(metrics=True)
    values = snapshot_values(registry)
    EXPECTED_PATH.write_text(json.dumps(values, indent=1) + "\n")
