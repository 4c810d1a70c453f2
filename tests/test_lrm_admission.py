"""The LRM refuses reservation and launch values it cannot honour.

A reservation commits owner resources, so values no honest GRM sends —
a negative or NaN amount, a CPU share outside (0, 1], a lease that never
lapses — are refused before anything is committed, on the direct call
and on a marshalled request alike.  A launch that could never end — NaN
or infinite work, a starting progress outside [0, work], a NaN
checkpoint interval — is refused the same way, and its reservation
lapses with its lease.
"""

import math

import pytest

from repro.core.grid import Grid
from repro.core.lrm import MAX_LEASE_SECONDS
from repro.core.protocols import LRM_INTERFACE

BASE = {"task_id": "t1", "cpu_fraction": 0.1, "mem_mb": 10.0,
        "disk_mb": 0.0, "lease_seconds": 30.0}

HOSTILE = [
    {"mem_mb": -1e6},
    {"disk_mb": -1e9},
    {"lease_seconds": math.inf},
    {"cpu_fraction": math.nan},
    {"mem_mb": math.nan},
    {"lease_seconds": math.nan},
]


def one_node_grid():
    grid = Grid(seed=0, lupa_enabled=False)
    grid.add_cluster("c")
    node = grid.add_node("c", "n0", dedicated=True)
    grid.run_for(60)
    return grid, node


def capacity(lrm) -> tuple:
    status = lrm.status()
    return status["cpu_free"], status["mem_free_mb"], status["disk_free_mb"]


@pytest.mark.parametrize("bad", HOSTILE, ids=[
    f"{key}={value}" for row in HOSTILE for key, value in row.items()])
def test_hostile_values_are_refused_and_commit_nothing(bad):
    _grid, node = one_node_grid()
    lrm = node.lrm
    before = capacity(lrm)
    reply = lrm.request_reservation(dict(BASE, **bad))
    assert reply["accepted"] is False
    assert not lrm.ledger.holds("t1")
    assert capacity(lrm) == before
    assert lrm.refused_reservations == 1


@pytest.mark.parametrize("bad", [
    {"cpu_fraction": 0.0}, {"cpu_fraction": 1.5}, {"lease_seconds": 0.0},
    {"lease_seconds": MAX_LEASE_SECONDS * 2}, {"disk_mb": math.inf},
])
def test_the_bounds_of_the_ranges_are_refused(bad):
    _grid, node = one_node_grid()
    assert node.lrm.request_reservation(dict(BASE, **bad))["accepted"] \
        is False


def test_the_largest_honourable_request_is_accepted():
    _grid, node = one_node_grid()
    reply = node.lrm.request_reservation(dict(
        BASE, cpu_fraction=1.0, lease_seconds=MAX_LEASE_SECONDS))
    assert reply["accepted"] is True


def test_a_marshalled_request_is_refused_the_same_way():
    grid, node = one_node_grid()
    lrm = node.lrm
    before = capacity(lrm)
    peer = grid._make_orb("peer")
    ref = peer.stub(node.lrm_ior, LRM_INTERFACE)._ref
    reply = peer.invoke(
        ref, LRM_INTERFACE.operation("request_reservation"),
        (dict(BASE, mem_mb=-1e6),),
    )
    assert reply["accepted"] is False
    assert peer.stats()["bytes_sent"] > 0          # it really marshalled
    assert not lrm.ledger.holds("t1")
    assert capacity(lrm) == before


LAUNCH = {"task_id": "t1", "job_id": "j1", "work_mips": 1e6,
          "initial_progress_mips": 0.0, "checkpoint_interval_s": 0.0,
          "payload": ""}

HOSTILE_LAUNCHES = [
    {"work_mips": math.nan},
    {"work_mips": math.inf},
    {"initial_progress_mips": math.nan},
    {"work_mips": -1.0},
    {"work_mips": 0.0},
    {"initial_progress_mips": -1.0},
    {"initial_progress_mips": 2e6},
    {"checkpoint_interval_s": math.nan},
    {"checkpoint_interval_s": math.inf},
    {"checkpoint_interval_s": -1.0},
]


def reserved_node():
    """A 1-node grid holding a 0.5-CPU, 30 s reservation for ``t1``."""
    grid, node = one_node_grid()
    reply = node.lrm.request_reservation(dict(BASE, cpu_fraction=0.5))
    assert reply["accepted"] is True
    return grid, node


@pytest.mark.parametrize("bad", HOSTILE_LAUNCHES, ids=[
    f"{key}={value}" for row in HOSTILE_LAUNCHES
    for key, value in row.items()])
def test_hostile_launches_are_refused_and_the_reservation_lapses(bad):
    grid, node = reserved_node()
    lrm = node.lrm
    assert lrm.start_task(dict(LAUNCH, **bad)) is False
    assert lrm.running_tasks == []
    grid.run_for(BASE["lease_seconds"] + 1.0)
    assert not lrm.ledger.holds("t1")
    assert lrm.status()["cpu_free"] == 1.0


def test_the_bounds_of_a_launch_are_accepted():
    grid, node = reserved_node()
    lrm = node.lrm
    assert lrm.start_task(dict(
        LAUNCH, initial_progress_mips=LAUNCH["work_mips"],
        checkpoint_interval_s=0.0)) is True
    assert lrm.running_tasks != []


@pytest.mark.parametrize("bad", HOSTILE_LAUNCHES, ids=[
    f"{key}={value}" for row in HOSTILE_LAUNCHES
    for key, value in row.items()])
def test_a_marshalled_launch_is_refused_the_same_way(bad):
    grid, node = reserved_node()
    lrm = node.lrm
    peer = grid._make_orb("peer")
    ref = peer.stub(node.lrm_ior, LRM_INTERFACE)._ref
    started = peer.invoke(
        ref, LRM_INTERFACE.operation("start_task"), (dict(LAUNCH, **bad),),
    )
    assert started is False
    assert peer.stats()["bytes_sent"] > 0          # it really marshalled
    assert lrm.running_tasks == []
    grid.run_for(BASE["lease_seconds"] + 1.0)
    assert not lrm.ledger.holds("t1")
