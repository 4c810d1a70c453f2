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
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.spec import ApplicationSpec, ResourceRequirements
from repro.core.grid import Grid
from repro.core.lrm import MAX_LEASE_SECONDS
from repro.core.ncc import SharingPolicy
from repro.core.protocols import LRM_INTERFACE
from repro.orb.exceptions import OrbError, RemoteInvocationError

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


# -- a hostile peer on the marshalled path -----------------------------------

#: The node's owner agreed to half its CPU and 256 MB, and is never at
#: the machine, so these are the caps in force throughout.
HALF_POLICY = SharingPolicy(cpu_cap_idle=0.5, mem_cap_mb=256.0)
RUNNING = "c-job0.0"

doubles = st.floats() | st.sampled_from(
    [0.0, -1.0, 0.25, 1.0, 1e6, math.inf, -math.inf, math.nan])
task_ids = st.sampled_from([RUNNING, "t.1", "t.x", ""]) | st.text(max_size=6)
payloads = st.sampled_from(
    ["", "result = task_index", "result = 1 / 0", "import os", "x = ("]
) | st.text(max_size=12)
reservations = st.fixed_dictionaries({
    "task_id": task_ids, "cpu_fraction": doubles, "mem_mb": doubles,
    "disk_mb": doubles, "lease_seconds": doubles,
})
launches = st.fixed_dictionaries({
    "task_id": task_ids, "job_id": st.text(max_size=4),
    "work_mips": doubles, "initial_progress_mips": doubles,
    "checkpoint_interval_s": doubles, "payload": payloads,
})
#: The arguments of every ``LRM_INTERFACE`` operation: well-typed, of
#: any value.
ARGUMENTS = {
    "ping": (),
    "get_status": (),
    "request_reservation": (reservations,),
    "cancel_reservation": (task_ids,),
    "start_task": (launches,),
    "stop_task": (task_ids,),
    "set_work_limit": (task_ids, doubles),
    "get_progress": (task_ids,),
    "rollback_task": (task_ids, doubles),
}
calls = st.one_of(*(st.tuples(st.just(name), *args)
                    for name, args in ARGUMENTS.items()))


def test_the_hostile_peer_calls_every_operation():
    assert set(ARGUMENTS) == set(LRM_INTERFACE.operations)


def busy_node():
    """An authenticated 1-node grid running one task of a real job."""
    grid = Grid(seed=0, lupa_enabled=False, auth_secret=b"grid")
    grid.add_cluster("c")
    node = grid.add_node("c", "n0", sharing=HALF_POLICY)
    job_id = grid.submit(ApplicationSpec(
        name="job", work_mips=1e7,
        requirements=ResourceRequirements(cpu_fraction=0.25),
    ))
    grid.run_for(120)
    assert node.lrm.running_tasks == [RUNNING]
    assert grid.job(job_id).tasks[0].task_id == RUNNING
    return grid, node


def assert_node_sound(node):
    lrm, machine = node.lrm, node.workstation.machine
    spec = machine.spec
    now = lrm._loop.now
    # Machine totals are finite and within the spec.
    assert 0.0 <= machine.grid_cpu <= 1.0 + 1e-9
    assert 0.0 <= machine.grid_mem_mb <= spec.ram_mb
    assert 0.0 <= machine.disk_used_mb <= spec.disk_mb
    status = lrm.status()
    for key in ("cpu_free", "mem_free_mb", "disk_free_mb"):
        assert 0.0 <= status[key] < math.inf, key
    # Every lease lapses; a confirmed one belongs to a running task, and
    # every running task holds one.
    for reservation in lrm.ledger.active:
        if reservation.confirmed:
            assert reservation.task_id in lrm.running_tasks
        else:
            assert now <= reservation.expires_at <= now + MAX_LEASE_SECONDS
    for task_id in lrm.running_tasks:
        assert lrm.ledger.get(task_id).confirmed
        # What a task did stays a figure the GRM can resume from.
        record = lrm._running[task_id]
        assert 0.0 <= record.progress_mips <= record.work_mips
        assert 0.0 <= record.checkpoint_progress <= record.work_mips
    # The owner's caps hold.
    assert machine.grid_cpu <= HALF_POLICY.cpu_cap_idle + 1e-9
    assert machine.grid_mem_mb <= HALF_POLICY.mem_cap_mb + 1e-9


def test_a_running_tasks_reservation_cannot_be_cancelled():
    grid, node = busy_node()
    peer = grid._make_orb("peer")
    stub = peer.stub(node.lrm_ior, LRM_INTERFACE)
    before = node.workstation.machine.grid_cpu
    stub.cancel_reservation(RUNNING)
    assert node.lrm.ledger.get(RUNNING).confirmed
    assert node.workstation.machine.grid_cpu == before == 0.25
    grid.run_for(60)
    assert node.lrm.get_progress(RUNNING) > 0.0


@pytest.mark.parametrize("to_progress", [-1.0, -math.inf, math.nan])
def test_a_rollback_below_zero_is_refused(to_progress):
    grid, node = busy_node()
    peer = grid._make_orb("peer")
    stub = peer.stub(node.lrm_ior, LRM_INTERFACE)
    before = node.lrm.get_progress(RUNNING)
    with pytest.raises(RemoteInvocationError, match="ValueError"):
        stub.rollback_task(RUNNING, to_progress)
    assert node.lrm.get_progress(RUNNING) == before > 0.0


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(calls, st.sampled_from([0.0, 31.0, 900.0])),
                min_size=1, max_size=5))
def test_a_hostile_peer_leaves_the_node_sound(script):
    """Any well-typed call of any operation, marshalled and signed like a
    grid member's, ends in a refusal or an exception, and afterwards —
    also once the simulation runs on — the node's totals, leases and
    caps are sound."""
    grid, node = busy_node()
    peer = grid._make_orb("peer")
    stub = peer.stub(node.lrm_ior, LRM_INTERFACE)
    for (operation, *args), then in script:
        try:
            getattr(stub, operation)(*args)
        except OrbError:
            pass
        assert_node_sound(node)
        grid.run_for(then)
        assert_node_sound(node)
    assert peer.stats()["bytes_sent"] > 0          # it really marshalled


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(task_id=task_ids, payload=payloads,
       work=st.floats(min_value=1.0, max_value=1e5))
def test_a_hostile_launch_runs_to_an_end(task_id, payload, work):
    """A peer's own task, with any id and any code, either is refused or
    runs to an end without taking the node down with it."""
    grid, node = busy_node()
    peer = grid._make_orb("peer")
    stub = peer.stub(node.lrm_ior, LRM_INTERFACE)
    stub.request_reservation(dict(BASE, task_id=task_id, cpu_fraction=0.25))
    started = stub.start_task(dict(
        LAUNCH, task_id=task_id, work_mips=work, payload=payload))
    grid.run_for(3600)
    assert_node_sound(node)
    if started and task_id != RUNNING:
        assert task_id not in node.lrm.running_tasks
