"""E7 — owner quality-of-service preservation.

The paper's hardest requirement: "users who decide to share their
machines with the Grid shall not perceive any drop in the quality of
service".  An office owner works on a machine that also hosts grid
tasks, under three regimes:

* **naive harvester** — grid work at normal priority (fair-share CPU):
  the owner visibly loses cycles whenever the machine is oversubscribed;
* **InteGrade, share mode** — user-level control gives the owner
  absolute priority; the grid is throttled to the NCC's active-cap;
* **InteGrade, vacate mode** — Condor-style: grid leaves on arrival.

Measured: owner CPU received / requested (QoS), and grid throughput on
the same machine.  Expected shape: naive harvesting costs the owner
~30-50% during contention; both InteGrade modes keep owner QoS at 100%,
with share mode harvesting more than vacate mode.
"""

import random

from repro.core.lrm import Lrm
from repro.core.ncc import (
    NodeControlCenter,
    SharingPolicy,
    VACATE_POLICY,
)
from repro.analysis.metrics import Table
from repro.sim.clock import SECONDS_PER_DAY
from repro.sim.events import EventLoop
from repro.sim.machine import MachineSpec
from repro.sim.usage import OFFICE_WORKER
from repro.sim.workstation import Workstation

from conftest import run_once, save_result


class _SinkGrm:
    """Swallows LRM notifications; relaunches evicted work."""

    def __init__(self):
        self.completed = 0
        self.evictions = 0

    def register_node(self, status, ior):
        pass

    def send_update(self, status):
        pass

    def heartbeat(self, node):
        pass

    def task_completed(self, node, task_id, result=None):
        self.completed += 1

    def task_evicted(self, node, task_id, progress, resume):
        self.evictions += 1

    def task_reached_limit(self, node, task_id):
        pass


def run_regime(label, policy, scheduling, seed=21):
    loop = EventLoop()
    workstation = Workstation(
        loop, "desk", spec=MachineSpec(mips=1000.0, ram_mb=512.0),
        profile=OFFICE_WORKER, rng=random.Random(seed),
        scheduling=scheduling,
    )
    ncc = NodeControlCenter(loop, policy)
    lrm = Lrm(loop, workstation, ncc)
    grm = _SinkGrm()
    lrm.attach_grm(grm, "IOR:sink")

    machine = workstation.machine
    owner_requested = 0.0
    owner_received = 0.0
    grid_done_mips = 0.0
    task_counter = [0]

    def keep_grid_busy():
        """Whenever the node has no grid task, try to start one."""
        if lrm.running_tasks:
            return
        task_counter[0] += 1
        task_id = f"t{task_counter[0]}"
        reply = lrm.request_reservation({
            "task_id": task_id, "cpu_fraction": 1.0, "mem_mb": 64.0,
            "disk_mb": 0.0, "lease_seconds": 300.0,
        })
        if reply["accepted"]:
            lrm.start_task({
                "task_id": task_id, "job_id": "stream",
                "work_mips": 1e6, "initial_progress_mips": 0.0,
                "checkpoint_interval_s": 600.0,
            })

    def measure():
        nonlocal owner_requested, owner_received, grid_done_mips
        owner_requested += machine.owner_cpu
        owner_received += machine.owner_received_cpu()
        for task_id in lrm.running_tasks:
            grid_done_mips += lrm.task_rate_mips(task_id) * 30.0

    loop.every(60.0, keep_grid_busy)
    loop.every(30.0, measure)
    loop.run_until(7 * SECONDS_PER_DAY)

    qos = owner_received / owner_requested if owner_requested else 1.0
    return {
        "label": label,
        "owner_qos": qos,
        "owner_slowdown_pct": (1.0 - qos) * 100.0,
        "grid_cpu_hours": grid_done_mips / 1000.0 / 3600.0,
        "evictions": grm.evictions,
    }


def run_experiment():
    regimes = [
        ("naive fair-share harvester",
         SharingPolicy(cpu_cap_idle=1.0, cpu_cap_active=1.0),
         "fair_share"),
        ("InteGrade share mode (cap 0.2 while owner active)",
         SharingPolicy(cpu_cap_idle=1.0, cpu_cap_active=0.2),
         "owner_first"),
        ("InteGrade vacate mode (Condor-like)",
         VACATE_POLICY,
         "owner_first"),
        ("InteGrade vacate with 30 min suspend-grace",
         SharingPolicy(cpu_cap_active=0.0, vacate_on_owner_return=True,
                       vacate_grace_s=1800.0),
         "owner_first"),
    ]
    table = Table(
        ["regime", "owner slowdown %", "grid CPU-hours/week", "evictions"],
        title=(
            "E7: owner QoS on one office desktop over a simulated week\n"
            "(grid kept saturated with work)"
        ),
    )
    results = {}
    for label, policy, scheduling in regimes:
        outcome = run_regime(label, policy, scheduling)
        results[label] = outcome
        table.add_row(
            label, outcome["owner_slowdown_pct"],
            outcome["grid_cpu_hours"], outcome["evictions"],
        )
    return table, results


def test_e7_owner_qos(benchmark):
    table, results = run_once(benchmark, run_experiment)
    save_result("e7_owner_qos", table.render(), table=table)
    naive = results["naive fair-share harvester"]
    share = results["InteGrade share mode (cap 0.2 while owner active)"]
    vacate = results["InteGrade vacate mode (Condor-like)"]
    # The naive harvester visibly hurts the owner; InteGrade does not.
    assert naive["owner_slowdown_pct"] > 10.0
    assert share["owner_slowdown_pct"] < 0.5
    assert vacate["owner_slowdown_pct"] < 0.5
    # Share mode harvests at least as much as vacate mode.
    assert share["grid_cpu_hours"] >= vacate["grid_cpu_hours"]
