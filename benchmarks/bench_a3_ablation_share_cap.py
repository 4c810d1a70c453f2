"""A3 — ablation: the NCC's active-share cap.

The paper's worked NCC example lets an owner donate "30% of the CPU"
even while working.  Sweep the active cap from 0 (vacate-equivalent) to
1.0 (no protection besides owner-first scheduling) on one office
desktop, measuring weekly grid harvest and task completion latency.
Expected shape: harvest grows with the cap with diminishing returns
(nights dominate either way), while owner QoS stays untouched at every
setting — the owner-first scheduler, not the cap, is what protects the
owner; the cap controls how *much* of the leftover the grid may claim.
"""

import random

from repro.analysis.metrics import Table
from repro.core.lrm import Lrm
from repro.core.ncc import NodeControlCenter, SharingPolicy
from repro.sim.clock import SECONDS_PER_DAY
from repro.sim.events import EventLoop
from repro.sim.machine import MachineSpec
from repro.sim.usage import OFFICE_WORKER
from repro.sim.workstation import Workstation

from conftest import run_once, save_result


class _SinkGrm:
    def __init__(self):
        self.completed = 0

    def register_node(self, status, ior):
        pass

    def send_update(self, status):
        pass

    def heartbeat(self, node):
        pass

    def task_completed(self, node, task_id, result=None):
        self.completed += 1

    def task_evicted(self, node, task_id, progress, resume):
        pass

    def task_reached_limit(self, node, task_id):
        pass


def run_cap(active_cap, seed=21):
    loop = EventLoop()
    workstation = Workstation(
        loop, "desk", spec=MachineSpec(mips=1000.0, ram_mb=512.0),
        profile=OFFICE_WORKER, rng=random.Random(seed),
    )
    policy = SharingPolicy(cpu_cap_idle=1.0, cpu_cap_active=active_cap)
    ncc = NodeControlCenter(loop, policy)
    lrm = Lrm(loop, workstation, ncc)
    grm = _SinkGrm()
    lrm.attach_grm(grm, "IOR:sink")

    machine = workstation.machine
    harvested_mips = 0.0
    owner_requested = 0.0
    owner_received = 0.0
    counter = [0]

    def keep_busy():
        if lrm.running_tasks:
            return
        counter[0] += 1
        task_id = f"t{counter[0]}"
        # Tasks always want the whole CPU; the NCC cap decides how much
        # they get while the owner is present (and full speed when away).
        reply = lrm.request_reservation({
            "task_id": task_id, "cpu_fraction": 1.0,
            "mem_mb": 64.0, "disk_mb": 0.0, "lease_seconds": 300.0,
        })
        if reply["accepted"]:
            lrm.start_task({
                "task_id": task_id, "job_id": "stream",
                "work_mips": 1e6, "initial_progress_mips": 0.0,
                "checkpoint_interval_s": 600.0, "payload": "",
            })

    def measure():
        nonlocal harvested_mips, owner_requested, owner_received
        owner_requested += machine.owner_cpu
        owner_received += machine.owner_received_cpu()
        for task_id in lrm.running_tasks:
            harvested_mips += lrm.task_rate_mips(task_id) * 30.0

    loop.every(60.0, keep_busy)
    loop.every(30.0, measure)
    loop.run_until(7 * SECONDS_PER_DAY)
    qos = owner_received / owner_requested if owner_requested else 1.0
    return {
        "harvest_cpu_hours": harvested_mips / 1000.0 / 3600.0,
        "tasks_completed": grm.completed,
        "owner_slowdown_pct": (1.0 - qos) * 100.0,
    }


def run_experiment():
    table = Table(
        ["active-share cap", "grid CPU-hours/week", "tasks completed",
         "owner slowdown %"],
        title=(
            "A3: NCC active-share cap sweep on one office desktop\n"
            "(grid saturated; idle cap fixed at 1.0)"
        ),
    )
    results = {}
    for cap in (0.0, 0.1, 0.3, 0.5, 1.0):
        outcome = run_cap(cap)
        results[cap] = outcome
        table.add_row(
            cap, outcome["harvest_cpu_hours"], outcome["tasks_completed"],
            outcome["owner_slowdown_pct"],
        )
    return table, results


def test_a3_ablation_share_cap(benchmark):
    table, results = run_once(benchmark, run_experiment)
    save_result("a3_ablation_share_cap", table.render(), table=table)
    # Harvest is monotone non-decreasing in the cap...
    caps = sorted(results)
    harvests = [results[c]["harvest_cpu_hours"] for c in caps]
    assert all(b >= a - 0.5 for a, b in zip(harvests, harvests[1:]))
    # ...owner QoS is untouched at every setting (owner-first scheduling).
    assert all(
        r["owner_slowdown_pct"] < 0.5 for r in results.values()
    )
    # And the marginal gain shrinks: 0->0.3 buys more than 0.5->1.0.
    gain_low = results[0.3]["harvest_cpu_hours"] - results[0.0]["harvest_cpu_hours"]
    gain_high = results[1.0]["harvest_cpu_hours"] - results[0.5]["harvest_cpu_hours"]
    assert gain_low > gain_high
