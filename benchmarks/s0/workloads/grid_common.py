"""Shared by the two ``Grid`` workloads: building nodes, preloading
GUPA, stepping simulated time, and turning job outcomes into a digest,
sim-time latencies and layer counters."""

import hashlib
import random

from repro.core.ncc import DEFAULT_POLICY, VACATE_POLICY
from repro.sim.machine import MachineSpec
from repro.sim.usage import ERRATIC, NIGHT_OWL, OFFICE_WORKER, STUDENT_LAB

HOUR = 3600.0
#: One step of a grid workload's timed phase: a simulated minute, which
#: is one full round of the Information Update Protocol.
STEP_SIM_SECONDS = 60.0

PROFILES = (OFFICE_WORKER, STUDENT_LAB, NIGHT_OWL, ERRATIC)
MIPS_CHOICES = (600.0, 1000.0, 1500.0, 2200.0)
RAM_CHOICES = (256.0, 512.0, 1024.0)
DEDICATED_SPEC = MachineSpec(mips=2000.0, ram_mb=2048.0)
GUPA_BINS_PER_DAY = 48

#: Every fast-path switch a ``--profile all_fast`` run turns on, if the
#: constructor still has it.  The default profile passes none of them.
FAST_GRID_KWARGS = (
    "delta_updates", "batched_ingest", "fast_local", "batch_oneway",
    "zero_copy_cdr", "chunked_checkpoints", "skip_unchanged_checkpoints",
    "incremental_summaries", "indexed_placement", "delta_uplinks",
)


def weekly_pattern(node: str, profile) -> dict:
    """The pattern LUPA would upload after learning ``profile`` exactly."""
    hours_per_bin = 24.0 / GUPA_BINS_PER_DAY
    return {
        "node": node,
        "bins_per_day": GUPA_BINS_PER_DAY,
        "weekly": [
            [profile.mean_presence(day, b * hours_per_bin)
             for b in range(GUPA_BINS_PER_DAY)]
            for day in range(7)
        ],
        "history_days": 28,
    }


def add_desktops(grid, cluster: str, count: int, rng: random.Random,
                 handles: list) -> None:
    """``count`` mixed-profile desktops, half of them vacate-on-return,
    each with its usage pattern already in the cluster's GUPA."""
    gupa = grid.clusters[cluster].gupa
    for i in range(count):
        name = f"{cluster}n{i:03}"
        profile = PROFILES[i % len(PROFILES)]
        spec = MachineSpec(mips=rng.choice(MIPS_CHOICES),
                           ram_mb=rng.choice(RAM_CHOICES))
        handles.append(grid.add_node(
            cluster, name, spec=spec, profile=profile,
            sharing=VACATE_POLICY if i % 2 else DEFAULT_POLICY,
        ))
        gupa.upload_pattern(name, weekly_pattern(name, profile))


def run_steps(grid, sim_seconds: float):
    """Advance ``sim_seconds`` one step at a time (a generator: the
    harness times each step)."""
    for _ in range(int(round(sim_seconds / STEP_SIM_SECONDS))):
        grid.run_for(STEP_SIM_SECONDS)
        yield


def final_job(grid, job):
    """Follow wide-area forwarding to the job that actually ran."""
    while job.forwarded_to:
        job = grid.job(job.forwarded_to)
    return job


def job_outcomes(grid, job_ids: list):
    """``(digest, sim latencies of completed jobs, jobs not completed)``.

    The digest covers each job's id, final state, completion time and
    placement history (every task transition with its node), plus the
    number of events the loop fired.
    """
    sha = hashlib.sha256()
    latencies = []
    unfinished = 0
    for job_id in job_ids:
        submitted = grid.job(job_id)
        job = final_job(grid, submitted)
        sha.update(f"{job_id}>{job.job_id}|{job.state.value}|"
                   f"{job.completed_at!r}\n".encode())
        for task in job.tasks:
            for event in task.history:
                sha.update(f"{task.task_id}|{event.time!r}|{event.state}|"
                           f"{event.detail}\n".encode())
        if job.state.value == "completed":
            latencies.append(job.completed_at - submitted.submitted_at)
        else:
            unfinished += 1
    sha.update(f"events_fired={grid.loop.events_fired}".encode())
    return sha.hexdigest(), sorted(latencies), unfinished


def counters(grid, node_handles: list) -> dict:
    """Raw layer counters, read from public attributes only."""
    out = {
        "sim.events.fired": grid.loop.events_fired,
        "sim.events.cancelled": grid.loop.events_cancelled,
        "core.lrm.updates_sent": 0, "core.lrm.evictions": 0,
        "core.lrm.checkpoints_taken": 0, "core.lrm.reservations_refused": 0,
        "core.grm.updates_received": 0, "core.grm.negotiation_rounds": 0,
        "core.grm.placements": 0, "core.grm.evictions_handled": 0,
        "core.grm.jobs_forwarded": 0,
        "orb.trading.queries": 0, "orb.trading.indexed_queries": 0,
        "checkpoint.store.saves": 0, "checkpoint.store.bytes_written": 0,
    }
    for node in node_handles:
        lrm = node.lrm
        out["core.lrm.updates_sent"] += lrm.updates_sent
        out["core.lrm.evictions"] += lrm.evicted_count
        out["core.lrm.checkpoints_taken"] += lrm.checkpoints_taken
        out["core.lrm.reservations_refused"] += lrm.refused_reservations
    for handle in grid.clusters.values():
        stats = handle.grm.stats
        out["core.grm.updates_received"] += stats.updates_received
        out["core.grm.negotiation_rounds"] += stats.negotiation_rounds
        out["core.grm.placements"] += stats.placements
        out["core.grm.evictions_handled"] += stats.evictions_handled
        out["core.grm.jobs_forwarded"] += stats.jobs_forwarded
        out["orb.trading.queries"] += handle.grm.trader.queries
        out["orb.trading.indexed_queries"] += \
            handle.grm.trader.indexed_queries
        out["checkpoint.store.saves"] += handle.checkpoint_store.saves
        out["checkpoint.store.bytes_written"] += \
            handle.checkpoint_store.bytes_written
    orb = grid.protocol_stats()
    out["orb.core.requests"] = orb["requests_sent"]
    out["orb.core.replies"] = orb["replies_received"]
    out["orb.core.bytes_sent"] = orb["bytes_sent"]
    return out


def counter_deltas(before: dict, after: dict) -> dict:
    """Counters over the timed phase, with the two derived ratios."""
    delta = {key: after[key] - before[key] for key in after}
    rounds = delta["core.grm.negotiation_rounds"]
    delta["core.grm.placement_success_ratio"] = (
        delta["core.grm.placements"] / rounds if rounds else 0.0
    )
    queries = delta["orb.trading.queries"]
    delta["orb.trading.indexed_ratio"] = (
        delta.pop("orb.trading.indexed_queries") / queries if queries else 0.0
    )
    return delta
