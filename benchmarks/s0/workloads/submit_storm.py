"""submit_storm — a burst of users in working hours.

One cluster, LUPA off (GUPA is preloaded instead), nine simulated hours
pre-run in set-up so submissions land mid-morning.  Then a two-hour
storm of 1-4-task jobs with mixed ``ResourceRequirements``
(``min_mips``, ``min_ram_mb``, an ``extra`` constraint) and preference
expressions, followed by a drain.

The seed decides when each job arrives, which job gets which shape and
how the owners behave; the number of jobs and the multiset of shapes are
fixed, and the load stays below what the idle desktops can take, so the
amount of work — and the wall time — barely depends on the seed and
every job finishes inside the horizon.

Why it exists: it uses the same layers as ``campus_day`` the other way
round — the Trader is *read* (``query`` with compiled constraints), the
policy ranks offers with ``Gupa.idle_probabilities``, and the ORB
carries *two-way* negotiation.  Most negotiation rounds are refused
because the GRM's view of the nodes is stale, so it exposes wasted work:
a scheduling fix shows here (wall and simulated job latency) and must
not move ``campus_day``.
"""

import random

from repro import Grid
from repro.apps.spec import ApplicationSpec, ResourceRequirements

from workloads import grid_common as gridlib
from support import fast_kwargs, percentile
from workloads.grid_common import HOUR

START_HOUR = 9.0             # Monday morning
WARMUP_HOURS = 1.0            # owners settle into their sessions
STORM_HOURS = 3.0
DRAIN_HOURS = 0.5
JOBS_PER_HOUR = 230
# Job shapes cycle through these tuples (their lengths are coprime, so
# every combination occurs) before the seed shuffles them over the jobs.
TASKS = (1, 2, 3, 4)
TASK_WORK_MIPS = (0.05e6, 0.1e6, 0.15e6)
MIN_MIPS = (0.0, 0.0, 800.0, 0.0, 1400.0)
MIN_RAM_MB = (0.0, 0.0, 0.0, 512.0, 0.0, 0.0, 512.0)
EXTRA = ("", 'os == "linux"', "net_mbps >= 100", "",
         "disk_free_mb > 1000", 'arch == "x86" && net_free_mbps > 10', "",
         "mips >= 600 || ram_mb >= 512", "", 'os == "linux"', "")
PREFERENCES = ("", "mips", "mem_free_mb", "", "mips * cpu_free", "",
               "net_free_mbps", "", "mips", "", "ram_mb", "", "")


def sizes(scale: float) -> dict:
    """Workload constants at ``scale`` (1.0 is the size of record)."""
    # The job rate is set by the scheduler's placement ceiling, not by
    # the cluster size, so it does not grow with scale; it shrinks with
    # it so that a small cluster still has the capacity.
    return {"nodes": max(8, round(128 * scale)),
            "jobs": round(JOBS_PER_HOUR * STORM_HOURS * min(1.0, scale))}


class SubmitStorm:
    name = "submit_storm"
    residual_layer = "sim.events"

    def __init__(self, seed: int, scale: float = 1.0, profile: str = "default"):
        self.seed = seed
        self.sizes = sizes(scale)
        self.profile = profile
        self.nodes: list = []
        self.job_ids: list = []

    def setup(self) -> None:
        rng = random.Random(self.seed)
        grid = self.grid = Grid(
            seed=self.seed, policy="pattern_aware", lupa_enabled=False,
            **fast_kwargs(Grid.__init__, gridlib.FAST_GRID_KWARGS,
                                 self.profile),
        )
        # An empty grid has no events: this only moves the clock, so
        # that the warm-up hour ends at START_HOUR.
        grid.run_for((START_HOUR - WARMUP_HOURS) * HOUR)
        grid.add_cluster("lab")
        gridlib.add_desktops(grid, "lab", self.sizes["nodes"], rng, self.nodes)
        grid.run_for(WARMUP_HOURS * HOUR)
        self._plan(rng)
        self._before = gridlib.counters(grid, self.nodes)

    def _plan(self, rng: random.Random) -> None:
        grid = self.grid
        count = self.sizes["jobs"]
        start = grid.loop.now
        # One arrival per equal slot of the storm, at a seeded instant
        # inside it: as random as a timetable allows without the bursts
        # that push the queue over the scheduler's placement ceiling.
        slot = STORM_HOURS * HOUR / count
        arrivals = [start + (i + rng.random()) * slot for i in range(count)]
        shapes = [
            (TASKS[i % len(TASKS)], TASK_WORK_MIPS[i % len(TASK_WORK_MIPS)],
             MIN_MIPS[i % len(MIN_MIPS)], MIN_RAM_MB[i % len(MIN_RAM_MB)],
             EXTRA[i % len(EXTRA)], PREFERENCES[i % len(PREFERENCES)])
            for i in range(count)
        ]
        rng.shuffle(shapes)
        for index, (when, shape) in enumerate(zip(arrivals, shapes)):
            tasks, work, min_mips, min_ram, extra, preference = shape
            spec = ApplicationSpec(
                name=f"storm-{index:04}", tasks=tasks, work_mips=work,
                requirements=ResourceRequirements(
                    min_mips=min_mips, min_ram_mb=min_ram, extra=extra,
                ),
                preference=preference,
                metadata={"checkpoint_interval_s": 300.0},
            )
            grid.loop.schedule_at(
                when, lambda s=spec: self.job_ids.append(grid.submit(s, "lab"))
            )

    def run(self):
        return gridlib.run_steps(self.grid,
                                 (STORM_HOURS + DRAIN_HOURS) * HOUR)

    def finish(self) -> dict:
        digest, latencies, unfinished = gridlib.job_outcomes(
            self.grid, self.job_ids)
        after = gridlib.counters(self.grid, self.nodes)
        return {
            "digest": digest,
            "attempted": len(self.job_ids),
            "failed": unfinished,
            "extra": {
                "sim_job_latency_p50_s": percentile(latencies, 0.50),
                "sim_job_latency_p95_s": percentile(latencies, 0.95),
            },
            "samples": {"jobs_completed": len(latencies)},
            "counters": gridlib.counter_deltas(self._before, after),
        }
