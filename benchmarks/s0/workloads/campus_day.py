"""campus_day — the paper's normal day.

Four clusters of mixed-profile desktops (office, student lab, night
owl, erratic; half of them vacate when the owner returns) plus a few
dedicated nodes, joined under one parent GRM.  After a simulated hour of
warm-up, 24 simulated hours run with a steady stream of checkpointed
sequential jobs (skewed towards the first cluster, with a mid-morning
burst that overflows to the parent), four BSP gangs, and nodes leaving
and joining.

Why it exists: the wall time is dominated by the Information Update
Protocol — LRM status, oneway ORB marshal, GRM ingest,
``TradingService.modify`` — so it is the workload an information-plane,
ORB oneway or event-loop change must move, and the one a scheduler
change must leave alone.
"""

import random

from repro import Grid
from repro.apps.spec import BSP, ApplicationSpec
from repro.apps.workloads import steady_stream

from workloads import grid_common as gridlib
from support import fast_kwargs, percentile
from workloads.grid_common import HOUR

CLUSTERS = 4
WARMUP_HOURS = 1.0
RUN_HOURS = 24.0
STREAM_HOURS = 19.0            # the rest of the day drains the queue
JOB_WORK_MIPS = 1.8e6          # half an hour on a 1000 MIPS desktop
GANG_WORK_MIPS = 2.4e6
GANG_SUPERSTEPS = 8
GANG_HOURS = (0.5, 2.0, 3.5, 5.0)     # when each cluster's gang arrives
BURST_HOUR = 9.5
CHURN_HOURS = (4.0, 8.0, 12.0, 16.0)   # a node leaves; one joins 90 min later
REJOIN_AFTER_HOURS = 1.5
FIRST_CLUSTER_SHARE = 0.55


def sizes(scale: float) -> dict:
    """Workload constants at ``scale`` (1.0 is the size of record)."""
    desktops = max(4, round(12 * scale))
    return {
        "desktops_per_cluster": desktops,
        "dedicated_per_cluster": max(1, round(desktops / 16)),
        "stream_jobs": 25 * desktops,
        "burst_jobs": desktops,
        "gang_tasks": max(2, min(8, (2 * desktops) // 3)),
    }


class CampusDay:
    name = "campus_day"
    residual_layer = "sim.events"
    #: The traced run also times this workload with ``enable_metrics()``
    #: and ``enable_journal()`` on (``obs.enabled_wall_ratio``).
    observable = True

    def __init__(self, seed: int, scale: float = 1.0, profile: str = "default",
                 observability: bool = False):
        self.seed = seed
        self.sizes = sizes(scale)
        self.profile = profile
        self.observability = observability
        self.nodes: list = []
        self.job_ids: list = []

    def setup(self) -> None:
        size = self.sizes
        rng = random.Random(self.seed)
        grid = self.grid = Grid(
            seed=self.seed, policy="pattern_aware",
            **fast_kwargs(Grid.__init__, gridlib.FAST_GRID_KWARGS, self.profile),
        )
        self.cluster_names = [f"c{c}" for c in range(CLUSTERS)]
        for cluster in self.cluster_names:
            grid.add_cluster(cluster)
            gridlib.add_desktops(grid, cluster, size["desktops_per_cluster"],
                            rng, self.nodes)
            for d in range(size["dedicated_per_cluster"]):
                self.nodes.append(grid.add_node(
                    cluster, f"{cluster}d{d}", spec=gridlib.DEDICATED_SPEC,
                    dedicated=True,
                ))
        grid.connect_clusters_to_parent()
        if self.observability:
            grid.enable_metrics()
            grid.enable_journal()
        grid.run_for(WARMUP_HOURS * HOUR)
        self._plan(rng)
        self._before = gridlib.counters(grid, self.nodes)

    def _submit_at(self, when: float, spec, cluster: str) -> None:
        self.grid.loop.schedule_at(
            when, lambda: self.job_ids.append(self.grid.submit(spec, cluster))
        )

    def _plan(self, rng: random.Random) -> None:
        """Schedule every submission and churn event of the day."""
        size = self.sizes
        grid = self.grid
        start = grid.loop.now
        first, others = self.cluster_names[0], self.cluster_names[1:]
        stream = steady_stream(
            jobs_per_day=size["stream_jobs"] * 24.0 / STREAM_HOURS,
            duration_days=STREAM_HOURS / 24.0, work_mips=JOB_WORK_MIPS,
            seed=self.seed, start=start,
        )
        for planned in stream:
            cluster = first if rng.random() < FIRST_CLUSTER_SHARE \
                else rng.choice(others)
            self._submit_at(planned.time, planned.spec, cluster)
        for i in range(size["burst_jobs"]):
            self._submit_at(start + BURST_HOUR * HOUR, ApplicationSpec(
                name=f"burst-{i:03}", work_mips=JOB_WORK_MIPS,
                metadata={"checkpoint_interval_s": 900.0},
            ), first)
        for cluster, hour in zip(self.cluster_names, GANG_HOURS):
            self._submit_at(start + hour * HOUR, ApplicationSpec(
                name=f"gang-{cluster}", kind=BSP, tasks=size["gang_tasks"],
                program="s0-gang",   # unregistered: costs only, no threads
                work_mips=GANG_WORK_MIPS, checkpoint_every_supersteps=2,
                metadata={"supersteps": GANG_SUPERSTEPS,
                          "superstep_comm_bytes": 100_000},
            ), cluster)
        for k, hour in enumerate(CHURN_HOURS):
            cluster = self.cluster_names[k % CLUSTERS]
            leaving = f"{cluster}n{rng.randrange(size['desktops_per_cluster']):03}"
            grid.loop.schedule_at(
                start + hour * HOUR,
                lambda c=cluster, n=leaving: grid.remove_node(c, n),
            )
            grid.loop.schedule_at(
                start + (hour + REJOIN_AFTER_HOURS) * HOUR,
                lambda c=cluster, k=k: self._join(c, f"{c}r{k}", k),
            )

    def _join(self, cluster: str, name: str, k: int) -> None:
        profile = gridlib.PROFILES[k % len(gridlib.PROFILES)]
        self.nodes.append(self.grid.add_node(cluster, name, profile=profile))
        self.grid.clusters[cluster].gupa.upload_pattern(
            name, gridlib.weekly_pattern(name, profile))

    def run(self):
        return gridlib.run_steps(self.grid, RUN_HOURS * HOUR)

    def finish(self) -> dict:
        digest, latencies, unfinished = gridlib.job_outcomes(self.grid, self.job_ids)
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
