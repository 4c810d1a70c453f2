"""The grid's steady state on the standard library: a fresh-process probe.

Only code with a batch to crunch imports numpy (GUPA scoring and
pattern-aware ranking above ``SCALAR_MAX_CELLS`` cells, LUPA's k-means
once a week of history is in, the bulk presence-trace generator).  Run
as a script, this probe times ``import repro`` and reads the process's
peak RSS right after it, then drives every steady-state plane once:

* GUPA uploads through the ORB, and LUPA sampling across a day end;
* pattern-aware ranking of the offers a GRM queries from its Trader;
* a BSP gang whose coordinator checkpoints, and whose registered
  program then runs on the threaded BSP runtime;
* a job the parent GRM forwards from a full cluster to another;
* one two-way call over a loopback TCP ORB connection;

and prints one JSON object: ``import_s``, ``import_rss_mb``,
``numpy_loaded`` and ``ctypes_loaded`` (after all of the above) and the
counters that show each plane ran.  ``ctypes`` loads only with the
checkpoint CRC's kernel, for a buffer over the serializer's
``KERNEL_MIN_BYTES``; a grid checkpoint is far smaller.
:func:`measure_probe` runs it in fresh interpreters and keeps the best
import numbers; ``perf_smoke.py`` fails if numpy or ctypes loaded or
the import's RSS rose against ``BENCH_S2.json``'s ``steady_state_probe``
key, and ``tests/test_numpy_free_steady_state.py`` holds both flags to
False in the tier-1 suite.

Run from the repo root:  PYTHONPATH=src python benchmarks/steady_state_probe.py
"""

import json
import os
import resource
import subprocess
import sys
import time

# Nothing from ``repro`` is imported at module level: :func:`probe`
# times that import.
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

HOUR = 3600.0
DAY = 24 * HOUR
GUPA_BINS_PER_DAY = 48


def _weekly_pattern(profile) -> dict:
    hours_per_bin = 24.0 / GUPA_BINS_PER_DAY
    return {
        "bins_per_day": GUPA_BINS_PER_DAY,
        "weekly": [[profile.mean_presence(day, b * hours_per_bin)
                    for b in range(GUPA_BINS_PER_DAY)] for day in range(7)],
    }


def _gang_sum(bsp, value):
    from repro.bsp.programs import all_reduce
    return all_reduce(bsp, value + bsp.pid)


def steady_state() -> dict:
    """Run every steady-state plane once; return what each one did."""
    from repro import ApplicationSpec, Grid
    from repro.apps.registry import register_program
    from repro.apps.spec import BSP
    from repro.core.gupa import Gupa
    from repro.core.protocols import GRM_INTERFACE, GUPA_INTERFACE
    from repro.orb.core import Orb
    from repro.orb.transport import InProcDomain
    from repro.sim.usage import NIGHT_OWL, OFFICE_WORKER

    ranked = []
    real_rank = Gupa.idle_probabilities

    def counting_rank(gupa, nodes, start, duration):
        scores = real_rank(gupa, nodes, start, duration)
        ranked.append(len(scores))
        return scores

    Gupa.idle_probabilities = counting_rank
    register_program("probe-sum", _gang_sum, 1)
    grid = Grid(seed=1, policy="pattern_aware")
    lupas = []
    for cluster, nodes in (("small", 2), ("big", 8)):
        gupa_ior = grid.add_cluster(cluster).gupa_ior
        for i in range(nodes):
            profile = (OFFICE_WORKER, NIGHT_OWL)[i % 2]
            node = grid.add_node(cluster, f"{cluster}{i}", profile=profile)
            lupas.append(node.lupa)
            # What the node's LUPA uploads once it has learned.
            node.orb.stub(gupa_ior, GUPA_INTERFACE).upload_pattern(
                node.name, _weekly_pattern(profile))
    grid.connect_clusters_to_parent()
    grid.run_for(20 * HOUR)
    jobs = [grid.submit(ApplicationSpec(name=f"seq{j}", work_mips=2e6),
                        "small") for j in range(6)]
    jobs.append(grid.submit(ApplicationSpec(
        name="gang", kind=BSP, tasks=4, program="probe-sum",
        work_mips=4e5, checkpoint_every_supersteps=2,
        metadata={"supersteps": 8, "superstep_comm_bytes": 10_000},
    ), "big"))
    grid.run_for(DAY)
    gang = grid.job(jobs[-1])
    coordinator = grid.clusters["big"].grm.coordinators[jobs[-1]]

    server = Orb("probe-server", domain=InProcDomain(), tcp=True)
    client = Orb("probe-client", domain=InProcDomain(), tcp=True)
    try:
        grm = grid.clusters["small"].grm
        ior = server.activate(grm, GRM_INTERFACE, key="probe/grm")
        status = client.stub(ior.to_string(), GRM_INTERFACE).job_status(
            jobs[0])
    finally:
        client.shutdown()
        server.shutdown()
    Gupa.idle_probabilities = real_rank

    def final_state(job_id):
        job = grid.job(job_id)
        while job.forwarded_to:   # where the parent placed it
            job = grid.job(job.forwarded_to)
        return job.state.value

    return {
        "gupa_uploads": sum(h.gupa.uploads for h in grid.clusters.values()),
        "lupa_days": min(lupa.history_days for lupa in lupas),
        "rankings": len(ranked),
        "largest_ranking": max(ranked, default=0),
        "gang_checkpoints": coordinator.checkpoints_saved,
        "gang_results": [task.result for task in gang.tasks],
        "jobs_forwarded": sum(h.grm.stats.jobs_forwarded
                              for h in grid.clusters.values()),
        "job_states": sorted({final_state(j) for j in jobs}),
        "tcp_job_state": status["state"],
    }


def _peak_rss_mb() -> float:
    """This process's own peak RSS.  On Linux ``ru_maxrss`` also counts
    what the launching process had resident when it forked this one, so
    read the address space's own high-water mark where there is one."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def probe() -> dict:
    """This process: import ``repro``, then run :func:`steady_state`."""
    started = time.perf_counter()
    import repro  # noqa: F401
    import_s = time.perf_counter() - started
    import_rss_mb = _peak_rss_mb()
    exercised = steady_state()
    return {
        "import_s": import_s,
        "import_rss_mb": import_rss_mb,
        "numpy_loaded": "numpy" in sys.modules,
        "ctypes_loaded": "ctypes" in sys.modules,
        "exercised": exercised,
    }


def run_probe() -> dict:
    """One probe in a fresh interpreter with ``src/`` on its path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__)], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, check=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def measure_probe(runs: int = 5) -> dict:
    """Best import time and RSS over ``runs`` fresh probes; numpy_loaded
    and ctypes_loaded if any probe loaded it."""
    probes = [run_probe() for _ in range(runs)]
    return {
        "import_s": min(p["import_s"] for p in probes),
        "import_rss_mb": min(p["import_rss_mb"] for p in probes),
        "numpy_loaded": any(p["numpy_loaded"] for p in probes),
        "ctypes_loaded": any(p["ctypes_loaded"] for p in probes),
    }


if __name__ == "__main__":
    print(json.dumps(probe()))
