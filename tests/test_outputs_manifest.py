"""The committed manifest of behaviour: every deterministic output, pinned.

``tests/data/outputs.json`` holds two kinds of value:

* ``s0`` — each S0 workload (``benchmarks/s0/workloads``) at 1/8 size
  on seeds 1 and 7, run once the way ``benchmarks/s0/run.py --quick``
  runs it: the outcome digest, jobs (or calls, or restores) attempted
  and failed, the simulated-time numbers ``run.py`` requires to repeat,
  and the workload's counters (all but :data:`UNPINNED`);
* ``simulate_stdout_sha256`` — the sha256 of the stdout of
  ``repro simulate --nodes 24 --policy pattern_aware --seed 5
  --train-days 3 --vacate``;
* ``obs_smoke_sha256`` — the sha256 of the ``journal.jsonl`` and
  ``trace.jsonl`` written by the CI ``obs-smoke`` job's ``repro simulate
  --nodes 6 --jobs 2 --train-days 0 --horizon-days 0.5 --vacate ...``
  line (:data:`OBS_SMOKE_ARGS`), run with every instrument on, as CI
  runs it;
* ``marshalled_sha256`` — the sha256 of every request and reply payload
  that crosses :meth:`InProcTransport.invoke` in a short
  ``Grid(auth_secret=...)`` run (:func:`marshalled_outputs`), where the
  auth envelope makes every call marshal: the one pin on the CDR bytes
  themselves.

The test recomputes all of them in subprocesses, so the S0 modules
(``workloads``, ``support``, ...) never land on this process's
``sys.path``; it only reads ``benchmarks/s0/``.  A change that claims to
preserve behaviour leaves the manifest alone.  A behaviour change names
what moves beforehand, re-commits the manifest with::

    PYTHONPATH=src python tests/test_outputs_manifest.py --write

and the manifest's diff is the review artefact.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
S0 = ROOT / "benchmarks" / "s0"
MANIFEST_PATH = ROOT / "tests" / "data" / "outputs.json"

SEEDS = (1, 7)
SIMULATE_ARGS = ("simulate", "--nodes", "24", "--policy", "pattern_aware",
                 "--seed", "5", "--train-days", "3", "--vacate")
#: ``.github/workflows/ci.yml``'s obs-smoke simulate line, verbatim.
OBS_SMOKE_ARGS = ("simulate", "--nodes", "6", "--jobs", "2",
                  "--train-days", "0", "--horizon-days", "0.5", "--vacate",
                  "--trace", "trace.json", "--trace-jsonl", "trace.jsonl",
                  "--journal", "journal.jsonl",
                  "--health-report", "health.json",
                  "--metrics-json", "metrics.json")
#: The exports of that line whose bytes are pinned.
OBS_SMOKE_PINNED = ("journal.jsonl", "trace.jsonl")
#: Counters that are not a function of the seed: the bytes ``tcp_rpc``'s
#: two client threads send vary between runs of one seed (493,254 or
#: 492,402 on seed 7).  Every other counter repeats exactly.
UNPINNED = {"tcp_rpc": ("orb.core.bytes_sent",)}


def s0_outputs() -> dict:
    """``workload -> seed -> outputs``, computed in this process."""
    sys.path[:0] = [str(ROOT / "src"), str(S0)]
    from layers import SPECIFIC_E2E
    from run import iterate
    from workloads import WORKLOADS
    out = {}
    for name, cls in WORKLOADS.items():
        for seed in SEEDS:
            outcome = iterate(cls, seed, quick=True, profile="default")
            out.setdefault(name, {})[str(seed)] = {
                "digest": outcome["digest"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "sim": {key: value for key, value in outcome["extra"].items()
                        if SPECIFIC_E2E[key][1] == "sim"},
                "counters": {key: value
                             for key, value in outcome["counters"].items()
                             if key not in UNPINNED.get(name, ())},
            }
    return out


def _environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def obs_smoke_outputs(env: dict) -> dict:
    """Run the obs-smoke line in a scratch directory; hash its pins."""
    with tempfile.TemporaryDirectory() as scratch:
        subprocess.run(
            [sys.executable, "-m", "repro.cli", *OBS_SMOKE_ARGS],
            cwd=scratch, env=env, capture_output=True, check=True,
        )
        return {
            name: hashlib.sha256(Path(scratch, name).read_bytes()).hexdigest()
            for name in OBS_SMOKE_PINNED
        }


def marshalled_outputs() -> str:
    """Two 4-node clusters under one parent, every component signing
    its requests, three 2-task jobs on ``a``, 12 simulated hours: the
    sha256 of each marshalled request and reply, in the order sent."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.apps.spec import ApplicationSpec
    from repro.core.grid import Grid
    from repro.orb.transport import InProcTransport
    from repro.sim.usage import OFFICE_WORKER

    digest = hashlib.sha256()
    invoke = InProcTransport.invoke

    def recording(self, address, payload, oneway):
        digest.update(payload)
        reply = invoke(self, address, payload, oneway)
        if reply is not None:
            digest.update(reply)
        return reply

    InProcTransport.invoke = recording
    grid = Grid(seed=5, auth_secret=b"pin", lupa_enabled=False)
    for cluster in ("a", "b"):
        grid.add_cluster(cluster)
        for i in range(4):
            grid.add_node(cluster, f"{cluster}{i}", profile=OFFICE_WORKER)
    grid.connect_clusters_to_parent()
    for i in range(3):
        grid.submit(ApplicationSpec(name=f"job{i}", tasks=2,
                                    work_mips=2e6), "a")
    grid.run_until(12 * 3600.0)
    return digest.hexdigest()


def compute_manifest() -> dict:
    """Every part, each in its own interpreter, S0 alongside the rest."""
    env = _environment()
    s0 = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--s0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    simulate = subprocess.run(
        [sys.executable, "-m", "repro.cli", *SIMULATE_ARGS],
        cwd=ROOT, env=env, capture_output=True, check=True,
    )
    obs_smoke = obs_smoke_outputs(env)
    marshalled = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--marshalled"],
        cwd=ROOT, env=env, capture_output=True, check=True, text=True,
    )
    s0_stdout, _ = s0.communicate()
    assert s0.returncode == 0, f"S0 outputs exited {s0.returncode}"
    return {
        "s0": json.loads(s0_stdout),
        "simulate_stdout_sha256":
            hashlib.sha256(simulate.stdout).hexdigest(),
        "obs_smoke_sha256": obs_smoke,
        "marshalled_sha256": marshalled.stdout.strip(),
    }


def test_every_deterministic_output_matches_the_manifest():
    expected = json.loads(MANIFEST_PATH.read_text())
    actual = compute_manifest()
    assert actual["simulate_stdout_sha256"] \
        == expected["simulate_stdout_sha256"]
    assert actual["obs_smoke_sha256"] == expected["obs_smoke_sha256"]
    assert actual["marshalled_sha256"] == expected["marshalled_sha256"]
    for workload, seeds in expected["s0"].items():
        for seed, outputs in seeds.items():
            assert actual["s0"][workload][seed] == outputs, (workload, seed)
    assert actual == expected


if __name__ == "__main__":
    if sys.argv[1:] == ["--s0"]:
        print(json.dumps(s0_outputs()))
    elif sys.argv[1:] == ["--marshalled"]:
        print(marshalled_outputs())
    elif sys.argv[1:] == ["--write"]:
        MANIFEST_PATH.write_text(
            json.dumps(compute_manifest(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {MANIFEST_PATH}")
    else:
        sys.exit("usage: test_outputs_manifest.py --write   "
                 "(read the module docstring first)")
