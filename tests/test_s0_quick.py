"""S0's own correctness gates, on every push.

``benchmarks/s0/run.py --quick`` runs all four whole-system workloads at
1/8 size (a few seconds) and exits non-zero when a job is left
unfinished or an outcome digest does not repeat across iterations — so
a scheduling or execution change that strands a job is red here, before
the benchmark pipeline ever sees it.  CI runs the same command as its
own step.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_quick_set_finishes_every_job_and_repeats_its_digests():
    done = subprocess.run(
        [sys.executable, "benchmarks/s0/run.py", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    for workload in ("campus_day", "submit_storm", "bsp_checkpoint",
                     "tcp_rpc"):
        assert f"{workload}  seed=1" in done.stdout
    assert "failed=0" in done.stdout
