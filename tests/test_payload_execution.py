"""Integration tests: sandboxed task payloads with result collection.

Grid tasks can carry real Python source; when the simulated compute
completes, the LRM executes it inside the provider's sandbox and the
result rides back on the ``task_completed`` notification — Section 3's
sandboxing requirement wired into the execution path.
"""

import pytest

from repro import ApplicationSpec, Grid, JobState, TaskState
from repro.sim.clock import SECONDS_PER_HOUR

PI_LEIBNIZ = """
terms = 100000
result = sum(
    (1.0 if k % 2 == 0 else -1.0) * 4.0 / (2 * k + 1)
    for k in range(task_index * terms, (task_index + 1) * terms)
)
"""


def make_grid(nodes=3):
    grid = Grid(seed=9, policy="first_fit", lupa_enabled=False)
    grid.add_cluster("c0")
    for i in range(nodes):
        grid.add_node("c0", f"d{i}", dedicated=True)
    grid.run_for(120)
    return grid


class TestPayloadResults:
    def test_single_task_result_collected(self):
        grid = make_grid(1)
        job_id = grid.submit(ApplicationSpec(
            name="answer", work_mips=1e5,
            metadata={"payload": "result = 6 * 7"},
        ))
        assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_HOUR)
        job = grid.job(job_id)
        assert job.state is JobState.COMPLETED
        assert job.tasks[0].result == 42

    def test_task_index_exposed_to_payload(self):
        grid = make_grid(3)
        job_id = grid.submit(ApplicationSpec(
            name="indexed", tasks=3, work_mips=1e5,
            metadata={"payload": "result = task_index * task_index"},
        ))
        assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_HOUR)
        job = grid.job(job_id)
        assert sorted(t.result for t in job.tasks) == [0, 1, 4]

    def test_distributed_pi(self):
        grid = make_grid(3)
        job_id = grid.submit(ApplicationSpec(
            name="pi", tasks=3, work_mips=1e5,
            metadata={"payload": PI_LEIBNIZ},
        ))
        assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_HOUR)
        job = grid.job(job_id)
        pi = sum(t.result for t in job.tasks)
        assert pi == pytest.approx(3.14159, abs=1e-4)

    def test_result_in_asct_status(self):
        grid = make_grid(1)
        asct = grid.make_asct("c0")
        job_id = asct.submit(ApplicationSpec(
            name="answer", work_mips=1e5,
            metadata={"payload": "result = 'hello from the grid'"},
        ))
        grid.run_for(SECONDS_PER_HOUR)
        status = asct.status(job_id)
        assert status["tasks"][0]["result"] == "hello from the grid"

    def test_payloadless_task_has_none_result(self):
        grid = make_grid(1)
        job_id = grid.submit(ApplicationSpec(name="plain", work_mips=1e5))
        assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_HOUR)
        assert grid.job(job_id).tasks[0].result is None


class TestSandboxEnforcement:
    def test_malicious_payload_fails_the_task(self):
        grid = make_grid(1)
        job_id = grid.submit(ApplicationSpec(
            name="evil", work_mips=1e5,
            metadata={"payload": "result = open('/etc/passwd').read()"},
        ))
        grid.run_for(SECONDS_PER_HOUR)
        job = grid.job(job_id)
        task = job.tasks[0]
        assert task.state is TaskState.FAILED
        assert job.state is JobState.FAILED
        assert "__error__" in task.result
        lrm = grid.clusters["c0"].nodes["d0"].lrm
        assert lrm.sandbox_violations == 1

    def test_payload_that_raises_fails_its_task_not_the_node(self):
        grid = make_grid(1)
        job_id = grid.submit(ApplicationSpec(
            name="buggy", work_mips=1e5,
            metadata={"payload": "result = 1 / 0"},
        ))
        grid.run_for(SECONDS_PER_HOUR)   # the event loop carries on
        task = grid.job(job_id).tasks[0]
        assert task.state is TaskState.FAILED
        assert task.result["__error__"].startswith("ZeroDivisionError")
        lrm = grid.clusters["c0"].nodes["d0"].lrm
        assert lrm.sandbox_violations == 0
        assert lrm.running_tasks == []
        follow_up = grid.submit(ApplicationSpec(
            name="after", work_mips=1e5,
            metadata={"payload": "result = 6 * 7"},
        ))
        assert grid.wait_for_job(follow_up, max_seconds=SECONDS_PER_HOUR)
        assert grid.job(follow_up).tasks[0].result == 42

    def test_runaway_payload_fails_the_task(self):
        from repro.core.lrm import Lrm  # noqa: F401 (documentation import)
        grid = make_grid(1)
        # Tighten the node's sandbox budget so the loop trips quickly.
        from repro.security.sandbox import SandboxPolicy
        grid.clusters["c0"].nodes["d0"].lrm.sandbox_policy = SandboxPolicy(
            max_steps=1000
        )
        job_id = grid.submit(ApplicationSpec(
            name="spin", work_mips=1e5,
            metadata={"payload": "x = 0\nwhile True:\n    x += 1\nresult = x"},
        ))
        grid.run_for(SECONDS_PER_HOUR)
        task = grid.job(job_id).tasks[0]
        assert task.state is TaskState.FAILED
        assert "budget" in task.result["__error__"]

    def test_allowed_import_works_in_payload(self):
        grid = make_grid(1)
        job_id = grid.submit(ApplicationSpec(
            name="math", work_mips=1e5,
            metadata={"payload": "import math\nresult = math.factorial(10)"},
        ))
        assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_HOUR)
        assert grid.job(job_id).tasks[0].result == 3628800

    def test_sandbox_failure_does_not_leak_resources(self):
        grid = make_grid(1)
        job_id = grid.submit(ApplicationSpec(
            name="evil", work_mips=1e5,
            metadata={"payload": "import os\nresult = 1"},
        ))
        grid.run_for(SECONDS_PER_HOUR)
        machine = grid.clusters["c0"].nodes["d0"].workstation.machine
        assert machine.grid_cpu == 0.0
        assert machine.grid_mem_mb == 0.0


#: Payload results that a collocated grid used to hand over as Python
#: objects and a marshalled grid could not send (``run_for`` raised and
#: every cluster's event loop stopped).  Each now fails its task on both.
UNSENDABLE_RESULTS = {
    "lone_surrogate": "result = chr(0xd800)",
    "int_beyond_64_bits": "result = 2 ** 70",
    "list_150_deep": "result = []\nfor _ in range(150):\n    result = [result]",
    "set": "result = {1, 2}",
    "int_dict_key": "result = {1: 2}",
}


def make_wire_grid(auth_secret):
    grid = Grid(seed=9, policy="first_fit", lupa_enabled=False,
                auth_secret=auth_secret)
    grid.add_cluster("c0")
    grid.add_node("c0", "d0", dedicated=True)
    grid.run_for(120)
    return grid


@pytest.mark.parametrize("auth_secret", [None, b"pin"],
                         ids=["collocated", "marshalled"])
class TestResultsCrossTheOrb:
    @pytest.mark.parametrize("payload", list(UNSENDABLE_RESULTS.values()),
                             ids=list(UNSENDABLE_RESULTS))
    def test_unsendable_result_fails_the_task_not_the_grid(
        self, auth_secret, payload
    ):
        grid = make_wire_grid(auth_secret)
        job_id = grid.submit(ApplicationSpec(
            name="odd", work_mips=1e4, metadata={"payload": payload},
        ))
        grid.run_for(SECONDS_PER_HOUR)   # never raises
        task = grid.job(job_id).tasks[0]
        assert task.state is TaskState.FAILED
        assert task.result["__error__"].startswith(
            "result cannot cross the ORB: ")
        assert grid.clusters["c0"].nodes["d0"].lrm.running_tasks == []
        follow_up = grid.submit(ApplicationSpec(
            name="after", work_mips=1e4,
            metadata={"payload": "result = 6 * 7"},
        ))
        assert grid.wait_for_job(follow_up, max_seconds=SECONDS_PER_HOUR)
        assert grid.job(follow_up).tasks[0].result == 42

    def test_nan_result_completes(self, auth_secret):
        grid = make_wire_grid(auth_secret)
        job_id = grid.submit(ApplicationSpec(
            name="nan", work_mips=1e4,
            metadata={"payload": "result = float('nan')"},
        ))
        grid.run_for(SECONDS_PER_HOUR)
        task = grid.job(job_id).tasks[0]
        assert task.state is TaskState.COMPLETED
        assert task.result != task.result   # NaN, on both paths
