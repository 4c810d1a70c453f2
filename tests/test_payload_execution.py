"""Integration tests: sandboxed task payloads with result collection.

Grid tasks can carry real Python source; when the simulated compute
completes, the LRM executes it inside the provider's sandbox and the
result rides back on the ``task_completed`` notification — Section 3's
sandboxing requirement wired into the execution path.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# -- the differential: any result, both grids, one outcome -------------------

def to_source(value) -> str:
    """A Python expression the sandbox evaluates back to ``value``."""
    if isinstance(value, float):
        return f"float({repr(value)!r})"      # covers nan, inf and -inf
    if isinstance(value, tuple):
        return "(" + "".join(to_source(v) + ", " for v in value) + ")"
    if isinstance(value, list):
        return "[" + ", ".join(map(to_source, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{to_source(k)}: {to_source(v)}"
                               for k, v in value.items()) + "}"
    if isinstance(value, (set, frozenset)):
        inner = ", ".join(map(to_source, value))
        return f"{{{inner}}}" if value else "set()"
    return repr(value)                        # None, bool, int, str, bytes


def as_marshalled(value):
    """What the marshalled path hands back for a value it can carry."""
    if isinstance(value, (tuple, list)):
        return [as_marshalled(v) for v in value]
    if isinstance(value, dict):
        return {k: as_marshalled(v) for k, v in value.items()}
    return value


def same(a, b) -> bool:
    """Equal, type for type; NaN equals NaN and the sign of zero counts."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or (
            a == b and math.copysign(1.0, a) == math.copysign(1.0, b))
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


TEXT = st.text(st.characters(exclude_categories=())         # any code point
               | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
               max_size=6)                                   # lone surrogates
INTS = st.integers() | st.sampled_from(
    [2 ** 63 - 1, -2 ** 63, 2 ** 63, -2 ** 63 - 1, 2 ** 70])  # 64-bit edges
HASHABLE = (st.none() | st.booleans() | INTS | TEXT | st.binary(max_size=6)
            | st.floats(allow_nan=False))
LEAVES = (HASHABLE | st.floats()
          | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
          | st.sets(HASHABLE, max_size=3))
#: How deep the wrapping goes: MAX_VARIANT_DEPTH is 100.
DEPTHS = st.sampled_from([0, 1, 99, 100, 101, 150]) | st.integers(0, 150)


def _nest(children):
    return (st.lists(children, max_size=3)
            | st.lists(children, max_size=3).map(tuple)
            | st.dictionaries(TEXT, children, max_size=3)
            | st.dictionaries(HASHABLE, children, max_size=2))


WRAPPERS = {
    "list": lambda v: [v], "tuple": lambda v: (v,),
    "dict": lambda v: {"k": v}, "int_key": lambda v: {1: v},
}


@st.composite
def results(draw):
    """A leaf or a shallow mix, then wrapped up to 150 levels deep in
    one kind of list, tuple or dict (``int_key``: a non-``str`` key)."""
    value = draw(st.recursive(LEAVES, _nest, max_leaves=6))
    wrap = WRAPPERS[draw(st.sampled_from(sorted(WRAPPERS)))]
    for _ in range(draw(DEPTHS)):
        value = wrap(value)
    return value


def run_result(auth_secret, value):
    grid = make_wire_grid(auth_secret)
    job_id = grid.submit(ApplicationSpec(
        name="any", work_mips=1e4,
        metadata={"payload": f"result = {to_source(value)}"},
    ))
    grid.run_for(SECONDS_PER_HOUR)   # never raises
    task = grid.job(job_id).tasks[0]
    return grid.job(job_id).state, task.state, task.result


@settings(max_examples=50, deadline=None, derandomize=True)
@given(value=results())
def test_any_result_has_one_outcome_on_both_grids(value):
    collocated = run_result(None, value)
    marshalled = run_result(b"pin", value)
    assert collocated[:2] == marshalled[:2]
    job_state, task_state, result = marshalled
    if task_state is TaskState.COMPLETED:
        assert job_state is JobState.COMPLETED
        assert same(as_marshalled(collocated[2]), result)
        assert same(as_marshalled(value), result)
    else:
        assert (task_state, job_state) == (TaskState.FAILED, JobState.FAILED)
        assert collocated[2] == result    # the same failure reason
        assert result["__error__"].startswith(
            "result cannot cross the ORB: ")
