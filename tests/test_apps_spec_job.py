"""Unit tests for application descriptors and job/task lifecycle."""

import dataclasses
import math

import pytest

from repro.apps.constraints import ConstraintError
from repro.apps.job import InvalidTransition, Job, JobState, Task, TaskState
from repro.apps.spec import (
    ApplicationSpec,
    BSP,
    NodeGroupRequest,
    ResourceRequirements,
    SEQUENTIAL,
    VirtualTopologyRequest,
)


class TestResourceRequirements:
    def test_defaults_accept_anything(self):
        reqs = ResourceRequirements()
        assert reqs.satisfied_by({"mips": 1, "ram_mb": 1, "disk_mb": 0})

    def test_min_mips(self):
        reqs = ResourceRequirements(min_mips=500)
        assert reqs.satisfied_by({"mips": 500})
        assert not reqs.satisfied_by({"mips": 499})

    def test_paper_example_requirements(self):
        # "at least 16 MB of RAM and a CPU of at least 500 MIPS"
        reqs = ResourceRequirements(min_mips=500, min_ram_mb=16)
        assert reqs.satisfied_by({"mips": 800, "ram_mb": 32})
        assert not reqs.satisfied_by({"mips": 800, "ram_mb": 8})

    def test_platform_prerequisites(self):
        reqs = ResourceRequirements(os="linux", arch="x86")
        assert reqs.satisfied_by({"os": "linux", "arch": "x86"})
        assert not reqs.satisfied_by({"os": "windows", "arch": "x86"})

    def test_extra_constraint(self):
        reqs = ResourceRequirements(extra="cpu_free >= 0.5")
        assert reqs.satisfied_by({"cpu_free": 0.9})
        assert not reqs.satisfied_by({"cpu_free": 0.1})

    def test_bad_extra_constraint_fails_fast(self):
        with pytest.raises(Exception):
            ResourceRequirements(extra="mips >=")

    def test_invalid_cpu_fraction(self):
        with pytest.raises(ValueError):
            ResourceRequirements(cpu_fraction=0.0)
        with pytest.raises(ValueError):
            ResourceRequirements(cpu_fraction=1.5)

    def test_missing_properties_fail_requirements(self):
        assert not ResourceRequirements(min_mips=1).satisfied_by({})

    @pytest.mark.parametrize("field, value", [
        ("min_mips", math.nan),
        ("min_ram_mb", math.inf),
        ("min_disk_mb", -1.0),
        ("min_net_mbps", math.nan),
        ("mem_mb", math.nan),
        ("disk_mb", math.inf),
    ])
    def test_non_finite_or_negative_amount_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ResourceRequirements(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("os", 'linux" || "x'),
        ("arch", 86),
    ])
    def test_platform_must_be_a_string_without_a_double_quote(
            self, field, value):
        with pytest.raises(ValueError, match=field):
            ResourceRequirements(**{field: value})

    def test_malformed_requirements_rejected_from_the_wire_form(self):
        # Grm.submit(dict) builds the spec with from_dict.
        spec = ApplicationSpec(name="x").to_dict()
        spec["requirements"]["mem_mb"] = math.nan
        with pytest.raises(ValueError, match="mem_mb"):
            ApplicationSpec.from_dict(spec)


class TestRequirementsConstraint:
    def test_default_requirements_add_no_term(self):
        assert ResourceRequirements().constraint == ""

    def test_every_field_is_one_term(self):
        reqs = ResourceRequirements(
            min_mips=500, min_ram_mb=16.0, min_disk_mb=100.0,
            min_net_mbps=10.0, os="linux", arch="x86",
            extra="cpu_free >= 0.5 || grid_tasks == 0",
        )
        assert reqs.constraint == (
            'mips >= 500.0 && ram_mb >= 16.0 && disk_mb >= 100.0 && '
            'net_mbps >= 10.0 && os == "linux" && arch == "x86" && '
            '(cpu_free >= 0.5 || grid_tasks == 0)'
        )

    def test_minima_round_trip_exactly(self):
        reqs = ResourceRequirements(min_ram_mb=1e-05, min_mips=0.1 + 0.2)
        assert reqs.constraint == "mips >= 0.30000000000000004 && " \
                                  "ram_mb >= 1e-05"
        assert reqs.satisfied_by({"mips": 0.1 + 0.2, "ram_mb": 1e-05})
        assert not reqs.satisfied_by({"mips": 0.3, "ram_mb": 1e-05})
        assert not reqs.satisfied_by({"mips": 1.0, "ram_mb": 9.99e-06})

    def test_extra_cannot_widen_the_other_terms(self):
        reqs = ResourceRequirements(min_mips=500, extra="ram_mb > 1 || true")
        assert not reqs.satisfied_by({"mips": 100.0, "ram_mb": 512.0})
        with pytest.raises(ConstraintError):
            ResourceRequirements(min_mips=500, extra="true) || (true")

    def test_constraint_is_read_only(self):
        reqs = ResourceRequirements(min_mips=500)
        with pytest.raises(dataclasses.FrozenInstanceError):
            reqs.constraint = "true"
        assert reqs.constraint == "mips >= 500.0"


class TestVirtualTopology:
    def test_paper_example(self):
        reqs = ResourceRequirements(min_mips=500, min_ram_mb=16)
        topo = VirtualTopologyRequest(
            groups=(
                NodeGroupRequest(50, 100.0, reqs),
                NodeGroupRequest(50, 100.0, reqs),
            ),
            inter_bandwidth_mbps=10.0,
        )
        assert topo.total_nodes == 100

    def test_empty_topology_rejected(self):
        with pytest.raises(ValueError):
            VirtualTopologyRequest(groups=(), inter_bandwidth_mbps=10.0)

    def test_invalid_group(self):
        with pytest.raises(ValueError):
            NodeGroupRequest(0, 100.0)

    def test_topology_must_match_task_count(self):
        topo = VirtualTopologyRequest(
            groups=(NodeGroupRequest(4, 100.0),), inter_bandwidth_mbps=10.0
        )
        with pytest.raises(ValueError):
            ApplicationSpec(name="x", tasks=8, topology=topo)


class TestApplicationSpec:
    def test_defaults(self):
        spec = ApplicationSpec(name="render")
        assert spec.kind == SEQUENTIAL
        assert spec.tasks == 1

    def test_bsp_requires_program(self):
        with pytest.raises(ValueError):
            ApplicationSpec(name="x", kind=BSP, tasks=4)

    def test_bsp_with_program(self):
        spec = ApplicationSpec(name="x", kind=BSP, tasks=4, program="psum")
        assert spec.program == "psum"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ApplicationSpec(name="x", kind="mapreduce")

    def test_invalid_preference_fails_fast(self):
        with pytest.raises(Exception):
            ApplicationSpec(name="x", preference="mips >=")

    def test_preference_rank(self):
        spec = ApplicationSpec(name="x", preference="mips")
        assert spec.preference_rank().score({"mips": 5}) == 5.0

    @pytest.mark.parametrize("work_mips", [math.nan, math.inf])
    def test_non_finite_work_rejected(self, work_mips):
        with pytest.raises(ValueError, match="work_mips"):
            ApplicationSpec(name="x", work_mips=work_mips)


class TestTaskLifecycle:
    def make_task(self):
        return Task("job0", 0, work_mips=1000.0)

    def test_happy_path(self):
        task = self.make_task()
        task.transition(TaskState.RESERVED, 1.0)
        task.transition(TaskState.RUNNING, 2.0)
        task.advance(1000.0)
        task.transition(TaskState.COMPLETED, 3.0)
        assert task.done
        assert task.attempts == 1
        assert [e.state for e in task.history] == [
            "reserved", "running", "completed",
        ]

    def test_illegal_transition(self):
        task = self.make_task()
        with pytest.raises(InvalidTransition):
            task.transition(TaskState.RUNNING, 1.0)   # must reserve first

    def test_terminal_states_are_final(self):
        task = self.make_task()
        task.transition(TaskState.RESERVED, 1.0)
        task.transition(TaskState.RUNNING, 2.0)
        task.transition(TaskState.COMPLETED, 3.0)
        with pytest.raises(InvalidTransition):
            task.transition(TaskState.PENDING, 4.0)

    def test_eviction_and_retry_counts(self):
        task = self.make_task()
        task.transition(TaskState.RESERVED, 1.0)
        task.transition(TaskState.RUNNING, 2.0)
        task.advance(400.0)
        task.transition(TaskState.EVICTED, 3.0)
        task.rollback()
        task.transition(TaskState.PENDING, 3.0)
        task.transition(TaskState.RESERVED, 4.0)
        task.transition(TaskState.RUNNING, 5.0)
        assert task.attempts == 2
        assert task.evictions == 1
        assert task.wasted_mips == pytest.approx(400.0)
        assert task.progress_mips == 0.0

    def test_rollback_to_checkpoint(self):
        task = self.make_task()
        task.transition(TaskState.RESERVED, 1.0)
        task.transition(TaskState.RUNNING, 2.0)
        task.advance(700.0)
        task.rollback(to_progress_mips=500.0)
        assert task.progress_mips == 500.0
        assert task.wasted_mips == pytest.approx(200.0)

    def test_cannot_roll_forward(self):
        task = self.make_task()
        with pytest.raises(ValueError):
            task.rollback(to_progress_mips=100.0)

    def test_progress_saturates(self):
        task = self.make_task()
        task.advance(5000.0)
        assert task.progress_mips == 1000.0
        assert task.remaining_mips == 0.0

    def test_negative_progress_rejected(self):
        with pytest.raises(ValueError):
            self.make_task().advance(-1.0)


class TestJobLifecycle:
    def make_job(self, tasks=2):
        spec = ApplicationSpec(name="app", tasks=tasks, work_mips=100.0)
        return Job("job0", spec, submitted_at=10.0)

    def test_initial_state(self):
        job = self.make_job()
        assert job.state is JobState.PENDING
        assert len(job.tasks) == 2
        assert job.makespan is None

    def test_task_ids_are_namespaced(self):
        job = self.make_job(3)
        assert [t.task_id for t in job.tasks] == ["job0.0", "job0.1", "job0.2"]

    def test_refresh_to_completed(self):
        job = self.make_job()
        for task in job.tasks:
            task.transition(TaskState.RESERVED, 11.0)
            task.transition(TaskState.RUNNING, 12.0)
            task.advance(100.0)
            task.transition(TaskState.COMPLETED, 20.0)
        job.refresh_state(20.0)
        assert job.state is JobState.COMPLETED
        assert job.makespan == pytest.approx(10.0)

    def test_refresh_to_failed(self):
        job = self.make_job()
        job.tasks[0].transition(TaskState.FAILED, 12.0, "node lost")
        job.refresh_state(12.0)
        assert job.state is JobState.FAILED

    def test_refresh_to_running(self):
        job = self.make_job()
        job.tasks[0].transition(TaskState.RESERVED, 11.0)
        job.tasks[0].transition(TaskState.RUNNING, 12.0)
        job.refresh_state(12.0)
        assert job.state is JobState.RUNNING

    def test_terminal_job_rejects_changes(self):
        job = self.make_job()
        job.set_state(JobState.CANCELLED, 11.0)
        with pytest.raises(InvalidTransition):
            job.set_state(JobState.RUNNING, 12.0)

    def test_progress_fraction(self):
        job = self.make_job()
        job.tasks[0].advance(50.0)
        assert job.progress_fraction() == pytest.approx(0.25)
