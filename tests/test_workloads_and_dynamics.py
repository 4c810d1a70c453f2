"""Tests for workload generators and dynamic node membership."""

import pytest

from repro import ApplicationSpec, Grid, JobState, TaskState
from repro.apps.workloads import (
    PlannedSubmission,
    SubmissionPlan,
    bag_of_tasks,
    diurnal_stream,
    mixed_campaign,
    steady_stream,
)
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR


class TestBagOfTasks:
    def test_shape(self):
        plan = bag_of_tasks(5, work_mips=1e6, submit_at=100.0)
        assert len(plan) == 5
        assert all(p.time == 100.0 for p in plan)
        assert plan.total_work_mips == 5e6

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            bag_of_tasks(0, 1e6)


class TestSteadyStream:
    def test_rate_approximately_met(self):
        plan = steady_stream(jobs_per_day=24, duration_days=10,
                             work_mips=1e6, seed=1)
        # 240 expected; Poisson noise allows a wide band.
        assert 150 < len(plan) < 340
        times = [p.time for p in plan]
        assert times == sorted(times)
        assert times[-1] < 10 * SECONDS_PER_DAY

    def test_deterministic_per_seed(self):
        a = steady_stream(10, 2, 1e6, seed=5)
        b = steady_stream(10, 2, 1e6, seed=5)
        assert [p.time for p in a] == [p.time for p in b]

    def test_different_seeds_differ(self):
        a = steady_stream(10, 2, 1e6, seed=5)
        b = steady_stream(10, 2, 1e6, seed=6)
        assert [p.time for p in a] != [p.time for p in b]


class TestDiurnalStream:
    def test_submissions_only_in_working_hours(self):
        plan = diurnal_stream(jobs_per_workday=6, duration_days=14,
                              work_mips=1e6, seed=2)
        for planned in plan:
            day = int(planned.time // SECONDS_PER_DAY) % 7
            hour = (planned.time % SECONDS_PER_DAY) / SECONDS_PER_HOUR
            assert day < 5, "no weekend submissions"
            assert 9.0 <= hour <= 18.0

    def test_weekends_skipped_in_count(self):
        plan = diurnal_stream(jobs_per_workday=3, duration_days=7,
                              work_mips=1e6)
        assert len(plan) == 3 * 5


class TestMixedCampaign:
    def test_composition(self):
        plan = mixed_campaign(sequential_jobs=6, bsp_jobs=2, bsp_tasks=4,
                              work_mips=1e6)
        kinds = [p.spec.kind for p in plan]
        assert kinds.count("sequential") == 6
        assert kinds.count("bsp") == 2
        assert all(
            p.spec.tasks == 4 for p in plan if p.spec.kind == "bsp"
        )


class TestPlanValidation:
    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError):
            SubmissionPlan((
                PlannedSubmission(10.0, ApplicationSpec(name="a")),
                PlannedSubmission(5.0, ApplicationSpec(name="b")),
            ))


class TestDrive:
    def test_plan_drives_a_grid(self):
        grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0")
        for i in range(3):
            grid.add_node("c0", f"d{i}", dedicated=True)
        grid.run_for(60)
        plan = bag_of_tasks(3, work_mips=1e6, submit_at=grid.loop.now + 60)
        job_ids = plan.drive(grid.submit, grid.loop)
        grid.run_for(2 * SECONDS_PER_HOUR)
        assert len(job_ids) == 3
        assert all(grid.job(j).state is JobState.COMPLETED for j in job_ids)


class TestLupaStopsWithItsNode:
    """A departed or crashed node's LUPA neither samples nor uploads."""

    def make_grid(self):
        grid = Grid(seed=3, policy="first_fit", lupa_min_history_days=1)
        grid.add_cluster("c0")
        for i in range(3):
            grid.add_node("c0", f"n{i}")
        grid.run_for(2 * SECONDS_PER_DAY)   # every node has uploaded
        assert grid.clusters["c0"].gupa.known_nodes == ["n0", "n1", "n2"]
        return grid

    def test_a_removed_node_stays_forgotten(self):
        grid = self.make_grid()
        grid.remove_node("c0", "n1")
        grid.run_for(2 * SECONDS_PER_DAY)
        assert grid.clusters["c0"].gupa.known_nodes == ["n0", "n2"]

    def test_a_crashed_node_stops_sampling_and_uploading(self):
        grid = self.make_grid()
        node = grid.crash_node("c0", "n1")
        samples = node.lupa.samples_taken
        grid.run_for(2 * SECONDS_PER_DAY)
        assert node.lupa.samples_taken == samples
        assert node.lupa_upload.stopped


class TestNodeDeparture:
    def make_grid(self):
        grid = Grid(seed=4, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0")
        for i in range(2):
            grid.add_node("c0", f"d{i}", dedicated=True)
        grid.run_for(120)
        return grid

    def test_departure_withdraws_offer(self):
        grid = self.make_grid()
        grid.remove_node("c0", "d0")
        assert grid.clusters["c0"].grm.trader.offer_count == 1
        assert "d0" not in grid.clusters["c0"].nodes

    def test_departure_evicts_and_job_migrates(self):
        grid = self.make_grid()
        job_id = grid.submit(ApplicationSpec(
            name="t", work_mips=2e7,
            metadata={"checkpoint_interval_s": 300.0},
        ))
        grid.run_for(SECONDS_PER_HOUR)
        job = grid.job(job_id)
        first_node = job.tasks[0].node
        grid.remove_node("c0", first_node)
        assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
        assert job.state is JobState.COMPLETED
        assert job.tasks[0].node != first_node
        assert job.tasks[0].evictions >= 1

    def test_remove_unknown_node(self):
        grid = self.make_grid()
        with pytest.raises(KeyError):
            grid.remove_node("c0", "ghost")

    def test_departed_node_orb_unreachable(self):
        grid = self.make_grid()
        grid.remove_node("c0", "d0")
        assert grid.domain.lookup("d0-orb") is None

    def test_all_nodes_leave_then_new_node_joins(self):
        grid = self.make_grid()
        grid.remove_node("c0", "d0")
        grid.remove_node("c0", "d1")
        job_id = grid.submit(ApplicationSpec(name="t", work_mips=1e6))
        grid.run_for(SECONDS_PER_HOUR)
        assert grid.job(job_id).state is JobState.PENDING
        grid.add_node("c0", "fresh", dedicated=True)
        assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
