"""Tests for the program registry and functional BSP grid execution."""

import pytest

from repro import ApplicationSpec, Grid
from repro.apps.registry import (
    DEFAULT_REGISTRY,
    ProgramRegistry,
    UnknownProgram,
    register_program,
)
from repro.sim.clock import SECONDS_PER_DAY


def psum(bsp, n):
    lo = bsp.pid * n // bsp.nprocs
    hi = (bsp.pid + 1) * n // bsp.nprocs
    bsp.send(0, sum(range(lo, hi)))
    bsp.sync()
    if bsp.pid == 0:
        return sum(bsp.messages())
    return None


class TestProgramRegistry:
    def test_register_and_get(self):
        registry = ProgramRegistry()
        registry.register("psum", psum, 100)
        fn, args = registry.get("psum")
        assert fn is psum
        assert args == (100,)
        assert "psum" in registry
        assert registry.names == ["psum"]

    def test_unknown_program(self):
        with pytest.raises(UnknownProgram):
            ProgramRegistry().get("ghost")

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            ProgramRegistry().register("x", 42)

    def test_reregistration_overwrites(self):
        registry = ProgramRegistry()
        registry.register("p", psum, 1)
        registry.register("p", psum, 2)
        assert registry.get("p")[1] == (2,)

    def test_unregister_is_idempotent(self):
        registry = ProgramRegistry()
        registry.register("p", psum)
        registry.unregister("p")
        registry.unregister("p")
        assert "p" not in registry

    def test_default_registry_helper(self):
        register_program("test_psum_helper", psum, 10)
        try:
            assert "test_psum_helper" in DEFAULT_REGISTRY
        finally:
            DEFAULT_REGISTRY.unregister("test_psum_helper")


class TestFunctionalBspExecution:
    def make_grid(self):
        grid = Grid(seed=3, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0")
        for i in range(4):
            grid.add_node("c0", f"d{i}", dedicated=True)
        grid.run_for(120)
        return grid

    def bsp_spec(self, **metadata_extra):
        metadata = {"supersteps": 4}
        metadata.update(metadata_extra)
        return ApplicationSpec(
            name="sum", kind="bsp", tasks=4, program="psum",
            work_mips=2e5, metadata=metadata,
        )

    def test_registered_program_produces_real_results(self, programs):
        programs.register("psum", psum, 1000)
        grid = self.make_grid()
        job_id = grid.submit(self.bsp_spec())
        assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
        job = grid.job(job_id)
        assert job.tasks[0].result == sum(range(1000))
        assert grid.coordinator(job_id).executed_results[0] == sum(range(1000))

    def test_program_args_metadata_overrides_defaults(self, programs):
        programs.register("psum", psum, 1000)
        grid = self.make_grid()
        job_id = grid.submit(self.bsp_spec(program_args=[10]))
        assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
        assert grid.job(job_id).tasks[0].result == sum(range(10))

    def test_unregistered_program_is_cost_model_only(self, programs):
        assert "psum" not in programs
        grid = self.make_grid()
        job_id = grid.submit(self.bsp_spec())
        assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
        job = grid.job(job_id)
        assert job.done
        assert all(t.result is None for t in job.tasks)

    def test_crashing_program_reports_error(self, programs):
        def boom(bsp):
            raise RuntimeError("bad math")

        programs.register("psum", boom)
        grid = self.make_grid()
        job_id = grid.submit(self.bsp_spec())
        assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
        job = grid.job(job_id)
        assert all("__error__" in t.result for t in job.tasks)
