"""Tests for the classic BSP kernel library (real computation)."""

import operator
import random

import pytest

from repro.bsp.programs import (
    all_reduce,
    block_range,
    broadcast,
    gather_to_root,
    prefix_sums,
    reduce_to_root,
    sample_sort,
    stencil_1d,
)
from repro.bsp.runtime import run_bsp


class TestBlockRange:
    def test_partitions_exactly(self):
        n, p = 103, 8
        covered = []
        for pid in range(p):
            covered.extend(block_range(pid, p, n))
        assert covered == list(range(n))

    def test_single_process(self):
        assert list(block_range(0, 1, 5)) == [0, 1, 2, 3, 4]


class TestCollectives:
    @pytest.mark.parametrize("nprocs", [1, 2, 5, 8])
    def test_reduce_to_root(self, nprocs):
        def program(bsp):
            return reduce_to_root(bsp, bsp.pid + 1)

        run = run_bsp(nprocs, program)
        assert run.results[0] == sum(range(1, nprocs + 1))
        assert all(r is None for r in run.results[1:])

    def test_reduce_with_custom_op(self):
        def program(bsp):
            return reduce_to_root(bsp, bsp.pid + 1, op=operator.mul)

        run = run_bsp(4, program)
        assert run.results[0] == 24

    def test_reduce_to_non_zero_root(self):
        def program(bsp):
            return reduce_to_root(bsp, 1, root=2)

        run = run_bsp(4, program)
        assert run.results[2] == 4
        assert run.results[0] is None

    @pytest.mark.parametrize("nprocs", [1, 3, 8])
    def test_broadcast(self, nprocs):
        def program(bsp):
            return broadcast(bsp, "payload" if bsp.pid == 0 else None)

        run = run_bsp(nprocs, program)
        assert run.results == ["payload"] * nprocs

    @pytest.mark.parametrize("nprocs", [1, 2, 6])
    def test_all_reduce(self, nprocs):
        def program(bsp):
            return all_reduce(bsp, bsp.pid)

        run = run_bsp(nprocs, program)
        expected = sum(range(nprocs))
        assert run.results == [expected] * nprocs

    @pytest.mark.parametrize("nprocs", [1, 2, 3, 7, 8])
    def test_prefix_sums(self, nprocs):
        def program(bsp):
            return prefix_sums(bsp, bsp.pid + 1)

        run = run_bsp(nprocs, program)
        assert run.results == [
            sum(range(1, pid + 2)) for pid in range(nprocs)
        ]

    def test_gather_to_root(self):
        def program(bsp):
            return gather_to_root(bsp, bsp.pid * 10)

        run = run_bsp(5, program)
        assert run.results[0] == [0, 10, 20, 30, 40]


class TestSampleSort:
    @pytest.mark.parametrize("nprocs,n", [(1, 40), (2, 100), (4, 400), (8, 64)])
    def test_sorts_globally(self, nprocs, n):
        rng = random.Random(9)
        data = [rng.randint(0, 10_000) for _ in range(n)]

        def program(bsp, data):
            block = [data[i] for i in block_range(bsp.pid, bsp.nprocs, len(data))]
            return sample_sort(bsp, block)

        run = run_bsp(nprocs, program, data)
        merged = [x for block in run.results for x in block]
        assert merged == sorted(data)
        # Slices are globally ordered across pids.
        for a, b in zip(run.results, run.results[1:]):
            if a and b:
                assert a[-1] <= b[0]

    def test_duplicate_heavy_input(self):
        data = [5] * 50 + [1] * 30 + [9] * 20

        def program(bsp, data):
            block = [data[i] for i in block_range(bsp.pid, bsp.nprocs, len(data))]
            return sample_sort(bsp, block)

        run = run_bsp(4, program, data)
        assert [x for b in run.results for x in b] == sorted(data)

    def test_empty_input(self):
        def program(bsp):
            return sample_sort(bsp, [])

        run = run_bsp(3, program)
        assert all(block == [] for block in run.results)


class TestStencil:
    def test_heat_diffusion_conserves_and_smooths(self):
        n, p, steps = 32, 4, 10
        initial = [0.0] * n
        initial[n // 2] = 100.0

        def update(left, centre, right):
            l = centre if left is None else left
            r = centre if right is None else right
            return (l + centre + r) / 3.0

        def program(bsp, data):
            block = [data[i] for i in block_range(bsp.pid, bsp.nprocs, len(data))]
            return stencil_1d(bsp, block, steps, update)

        run = run_bsp(p, program, initial)
        final = [x for block in run.results for x in block]
        assert len(final) == n
        # The spike spreads: the centre drops, neighbours rise.
        assert final[n // 2] < 100.0
        assert final[n // 2 - 3] > 0.0
        # Sequential reference must match exactly.
        cells = list(initial)
        for _ in range(steps):
            cells = [
                update(
                    cells[i - 1] if i > 0 else None,
                    cells[i],
                    cells[i + 1] if i < n - 1 else None,
                )
                for i in range(n)
            ]
        assert final == pytest.approx(cells)

    def test_shift_stencil(self):
        # update = take the left neighbour: after k steps values shift
        # right by k (left edge refills with None->0).
        n, p, steps = 16, 4, 3
        initial = list(range(n))

        def update(left, centre, right):
            return 0 if left is None else left

        def program(bsp, data):
            block = [data[i] for i in block_range(bsp.pid, bsp.nprocs, len(data))]
            return stencil_1d(bsp, block, steps, update)

        run = run_bsp(p, program, initial)
        final = [x for block in run.results for x in block]
        assert final == [0] * steps + list(range(n - steps))


class TestGridRegistration:
    def test_kernel_registrable_and_grid_executable(self, programs):
        from repro import ApplicationSpec, Grid
        from repro.sim.clock import SECONDS_PER_DAY

        def program(bsp):
            return all_reduce(bsp, bsp.pid + 1)

        programs.register("allreduce", program)
        grid = Grid(seed=2, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0")
        for i in range(3):
            grid.add_node("c0", f"d{i}", dedicated=True)
        grid.run_for(120)
        job_id = grid.submit(ApplicationSpec(
            name="ar", kind="bsp", tasks=3, program="allreduce",
            work_mips=2e5, metadata={"supersteps": 2},
        ))
        assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
        assert [t.result for t in grid.job(job_id).tasks] == [6, 6, 6]
