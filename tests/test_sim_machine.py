"""Unit tests for the machine hardware model."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lrm import Lrm
from repro.core.ncc import NodeControlCenter
from repro.sim.events import EventLoop
from repro.sim.machine import (
    InsufficientResources,
    Machine,
    MachineSpec,
    ResourceSample,
)
from repro.sim.usage import ALWAYS_IDLE
from repro.sim.workstation import Workstation


def make_machine(**kwargs):
    defaults = dict(mips=1000.0, ram_mb=256.0, disk_mb=1000.0)
    defaults.update(kwargs)
    return Machine("node0", MachineSpec(**defaults))


class TestMachineSpec:
    def test_defaults(self):
        spec = MachineSpec()
        assert spec.mips > 0
        assert spec.os == "linux"

    @pytest.mark.parametrize("field,value", [
        ("mips", 0), ("mips", -1), ("ram_mb", 0), ("disk_mb", -1),
    ])
    def test_invalid_spec_rejected(self, field, value):
        with pytest.raises(ValueError):
            MachineSpec(**{field: value})


class TestOwnerLoad:
    def test_set_owner_load(self):
        m = make_machine()
        m.set_owner_load(0.5, 100.0, True)
        assert m.owner_cpu == 0.5
        assert m.owner_mem_mb == 100.0
        assert m.keyboard_active

    def test_owner_cpu_out_of_range(self):
        m = make_machine()
        with pytest.raises(ValueError):
            m.set_owner_load(1.5, 0.0, False)

    def test_owner_mem_exceeding_ram_rejected(self):
        m = make_machine(ram_mb=128.0)
        with pytest.raises(ValueError):
            m.set_owner_load(0.1, 200.0, False)


class TestGridAllocation:
    def test_allocate_and_release(self):
        m = make_machine()
        m.allocate("t1", 0.5, 64.0)
        assert m.grid_cpu == 0.5
        assert m.grid_mem_mb == 64.0
        m.release("t1")
        assert m.grid_cpu == 0.0
        assert m.grid_mem_mb == 0.0

    def test_duplicate_task_rejected(self):
        m = make_machine()
        m.allocate("t1", 0.2, 10.0)
        with pytest.raises(ValueError):
            m.allocate("t1", 0.2, 10.0)

    def test_release_unknown_task(self):
        with pytest.raises(KeyError):
            make_machine().release("nope")

    def test_cpu_oversubscription_rejected(self):
        m = make_machine()
        m.set_owner_load(0.8, 0.0, True)
        with pytest.raises(InsufficientResources):
            m.allocate("t1", 0.5, 10.0)

    def test_memory_oversubscription_rejected(self):
        m = make_machine(ram_mb=128.0)
        m.set_owner_load(0.0, 100.0, False)
        with pytest.raises(InsufficientResources):
            m.allocate("t1", 0.1, 64.0)

    def test_disk_oversubscription_rejected(self):
        m = make_machine(disk_mb=100.0)
        with pytest.raises(InsufficientResources):
            m.allocate("t1", 0.1, 1.0, disk_mb=200.0)

    def test_disk_returned_on_release(self):
        m = make_machine(disk_mb=100.0)
        m.allocate("t1", 0.1, 1.0, disk_mb=80.0)
        m.release("t1")
        m.allocate("t2", 0.1, 1.0, disk_mb=80.0)

    def test_zero_cpu_allocation_rejected(self):
        with pytest.raises(ValueError):
            make_machine().allocate("t1", 0.0, 10.0)


def fresh_totals(m):
    """What summing the allocations now, in insertion order, gives."""
    allocations = list(m._allocations.values())
    return (sum(a.cpu_fraction for a in allocations),
            sum(a.mem_mb for a in allocations),
            sum(a.disk_mb for a in allocations))


OPERATION = st.one_of(
    st.tuples(st.just("allocate"), st.floats(0.001, 0.7),
              st.floats(0.0, 150.0), st.floats(0.0, 600.0)),
    st.tuples(st.just("release"), st.integers(0, 7)),
)


class TestExactTotals:
    def test_disk_use_does_not_drift(self):
        """A running ``+=`` / ``-=`` total read 0.20000000000000012 here,
        and 1.1102230246251565e-16 once the machine was empty."""
        m = make_machine()
        for task_id, disk_mb in (("a", 0.1), ("b", 0.2), ("c", 0.3)):
            m.allocate(task_id, 0.1, 1.0, disk_mb=disk_mb)
        m.release("a")
        m.release("c")
        assert m.disk_used_mb == 0.2
        m.release("b")
        assert m.disk_used_mb == 0

    def test_an_emptied_node_reports_its_whole_disk_free(self):
        loop = EventLoop()
        ws = Workstation(loop, "n0", spec=MachineSpec(disk_mb=1.0),
                         profile=ALWAYS_IDLE, rng=random.Random(1))
        lrm = Lrm(loop, ws, NodeControlCenter(loop))
        for task_id, disk_mb in (("a", 0.1), ("b", 0.2), ("c", 0.3)):
            ws.machine.allocate(task_id, 0.1, 1.0, disk_mb=disk_mb)
        for task_id in ("a", "c", "b"):
            ws.machine.release(task_id)
        assert lrm.status()["disk_free_mb"] == ws.machine.spec.disk_mb

    @settings(max_examples=200, deadline=None)
    @given(operations=st.lists(OPERATION, max_size=40))
    def test_every_read_equals_a_fresh_sum(self, operations):
        m = make_machine(ram_mb=256.0, disk_mb=1000.0)
        assert (m.grid_cpu, m.grid_mem_mb, m.disk_used_mb) == (0, 0, 0)
        for n, operation in enumerate(operations):
            if operation[0] == "allocate":
                _, cpu, mem, disk = operation
                before = fresh_totals(m)
                try:
                    m.allocate(f"t{n}", cpu, mem, disk_mb=disk)
                except InsufficientResources:
                    assert fresh_totals(m) == before   # refused: untouched
            elif m._allocations:
                held = list(m._allocations)
                m.release(held[operation[1] % len(held)])
            assert (m.grid_cpu, m.grid_mem_mb, m.disk_used_mb) \
                == fresh_totals(m)
        for task_id in list(m._allocations):
            m.release(task_id)
        assert (m.grid_cpu, m.grid_mem_mb, m.disk_used_mb) == (0, 0, 0)


class TestAvailability:
    def test_cap_limits_grid_share(self):
        m = make_machine()
        assert m.cpu_available_for_grid(cap=0.3) == pytest.approx(0.3)

    def test_owner_load_limits_grid_share(self):
        m = make_machine()
        m.set_owner_load(0.9, 0.0, True)
        assert m.cpu_available_for_grid(cap=1.0) == pytest.approx(0.1)

    def test_existing_allocations_consume_cap(self):
        m = make_machine()
        m.allocate("t1", 0.2, 1.0)
        assert m.cpu_available_for_grid(cap=0.3) == pytest.approx(0.1)

    def test_mem_cap(self):
        m = make_machine(ram_mb=256.0)
        assert m.mem_available_for_grid(cap_mb=100.0) == pytest.approx(100.0)
        m.allocate("t1", 0.1, 60.0)
        assert m.mem_available_for_grid(cap_mb=100.0) == pytest.approx(40.0)


class TestTaskRate:
    def test_full_speed_when_idle(self):
        m = make_machine(mips=1000.0)
        m.allocate("t1", 0.5, 1.0)
        assert m.grid_task_rate_mips("t1") == pytest.approx(500.0)

    def test_owner_throttles_grid(self):
        # Owner takes 80%; a 50% grid allocation only gets the remaining 20%.
        m = make_machine(mips=1000.0)
        m.allocate("t1", 0.5, 1.0)
        m.set_owner_load(0.8, 0.0, True)
        assert m.grid_task_rate_mips("t1") == pytest.approx(1000.0 * 0.2)

    def test_throttle_shared_proportionally(self):
        m = make_machine(mips=1000.0)
        m.allocate("t1", 0.6, 1.0)
        m.allocate("t2", 0.3, 1.0)
        m.set_owner_load(0.7, 0.0, True)
        # 0.3 CPU left for 0.9 of allocations: scale = 1/3.
        assert m.grid_task_rate_mips("t1") == pytest.approx(200.0)
        assert m.grid_task_rate_mips("t2") == pytest.approx(100.0)

    def test_unknown_task(self):
        with pytest.raises(KeyError):
            make_machine().grid_task_rate_mips("ghost")


class TestSchedulingModes:
    def test_owner_first_owner_untouched(self):
        m = make_machine(mips=1000.0)
        m.allocate("t1", 0.8, 1.0)
        m.set_owner_load(0.6, 0.0, True)
        assert m.owner_received_cpu() == pytest.approx(0.6)
        assert m.grid_task_rate_mips("t1") == pytest.approx(400.0)

    def test_fair_share_owner_perceives_grid(self):
        m = Machine("n0", MachineSpec(mips=1000.0), scheduling="fair_share")
        m.allocate("t1", 0.8, 1.0)
        m.set_owner_load(0.6, 0.0, True)
        # Demand 1.4 on 1 CPU: both shrink by 1/1.4.
        assert m.owner_received_cpu() == pytest.approx(0.6 / 1.4)
        assert m.grid_task_rate_mips("t1") == pytest.approx(1000.0 * 0.8 / 1.4)

    def test_fair_share_no_contention_no_effect(self):
        m = Machine("n0", MachineSpec(mips=1000.0), scheduling="fair_share")
        m.allocate("t1", 0.3, 1.0)
        m.set_owner_load(0.4, 0.0, True)
        assert m.owner_received_cpu() == pytest.approx(0.4)
        assert m.grid_task_rate_mips("t1") == pytest.approx(300.0)

    @pytest.mark.parametrize("scheduling, uncapped, capped", [
        ("owner_first", 400.0, 400.0),    # the owner left only 0.4
        ("fair_share", 625.0, 500.0),     # 1 / 1.6, then the 0.5 cap
    ])
    def test_cap_bounds_the_grid_in_either_mode(self, scheduling,
                                                uncapped, capped):
        m = Machine("n0", MachineSpec(mips=1000.0), scheduling=scheduling)
        m.allocate("t1", 1.0, 1.0)
        m.set_owner_load(0.6, 0.0, True)
        assert m.grid_task_rate_mips("t1") == pytest.approx(uncapped)
        assert m.grid_task_rate_mips("t1", cap=0.5) == pytest.approx(capped)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Machine("n0", scheduling="strict_priority")


class TestSample:
    def test_sample_reflects_loads(self):
        m = make_machine(ram_mb=256.0)
        m.set_owner_load(0.4, 100.0, True)
        m.allocate("t1", 0.3, 50.0)
        s = m.sample(now=12.0)
        assert isinstance(s, ResourceSample)
        assert s.time == 12.0
        assert s.cpu_owner == pytest.approx(0.4)
        assert s.cpu_grid == pytest.approx(0.3)
        assert s.cpu_total == pytest.approx(0.7)
        assert s.mem_used_mb == pytest.approx(150.0)
        assert s.keyboard_active

    def test_cpu_total_saturates_at_one(self):
        m = make_machine()
        m.allocate("t1", 0.9, 1.0)
        m.set_owner_load(0.8, 0.0, True)
        s = m.sample(now=0.0)
        assert s.cpu_total == pytest.approx(1.0)
        assert s.cpu_free == pytest.approx(0.0)

    def test_cpu_free(self):
        m = make_machine()
        m.set_owner_load(0.25, 0.0, False)
        assert m.sample(0.0).cpu_free == pytest.approx(0.75)
