"""Optimistic accounting: the GRM's view of a node is never more
optimistic than the node's last word, and one status makes it exact.

The GRM debits a node's offer when it launches a task there, credits
the debit back when the task leaves before the node has reported again,
and lowers the offer to the capacity a refusal carries.  Generated
sequences of submissions, owner arrivals and departures (which evict on
a vacate-policy node), completions, migrations, cancellations and lost
statuses run on a small grid — collocated, and with every call
marshalled (``auth_secret``) — and after every step:

* every offer's ``cpu_free`` / ``mem_free_mb`` is at most what the
  node's last delivered status said, minus the outstanding debits, and
  every outstanding debit belongs to a task still running there;
* a full status makes the offer the LRM's truth, debits gone;
* no node's grid tasks run past its NCC caps.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import ApplicationSpec, Grid
from repro.apps.job import TaskState
from repro.apps.spec import ResourceRequirements
from repro.core.ncc import DEFAULT_POLICY, VACATE_POLICY, thirty_percent_policy
from repro.core.protocols import GRM_INTERFACE
from repro.sim.machine import MachineSpec
from tests.test_core_lrm import owner_flips

INTERVAL = 60.0
RAM_MB = 256.0
POLICIES = (DEFAULT_POLICY, VACATE_POLICY, thirty_percent_policy(RAM_MB))

STEP = st.one_of(
    # tasks, CPU share, memory
    st.tuples(st.just("submit"), st.integers(1, 3),
              st.sampled_from([0.25, 0.3, 0.5, 1.0]),
              st.sampled_from([16.0, 64.0, 100.0])),
    st.tuples(st.just("owner"), st.integers(0, 2), st.floats(0.0, 0.9)),
    st.tuples(st.just("run"), st.floats(1.0, 200.0)),
    st.tuples(st.just("migrate"), st.integers(0, 10)),
    st.tuples(st.just("cancel"), st.integers(0, 10)),
    st.tuples(st.just("drop"), st.integers(0, 2)),
    st.tuples(st.just("status"), st.integers(0, 2)),
)


class World:
    """A three-node grid whose owners the test scripts, with the GRM's
    incoming statuses observed (and lost on request) on the wire."""

    def __init__(self, auth_secret):
        self.grid = Grid(seed=5, policy="first_fit", lupa_enabled=False,
                         update_interval=INTERVAL, auth_secret=auth_secret)
        self.cluster = self.grid.add_cluster("c0")
        self.grm = self.cluster.grm
        self.sent = {}          # node -> last status the GRM received
        self.lose = set()       # nodes whose next status is lost
        self.cluster.orb.add_server_interceptor(self._wire)
        self.nodes = [
            self.grid.add_node("c0", f"n{i}", sharing=policy,
                               spec=MachineSpec(mips=1000.0, ram_mb=RAM_MB))
            for i, policy in enumerate(POLICIES)
        ]
        self.present = [False] * len(self.nodes)
        for node in self.nodes:
            node.workstation.stop()
        self.jobs = []

    def _wire(self, key, operation, args):
        if operation.name not in ("register_node", "send_update"):
            return
        node = args[0]["node"]
        if operation.name == "send_update" and node in self.lose:
            self.lose.discard(node)
            raise ConnectionError("lost on the wire")
        self.sent[node] = dict(args[0])

    def running(self) -> dict:
        return {
            t.task_id: t.node for job in self.grm.jobs for t in job.tasks
            if t.state is TaskState.RUNNING
        }

    def apply(self, kind, *args):
        grm = self.grm
        if kind == "submit":
            tasks, cpu, mem = args
            self.jobs.append(self.grid.submit(ApplicationSpec(
                name="j", tasks=tasks, work_mips=5e4,
                requirements=ResourceRequirements(cpu_fraction=cpu,
                                                  mem_mb=mem))))
            self.grid.run_for(1.0)
        elif kind == "owner":
            index, load = args
            self.present[index] = not self.present[index]
            owner_flips(self.nodes[index].workstation,
                        self.present[index], load)
        elif kind == "run":
            self.grid.run_for(args[0])
        elif kind == "migrate":
            running = sorted(self.running())
            if running:
                grm.migrate_task(running[args[0] % len(running)])
        elif kind == "cancel":
            live = [j for j in self.jobs if not grm.job(j).done]
            if live:
                grm.cancel_job(live[args[0] % len(live)])
        elif kind == "drop":
            self.lose.add(self.nodes[args[0]].name)
        elif kind == "status":
            self.full_status_makes_the_offer_exact(self.nodes[args[0]])

    def full_status_makes_the_offer_exact(self, node):
        self.lose.discard(node.name)      # this one is delivered
        stub = node.orb.stub(self.cluster.grm_ior, GRM_INTERFACE)
        stub.send_update(node.lrm.status())
        record = self.grm._nodes.get(node.name)
        if record is None:
            return                        # declared dead: must re-register
        assert record.debits == {}
        assert self.grm.trader.offer(record.offer_id).properties \
            == node.lrm.status()

    def check(self):
        running = self.running()
        for node in self.nodes:
            record = self.grm._nodes.get(node.name)
            if record is not None:
                offer = self.grm.trader.offer(record.offer_id).properties
                assert offer == record.last_status
                cpu = self.sent[node.name]["cpu_free"]
                mem = self.sent[node.name]["mem_free_mb"]
                for task_id, (d_cpu, d_mem) in record.debits.items():
                    assert running.get(task_id) == node.name
                    assert task_id in node.lrm.running_tasks
                    cpu -= d_cpu
                    mem -= d_mem
                assert offer["cpu_free"] <= cpu + 1e-9
                assert offer["mem_free_mb"] <= mem + 1e-9
            self.check_caps(node)

    @staticmethod
    def check_caps(node):
        lrm, ncc = node.lrm, node.ncc
        machine = node.workstation.machine
        used = sum(lrm.task_rate_mips(t) for t in lrm.running_tasks) \
            / machine.spec.mips
        assert used <= ncc.cpu_cap(node.workstation.owner_present) + 1e-9
        assert used <= max(0.0, 1.0 - machine.owner_cpu) + 1e-9
        cap_mb = ncc.mem_cap_mb()
        if cap_mb is not None:
            assert machine.grid_mem_mb <= cap_mb + 1e-9


@pytest.mark.parametrize("auth_secret", [None, b"k"],
                         ids=["collocated", "marshalled"])
@settings(max_examples=40, deadline=None)
@given(steps=st.lists(STEP, max_size=20))
def test_debited_view_never_beats_the_nodes_word(auth_secret, steps):
    world = World(auth_secret)
    world.check()
    for step in steps:
        world.apply(*step)
        world.check()
    world.grid.run_for(3 * INTERVAL)
    world.check()
    for node in world.nodes:
        world.full_status_makes_the_offer_exact(node)


def one_node(**grid_kwargs):
    grid = Grid(seed=1, policy="first_fit", lupa_enabled=False,
                update_interval=INTERVAL, **grid_kwargs)
    grid.add_cluster("c0")
    node = grid.add_node("c0", "n0", spec=MachineSpec(mips=1000.0))
    node.workstation.stop()
    return grid, node, grid.clusters["c0"].grm


def test_a_refusals_capacity_lands_in_the_offer():
    grid, node, grm = one_node()
    grid.run_for(10.0)
    # The owner takes 60 % of the CPU; the GRM hears of it only at the
    # next update, so its offer still says the whole CPU is free.
    node.workstation.machine.set_owner_load(0.6, 10.0, False)
    record = grm._nodes["n0"]
    assert grm.trader.offer(record.offer_id).properties["cpu_free"] == 1.0
    grid.submit(ApplicationSpec(name="whole", work_mips=1e5))
    grid.run_for(1.0)
    assert grm.stats.reservations_refused == 1
    offered = grm.trader.offer(record.offer_id).properties
    assert offered["cpu_free"] == pytest.approx(0.4)
    assert offered["cpu_free"] == node.lrm.status()["cpu_free"]
    # The next pass, still before the update, knows better than to ask.
    grid.run_for(25.0)
    assert grm.stats.negotiation_rounds == 1


def test_one_query_and_no_refusal_fill_a_node():
    grid, node, grm = one_node()
    grid.run_for(10.0)
    queries = grm.trader.queries
    quarter = ResourceRequirements(cpu_fraction=0.25)
    job_id = grid.submit(ApplicationSpec(
        name="quarters", tasks=5, work_mips=1e6, requirements=quarter))
    grid.run_for(1.0)
    assert grm.trader.queries == queries + 1
    states = [t.state for t in grid.job(job_id).tasks]
    assert states.count(TaskState.RUNNING) == 4
    assert grm.stats.negotiation_rounds == 4
    assert grm.stats.reservations_refused == 0
    record = grm._nodes["n0"]
    assert grm.trader.offer(record.offer_id).properties["cpu_free"] == 0.0
    assert grm.trader.offer(record.offer_id).properties["grid_tasks"] == 4
