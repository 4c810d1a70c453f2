"""The Information Update Protocol with heartbeats.

Every interval still sends something, so liveness is what it always
was; what travels is a status only when the node's status changed since
the last one sent (or on every ``full_refresh_every``-th send).  Two
things make that safe and both are tested here over a real LRM, ORB and
GRM, by example and over generated interleavings: a heartbeat never
rides over a change, and a lost status leaves the GRM wrong for a
bounded number of intervals.
"""

import math

from hypothesis import given, settings, strategies as st

from repro import ApplicationSpec, Grid
from repro.core.ncc import (
    BlackoutWindow,
    DEFAULT_POLICY,
    SharingPolicy,
    VACATE_POLICY,
    thirty_percent_policy,
)
from repro.sim.machine import MachineSpec
from tests.test_core_lrm import owner_flips

INTERVAL = 60.0

POLICIES = {
    "default": DEFAULT_POLICY,
    "vacate": VACATE_POLICY,
    "thirty": thirty_percent_policy(256.0),
    # Edges at 00:30 and 01:00 fall inside every generated run.
    "blackout": SharingPolicy(blackouts=(BlackoutWindow(0.5, 1.0),)),
}


def one_node_grid(policy=DEFAULT_POLICY, **kwargs):
    grid = Grid(seed=3, policy="first_fit", lupa_enabled=False,
                update_interval=INTERVAL, **kwargs)
    grid.add_cluster("c0")
    node = grid.add_node("c0", "n0", spec=MachineSpec(mips=1000.0, ram_mb=256),
                         sharing=policy)
    node.workstation.stop()          # the test scripts the owner
    return grid, node


def sans_time(status: dict) -> dict:
    return {key: value for key, value in status.items() if key != "time"}


MUTATION = st.one_of(
    st.tuples(st.just("load"), st.floats(0.0, 1.0)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0)),
    st.tuples(st.just("submit"), st.floats(1e3, 5e5)),
    st.tuples(st.just("reserve"), st.floats(0.05, 0.5)),
    st.tuples(st.just("start"), st.floats(1e3, 5e5)),
    st.tuples(st.just("cancel"), st.just(0.0)),
    st.tuples(st.just("wait"), st.just(0.0)),
)


class Script:
    """Applies generated mutations to a one-node grid whose owner the
    test scripts: the owner's presence and the leases not yet started."""

    def __init__(self, grid, node):
        self.grid, self.node = grid, node
        self.present, self.leases = False, []

    def apply(self, kind, x):
        grid, node, lrm, leases = self.grid, self.node, self.node.lrm, \
            self.leases
        if kind == "load":
            node.workstation.machine.set_owner_load(x, 10.0, self.present)
        elif kind == "flip":
            self.present = not self.present
            owner_flips(node.workstation, self.present, x)
        elif kind == "submit":
            grid.submit(ApplicationSpec(
                name="j", work_mips=x,
                metadata={"checkpoint_interval_s": 45.0}))
        elif kind == "reserve":
            name = f"lease{len(leases)}"
            if lrm.request_reservation({
                "task_id": name, "cpu_fraction": x, "mem_mb": 8.0,
                "disk_mb": 1.0, "lease_seconds": 500.0,
            })["accepted"]:
                leases.append(name)
        elif kind == "start" and leases:
            # A lease confirmed later moves grid_tasks and nothing on
            # the machine.
            lrm.start_task({
                "task_id": leases.pop(), "job_id": "direct",
                "work_mips": x, "initial_progress_mips": 0.0,
                "checkpoint_interval_s": 0.0,
            })
        elif kind == "cancel" and leases:
            lrm.cancel_reservation(leases.pop())


class TestHeartbeatNeverRidesOverAChange:
    @settings(max_examples=60, deadline=None)
    @given(
        policy=st.sampled_from(sorted(POLICIES)),
        steps=st.lists(
            st.tuples(st.floats(0.5, 400.0), MUTATION), max_size=25),
    )
    def test_grm_view_equals_lrm_truth_at_every_message(self, policy, steps):
        grid, node = one_node_grid(POLICIES[policy])
        grm, lrm = grid.clusters["c0"].grm, node.lrm
        seen = {"heartbeat": 0, "send_update": 0}
        wrong = []

        def check(key, operation, args):
            # Runs before the servant: for a heartbeat, what the GRM holds
            # now is what it will hold after.
            if operation.name == "heartbeat":
                held = grm._nodes["n0"].last_status
            elif operation.name == "send_update":
                held = args[0]
            else:
                return
            seen[operation.name] += 1
            if sans_time(held) != sans_time(lrm.status()):
                wrong.append((grid.loop.now, operation.name, held))

        grid.clusters["c0"].orb.add_server_interceptor(check)
        script = Script(grid, node)
        for gap, (kind, x) in steps:
            grid.run_for(gap)
            script.apply(kind, x)
        grid.run_for(2 * INTERVAL)
        assert wrong == []
        sends = math.floor(grid.loop.now / INTERVAL)
        assert lrm.updates_sent == sends == sum(seen.values())
        assert grm.stats.updates_received == sends
        assert grm.stats.heartbeats_received == seen["heartbeat"] \
            == lrm.heartbeats_sent

    def test_an_unchanged_hour_is_heartbeats_and_refreshes(self):
        grid, node = one_node_grid()
        grm = grid.clusters["c0"].grm
        modifies = []
        modify = grm.trader.modify
        grm.trader.modify = lambda *a, **k: (
            modifies.append(grid.loop.now), modify(*a, **k))[1]
        grid.run_for(3600.0)
        # 60 sends; every 10th is the unconditional full refresh.
        assert modifies == [600.0 * k for k in range(1, 7)]
        assert grm.stats.updates_received == 60
        assert grm.stats.heartbeats_received == 54
        record = grm._nodes["n0"]
        # NodeStatus.time is when the values were last sent in full;
        # freshness is last_seen.
        assert record.last_status["time"] == 3600.0
        grid.run_for(300.0)
        assert record.last_status["time"] == 3600.0
        assert record.last_seen == 3900.0


class TestLostUpdate:
    @settings(max_examples=60, deadline=None)
    @given(
        policy=st.sampled_from(sorted(POLICIES)),
        refresh=st.integers(1, 6),
        intervals=st.lists(
            st.tuples(st.lists(MUTATION, max_size=2), st.booleans()),
            max_size=25),
    )
    def test_grm_view_is_right_once_a_refresh_period_passes_without_loss(
            self, policy, refresh, intervals):
        """Whatever happens on the node and whichever messages are lost,
        after ``full_refresh_every`` intervals in a row without a loss
        the GRM holds the node's status, and the Trader's offer is what
        the GRM holds at every instant."""
        grid, node = one_node_grid(POLICIES[policy],
                                   full_refresh_every=refresh)
        grm, lrm = grid.clusters["c0"].grm, node.lrm
        delivered, wrong = [], []
        lose = False

        def lossy(key, operation, args):
            if operation.name not in ("send_update", "heartbeat"):
                return
            delivered.append(not lose)
            if lose:
                raise ConnectionError("lost on the wire")
            # Runs before the servant: what the GRM will hold after it.
            held = args[0] if operation.name == "send_update" \
                else grm._nodes["n0"].last_status
            if all(delivered[-refresh:]) \
                    and sans_time(held) != sans_time(lrm.status()):
                wrong.append((grid.loop.now, operation.name, held))

        grid.clusters["c0"].orb.add_server_interceptor(lossy)
        script = Script(grid, node)
        for k, (mutations, drop) in enumerate(intervals):
            for kind, x in mutations:
                grid.run_for(INTERVAL / 3)
                script.apply(kind, x)
            # Never two losses in a row: three silent intervals and the
            # GRM would, rightly, declare the node dead.
            lose = drop and delivered[-1:] != [False]
            grid.run_until((k + 1) * INTERVAL)
            assert len(delivered) == k + 1
            record = grm._nodes["n0"]
            assert grm.trader.offer(record.offer_id).properties \
                == record.last_status
        assert wrong == []
        assert grm.stats.nodes_declared_dead == 0
        assert lrm.updates_sent == len(intervals)
        assert grm.stats.updates_received == sum(delivered)

    def test_grm_is_wrong_for_at_most_full_refresh_every_intervals(self):
        refresh = 5
        grid, node = one_node_grid(full_refresh_every=refresh)
        grm, lrm = grid.clusters["c0"].grm, node.lrm
        dropped = []

        def lose_the_first_status(key, operation, args):
            if operation.name == "send_update" and not dropped:
                dropped.append(grid.loop.now)
                raise ConnectionError("lost on the wire")

        grid.clusters["c0"].orb.add_server_interceptor(lose_the_first_status)
        grid.run_until(90.0)
        node.workstation.machine.set_owner_load(0.6, 10.0, True)
        grid.run_until(2 * INTERVAL)
        assert dropped == [2 * INTERVAL]         # the change's own status
        held = lambda: sans_time(grm._nodes["n0"].last_status)
        truth = sans_time(lrm.status())
        assert truth["cpu_free"] == 0.4
        # Nothing changes again, so heartbeats follow — each one refreshing
        # a view that is wrong — until the refresh-th send after the loss.
        for k in range(1, refresh):
            grid.run_until((2 + k) * INTERVAL)
            assert held() != truth and held()["cpu_free"] == 1.0
        grid.run_until((2 + refresh) * INTERVAL)
        assert held() == truth
        assert grm.stats.nodes_declared_dead == 0
        assert lrm.updates_sent == 2 + refresh
        assert grm.stats.updates_received == 1 + refresh   # all but the lost
        assert grm.stats.heartbeats_received == 1 + refresh - 1
