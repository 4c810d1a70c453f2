"""One soft-state liveness rule at both levels of the grid.

A GRM declares a node dead, and a parent GRM demotes a child cluster,
when ``last_seen + stale_after < now`` at a sweep; each sweep acts on its
dead members in registration order, whatever order they last spoke in.
"""

from repro.core.grm import Grm
from repro.core.hierarchy import ParentGrm
from repro.core.protocols import GRM_INTERFACE, LRM_INTERFACE
from repro.obs.journal import EventJournal
from repro.orb.core import Orb
from repro.orb.transport import InProcDomain
from repro.sim.events import EventLoop
from tests.test_core_grm_unit import ScriptedLrm
from tests.test_hierarchy_scaling import FakeChildGrm

#: The GRM's node threshold: 3.5 update intervals of 60 s.  Its sweep
#: runs every STALE_NODE seconds.
STALE_NODE = 60.0 * 3.5
#: The parent's child threshold and sweep period in these tests.
STALE_CLUSTER = 100.0


class NodeLevel:
    """A GRM whose members are scripted LRMs, addressed by name."""

    down_type = "node_down"
    stale_after = STALE_NODE

    def __init__(self, members):
        self.loop = EventLoop()
        domain = InProcDomain()
        self.grm = Grm(self.loop, Orb("grm-orb", domain=domain),
                       cluster="c", update_interval_hint=60.0)
        self.journal = self.grm.journal = EventJournal(clock=self.loop)
        for node in members:
            servant = ScriptedLrm(node)
            ref = Orb(f"{node}-orb", domain=domain).activate(
                servant, LRM_INTERFACE, key=f"{node}/lrm"
            )
            self.grm.register_node(servant.status(), ref.to_string())

    def speak(self, member):
        self.grm.heartbeat(member)

    def live(self):
        return sorted(self.grm._nodes)

    def downs(self):
        return [e.node for e in self.journal.select(type=self.down_type)]


class ClusterLevel:
    """A parent GRM whose members are child clusters, addressed by name."""

    down_type = "cluster_down"
    stale_after = STALE_CLUSTER

    def __init__(self, members):
        self.loop = EventLoop()
        orb = Orb("parent-orb", domain=InProcDomain())
        ior = orb.activate(
            FakeChildGrm(), GRM_INTERFACE, key="child/grm"
        ).to_string()
        self.parent = ParentGrm(self.loop, orb, stale_after=STALE_CLUSTER)
        self.journal = self.parent.journal = EventJournal(clock=self.loop)
        for cluster in members:
            self.parent.register_cluster(self.summary(cluster), ior)

    @staticmethod
    def summary(cluster):
        return {"cluster": cluster, "time": 0.0, "nodes": 1,
                "sharing_nodes": 1, "free_cpu_total": 1.0,
                "free_mem_total_mb": 100.0, "max_node_mips": 1000.0,
                "pending_tasks": 0}

    def speak(self, member):
        self.parent.send_summary(self.summary(member))

    def live(self):
        return sorted(c for c, r in self.parent._children.items() if r.alive)

    def downs(self):
        return [e.attrs["cluster"]
                for e in self.journal.select(type=self.down_type)]


class SweepRule:
    """The two cases, run against one level (a subclass picks it)."""

    level = None

    def test_exactly_stale_after_survives_and_earlier_is_declared(self):
        level = self.level(["edge", "early"])
        s = level.stale_after
        # Sweeps run at s, 2s, 3s; registration was at 0.
        level.loop.run_until(s - 0.5)
        level.speak("early")
        level.loop.run_until(s)
        level.speak("edge")
        level.loop.run_until(2 * s)
        # At the 2s sweep: edge's s + s is not < 2s; early's is.
        assert level.live() == ["edge"]
        assert level.downs() == ["early"]
        level.loop.run_until(3 * s)
        assert level.live() == []
        assert level.downs() == ["early", "edge"]

    def test_one_sweep_declares_in_registration_order(self):
        level = self.level(["a", "b", "c"])
        s = level.stale_after
        # Last words in the order c, a, b, between the sweeps at s and
        # 2s; the 2s sweep finds all three fresh.  A sweep that acted in
        # expiry order would take c first at 3s.
        for offset, member in ((0.5, "c"), (0.6, "a"), (0.7, "b")):
            level.loop.run_until(s + offset * s)
            level.speak(member)
        level.loop.run_until(2 * s)
        assert level.live() == ["a", "b", "c"] and level.downs() == []
        level.loop.run_until(3 * s)
        assert level.live() == []
        assert level.downs() == ["a", "b", "c"]


class TestNodeSweep(SweepRule):
    level = NodeLevel


class TestClusterSweep(SweepRule):
    level = ClusterLevel
