"""Grid facade: assembles Figure 1 on the simulator.

One :class:`Grid` owns the event loop, the in-process ORB domain, and
any number of clusters.  Each cluster gets a Cluster Manager node (GRM +
GUPA + Trader + Naming on its own ORB); each workstation gets an LRM,
an NCC, and — unless dedicated — a LUPA, on its own ORB.  All
component-to-component traffic goes through ORB stubs, so protocol
message counts are measured, not estimated.  The ORBs share one
domain, so calls are dispatched directly and marshal nothing (unless
``auth_secret`` envelopes them); :meth:`Grid.enable_wire_meter` prices
the same traffic in CDR bytes for experiments that report sizes.
"""

from dataclasses import dataclass, field
from typing import Optional

from repro.apps.spec import ApplicationSpec, BSP
from repro.checkpoint.store import MemoryCheckpointStore
from repro.core.asct import Asct
from repro.core.grm import Grm
from repro.core.gupa import Gupa
from repro.core.hierarchy import (
    DEFAULT_SUMMARY_INTERVAL,
    DEFAULT_SUMMARY_STALE_FACTOR,
    ClusterUplink,
    ParentGrm,
)
from repro.core.lrm import Lrm
from repro.core.lupa import Lupa
from repro.core.ncc import DEFAULT_POLICY, NodeControlCenter, SharingPolicy
from repro.core.protocols import (
    ASCT_INTERFACE,
    GRM_INTERFACE,
    GUPA_INTERFACE,
    LRM_INTERFACE,
    PARENT_GRM_INTERFACE,
)
from repro.core.scheduler import POLICIES, SchedulingPolicy
from repro.orb.core import Orb, WireMeter
from repro.orb.naming import NamingService, NAMING_INTERFACE
from repro.orb.transport import InProcDomain
from repro.sim.clock import SECONDS_PER_DAY
from repro.sim.events import EventLoop
from repro.sim.machine import MachineSpec
from repro.sim.network import NetworkTopology
from repro.sim.rng import SeededStreams
from repro.sim.usage import ALWAYS_IDLE, UsageProfile
from repro.sim.workstation import Workstation

#: Dedicated grid nodes share everything and never vacate.
DEDICATED_POLICY = SharingPolicy(
    cpu_cap_idle=1.0, cpu_cap_active=1.0, vacate_on_owner_return=False
)

DEFAULT_LUPA_UPLOAD_INTERVAL = SECONDS_PER_DAY


@dataclass
class NodeHandle:
    """Everything attached to one grid node."""

    name: str
    cluster: str
    workstation: Workstation
    lrm: Lrm
    ncc: NodeControlCenter
    orb: Orb
    lrm_ior: str
    lupa: Optional[Lupa] = None
    dedicated: bool = False


@dataclass
class ClusterHandle:
    """Everything attached to one cluster's manager node."""

    name: str
    orb: Orb
    grm: Grm
    gupa: Gupa
    naming: NamingService
    network: NetworkTopology
    grm_ior: str
    gupa_ior: str
    nodes: dict = field(default_factory=dict)
    checkpoint_store: MemoryCheckpointStore = field(
        default_factory=MemoryCheckpointStore
    )


class Grid:
    """A complete InteGrade grid on simulated time."""

    def __init__(
        self,
        seed: int = 0,
        policy: str = "pattern_aware",
        update_interval: float = 60.0,
        schedule_interval: float = 30.0,
        lupa_enabled: bool = True,
        lupa_min_history_days: int = 7,
        lupa_upload_interval: float = DEFAULT_LUPA_UPLOAD_INTERVAL,
        holidays: Optional[set] = None,
        programs=None,
        auth_secret: Optional[bytes] = None,
        full_refresh_every: int = 10,
        summary_interval: float = DEFAULT_SUMMARY_INTERVAL,
    ):
        self.loop = EventLoop()
        self.streams = SeededStreams(seed)
        self.domain = InProcDomain()
        self.clusters: dict[str, ClusterHandle] = {}
        self.ascts: list[Asct] = []
        self.policy_name = policy
        self.update_interval = update_interval
        self.schedule_interval = schedule_interval
        self.lupa_enabled = lupa_enabled
        self.lupa_min_history_days = lupa_min_history_days
        self.lupa_upload_interval = lupa_upload_interval
        self.holidays = holidays if holidays is not None else set()
        #: The Information Update Protocol's two bounds: a status that
        #: did not change still travels every ``full_refresh_every``-th
        #: node update, and every cluster sends its parent one summary
        #: per ``summary_interval``.
        self.full_refresh_every = full_refresh_every
        self.summary_interval = summary_interval
        from repro.apps.registry import DEFAULT_REGISTRY
        self.programs = programs if programs is not None else DEFAULT_REGISTRY
        # Optional cluster-membership authentication: with a secret set,
        # every grid component signs its requests and every component
        # refuses unsigned ones — a rogue ORB in the same process cannot
        # submit, register, or evict (Section 3's authentication point).
        self._credentials = None
        self._keyring = None
        if auth_secret is not None:
            from repro.security.auth import Credentials, KeyRing
            self._keyring = KeyRing()
            self._keyring.add("integrade", auth_secret)
            self._credentials = Credentials("integrade", auth_secret)
        self._coordinators: dict[str, object] = {}
        self._job_cluster: dict[str, str] = {}
        #: Observability: None until enable_metrics()/enable_tracing()/
        #: enable_journal()/enable_wire_meter().
        self.metrics = None
        self.tracer = None
        self.journal = None
        self.wire_meter = None
        self._orbs: list[Orb] = []
        #: ParentGrms built by connect_clusters_to_parent/build_hierarchy
        #: (for metrics/journal wiring), keyed by parent name.
        self._parents: dict[str, object] = {}

    def _make_orb(self, name: str) -> Orb:
        """All grid ORBs share the membership credential (if any)."""
        orb = Orb(
            name,
            domain=self.domain,
            credentials=self._credentials,
            keyring=self._keyring,
            require_auth=self._keyring is not None,
        )
        self._orbs.append(orb)
        if self.wire_meter is not None:
            orb.add_client_interceptor(self.wire_meter)
        if self.tracer is not None:
            orb.set_tracer(self.tracer)
        if self.metrics is not None:
            orb.to_metrics(self.metrics)
        return orb

    # -- assembly -------------------------------------------------------------------

    def _make_policy(self) -> SchedulingPolicy:
        try:
            policy_type = type(POLICIES[self.policy_name])
        except KeyError:
            raise ValueError(
                f"unknown policy {self.policy_name!r}; "
                f"choose from {sorted(POLICIES)}"
            ) from None
        if self.policy_name == "random":
            return policy_type(rng=self.streams.stream("policy.random"))
        return policy_type()

    def add_cluster(
        self,
        name: str,
        network: Optional[NetworkTopology] = None,
        policy: Optional[SchedulingPolicy] = None,
    ) -> ClusterHandle:
        """Create a cluster with its manager node components."""
        if name in self.clusters:
            raise ValueError(f"cluster {name!r} already exists")
        if network is None:
            network = NetworkTopology()
            network.add_segment(f"{name}-lan", bandwidth_mbps=100.0)
        orb = self._make_orb(f"{name}-manager")
        gupa = Gupa()
        store = MemoryCheckpointStore()
        grm = Grm(
            self.loop,
            orb,
            cluster=name,
            policy=policy if policy is not None else self._make_policy(),
            gupa=gupa,
            network=network,
            checkpoint_store=store,
            schedule_interval=self.schedule_interval,
            update_interval_hint=self.update_interval,
        )
        naming = NamingService()
        grm_ior = orb.activate(grm, GRM_INTERFACE, key=f"{name}/grm").to_string()
        gupa_ior = orb.activate(gupa, GUPA_INTERFACE, key=f"{name}/gupa").to_string()
        orb.activate(naming, NAMING_INTERFACE, key=f"{name}/naming")
        naming.bind(f"{name}/grm", grm_ior)
        naming.bind(f"{name}/gupa", gupa_ior)
        handle = ClusterHandle(
            name, orb, grm, gupa, naming, network, grm_ior, gupa_ior,
            checkpoint_store=store,
        )
        self.clusters[name] = handle
        if self.metrics is not None:
            grm.bind_metrics(self.metrics)
            store.to_metrics(self.metrics, prefix=f"checkpoint.{name}")
        if self.tracer is not None:
            grm.set_tracer(self.tracer)
        return handle

    def add_node(
        self,
        cluster: str,
        name: str,
        spec: Optional[MachineSpec] = None,
        profile: UsageProfile = ALWAYS_IDLE,
        sharing: SharingPolicy = DEFAULT_POLICY,
        dedicated: bool = False,
        segment: Optional[str] = None,
        scheduling: str = "owner_first",
    ) -> NodeHandle:
        """Add a resource-provider (or dedicated) node to a cluster."""
        handle = self._new_node_cluster(cluster, name)
        if dedicated:
            profile = ALWAYS_IDLE
            sharing = DEDICATED_POLICY
        workstation = Workstation(
            self.loop,
            name,
            spec=spec,
            profile=profile,
            rng=self.streams.stream(f"owner.{name}"),
            holidays=self.holidays,
            scheduling=scheduling,
        )
        return self._wire_node(handle, workstation, sharing, segment,
                               dedicated)

    def add_trace_node(
        self,
        cluster: str,
        name: str,
        events: list,
        spec: Optional[MachineSpec] = None,
        sharing: SharingPolicy = DEFAULT_POLICY,
        segment: Optional[str] = None,
        loop_trace: bool = True,
    ) -> NodeHandle:
        """Add a node whose owner replays a recorded activity trace.

        Identical wiring to :meth:`add_node` (LRM, NCC, LUPA, ORB), but
        the owner model is a :class:`~repro.sim.trace.TraceWorkstation`
        — so experiments can run against captured traces instead of the
        synthetic Markov owners.
        """
        from repro.sim.trace import TraceWorkstation

        handle = self._new_node_cluster(cluster, name)
        workstation = TraceWorkstation(
            self.loop, name, events, spec=spec, loop_trace=loop_trace
        )
        return self._wire_node(handle, workstation, sharing, segment,
                               dedicated=False)

    def _new_node_cluster(self, cluster: str, name: str) -> ClusterHandle:
        """The cluster a new node joins, checked before anything is built
        for it (an owner model schedules events as it is created)."""
        handle = self._cluster(cluster)
        if name in handle.nodes:
            raise ValueError(f"node {name!r} already exists in {cluster!r}")
        return handle

    def _wire_node(
        self,
        handle: ClusterHandle,
        workstation: Workstation,
        sharing: SharingPolicy,
        segment: Optional[str],
        dedicated: bool,
    ) -> NodeHandle:
        """Everything a node has besides its owner model: NCC, ORB, LRM
        (registered with the cluster's GRM), LUPA unless dedicated, a
        network segment."""
        name = workstation.name
        ncc = NodeControlCenter(self.loop.clock, sharing)
        orb = self._make_orb(f"{name}-orb")
        lrm = Lrm(
            self.loop,
            workstation,
            ncc,
            checkpoint_store=handle.checkpoint_store,
            update_interval=self.update_interval,
            full_refresh_every=self.full_refresh_every,
        )
        lrm_ref = orb.activate(lrm, LRM_INTERFACE, key=f"{name}/lrm")
        grm_stub = orb.stub(handle.grm_ior, GRM_INTERFACE)
        lrm.attach_grm(grm_stub, lrm_ref.to_string())

        lupa = None
        if self.lupa_enabled and not dedicated:
            machine = workstation.machine
            lupa = Lupa(
                self.loop,
                name,
                probe=lambda: 1.0 if (
                    machine.keyboard_active or machine.owner_cpu >= 0.1
                ) else 0.0,
                min_history_days=self.lupa_min_history_days,
                seed=self.streams.master_seed,
            )
            gupa_stub = orb.stub(handle.gupa_ior, GUPA_INTERFACE)

            def upload_pattern():
                pattern = lupa.pattern()
                if pattern is not None:
                    gupa_stub.upload_pattern(name, pattern)

            self.loop.every(self.lupa_upload_interval, upload_pattern)

        segment_name = segment if segment is not None \
            else f"{handle.name}-lan"
        if segment_name not in handle.network.segments:
            handle.network.add_segment(segment_name)
        handle.network.place(name, segment_name)

        node = NodeHandle(
            name, handle.name, workstation, lrm, ncc, orb,
            lrm_ref.to_string(), lupa, dedicated,
        )
        handle.nodes[name] = node
        self._bind_node_metrics(node)
        self._bind_node_journal(node)
        return node

    def remove_node(self, cluster: str, name: str) -> None:
        """A node leaves the grid: evict its work, withdraw its offer.

        The paper's environment is dynamic — machines come and go.  Any
        running tasks are evicted (and requeued by the GRM); the
        workstation's owner model and all LRM timers stop.
        """
        handle = self._cluster(cluster)
        node = handle.nodes.pop(name, None)
        if node is None:
            raise KeyError(f"no node {name!r} in cluster {cluster!r}")
        journal = self.journal
        down = None
        if journal is not None and journal.active:
            down = journal.record("node_down", node=name, reason="removed")
        # Evictions triggered by the detach are caused by this departure.
        handle.grm._evict_cause = down.seq if down is not None else None
        try:
            node.lrm.detach()
        finally:
            handle.grm._evict_cause = None
        if node.lupa is not None:
            node.lupa.stop()
        node.workstation.stop()
        handle.grm.unregister_node(name)
        handle.gupa.forget(name)
        node.orb.shutdown()

    def crash_node(self, cluster: str, name: str) -> NodeHandle:
        """A node dies without notice: the node-crash fault.

        Its LRM stops computing and reporting (:meth:`Lrm.crash`) and
        its owner model stops; nobody is told.  The node stays on the
        roster, so the GRM learns of the death the way the paper says it
        must — the status going stale — and requeues the node's tasks
        from the cluster checkpoint repository.  This is the fault
        ROADMAP item 4's deterministic fault plan will inject; until
        then it is what the failure tests call instead of reaching into
        the LRM's timers.
        """
        node = self._cluster(cluster).nodes[name]
        node.lrm.crash()
        node.workstation.stop()
        return node

    def _make_parent(self, parent_name: str):
        """Create a ParentGrm on its own ORB.

        The servant is activated under both the ParentGrm interface (for
        children) and the GRM facade interface (so a higher-level parent
        can treat it as a cluster).  Returns ``(parent, parent_ior,
        facade_ior)``.
        """
        if parent_name in self._parents:
            raise ValueError(f"parent {parent_name!r} already exists")
        if parent_name in self.clusters:
            raise ValueError(
                f"{parent_name!r} is already a cluster name"
            )
        orb = self._make_orb(f"{parent_name}-orb")
        parent = ParentGrm(
            self.loop, orb, name=parent_name,
            stale_after=self.summary_interval * DEFAULT_SUMMARY_STALE_FACTOR,
        )
        parent_ior = orb.activate(
            parent, PARENT_GRM_INTERFACE, key=f"{parent_name}/grm"
        ).to_string()
        facade_ior = orb.activate(
            parent, GRM_INTERFACE, key=f"{parent_name}/grm-facade"
        ).to_string()
        self._parents[parent_name] = parent
        if self.metrics is not None:
            parent.bind_metrics(self.metrics)
        if self.journal is not None:
            parent.set_journal(self.journal)
        return parent, parent_ior, facade_ior

    def _make_uplink(self, handle: ClusterHandle, parent_ior: str):
        """Connect one cluster's GRM to a parent."""
        stub = handle.orb.stub(parent_ior, PARENT_GRM_INTERFACE)
        return ClusterUplink(
            self.loop, handle.grm, stub, handle.grm_ior,
            interval=self.summary_interval,
        )

    def connect_clusters_to_parent(self, parent_name: str = "parent"):
        """Build a two-level hierarchy over all current clusters."""
        parent, parent_ior, _facade = self._make_parent(parent_name)
        uplinks = [
            self._make_uplink(handle, parent_ior)
            for handle in self.clusters.values()
        ]
        return parent, uplinks

    def build_hierarchy(self, tree: dict):
        """Build an arbitrary-depth hierarchy from a nested description.

        ``tree`` is a single-key dict mapping a parent name to its
        children; each child is either an existing cluster's name or a
        nested single-key dict describing a sub-parent::

            parents, uplinks = grid.build_hierarchy(
                {"root": ["hq", {"campus": ["lab-a", "lab-b"]}]}
            )

        Sub-parents join their parent through the GRM facade (they look
        like one big cluster from above).  Returns ``(parents, uplinks)``
        where ``parents`` maps each parent name to its
        :class:`ParentGrm`.
        """
        if len(tree) != 1:
            raise ValueError(
                f"tree must have exactly one root, got {sorted(tree)}"
            )
        parents: dict = {}
        uplinks: list = []

        def build(name: str, children: list):
            parent, parent_ior, facade_ior = self._make_parent(name)
            parents[name] = parent
            for child in children:
                if isinstance(child, dict):
                    if len(child) != 1:
                        raise ValueError(
                            f"sub-parent nodes take exactly one name, "
                            f"got {sorted(child)}"
                        )
                    (sub_name, sub_children), = child.items()
                    sub, sub_facade_ior = build(sub_name, sub_children)
                    stub = sub._orb.stub(parent_ior, PARENT_GRM_INTERFACE)
                    sub.attach_parent(
                        stub, sub_facade_ior, interval=self.summary_interval
                    )
                else:
                    uplinks.append(
                        self._make_uplink(self._cluster(child), parent_ior)
                    )
            return parent, facade_ior

        (root_name, root_children), = tree.items()
        build(root_name, root_children)
        return parents, uplinks

    # -- submission -----------------------------------------------------------------

    def make_asct(self, cluster: str, user: str = "user") -> Asct:
        """Create a user node's submission tool against a cluster's GRM."""
        handle = self._cluster(cluster)
        orb = self._make_orb(f"{user}-asct{len(self.ascts)}")
        grm_stub = orb.stub(handle.grm_ior, GRM_INTERFACE)
        asct = Asct(grm_stub)
        ref = orb.activate(asct, ASCT_INTERFACE)
        asct.ior = ref.to_string()
        self.ascts.append(asct)
        return asct

    def submit(self, spec: ApplicationSpec, cluster: Optional[str] = None) -> str:
        """Submit an application; BSP jobs get a superstep coordinator."""
        if cluster is None:
            cluster = next(iter(self.clusters))
        handle = self._cluster(cluster)
        job_id = handle.grm.submit(spec.to_dict())
        self._job_cluster[job_id] = cluster
        if spec.kind == BSP:
            from repro.bsp.gridexec import BspGridCoordinator

            coordinator = BspGridCoordinator(
                self.loop, handle.grm, handle.grm.job(job_id),
                checkpoint_store=handle.checkpoint_store,
                registry=self.programs,
            )
            handle.grm.register_coordinator(job_id, coordinator)
            self._coordinators[job_id] = coordinator
            if self.journal is not None:
                coordinator.set_journal(self.journal)
            if self.metrics is not None:
                self.metrics.view(
                    f"bsp.{job_id}.stragglers",
                    lambda c=coordinator: len(c.recovery.stragglers()),
                )
        return job_id

    def coordinator(self, job_id: str):
        return self._coordinators.get(job_id)

    def job(self, job_id: str):
        """The Job object for a submitted id (however it was submitted)."""
        cluster = self._job_cluster.get(job_id)
        if cluster is not None:
            return self.clusters[cluster].grm.job(job_id)
        for handle in self.clusters.values():   # ASCT-submitted jobs
            try:
                return handle.grm.job(job_id)
            except KeyError:
                continue
        raise KeyError(f"unknown job {job_id!r}")

    # -- running ----------------------------------------------------------------------

    def run_for(self, seconds: float) -> None:
        self.loop.run_for(seconds)

    def run_until(self, when: float) -> None:
        self.loop.run_until(when)

    def wait_for_job(
        self, job_id: str, max_seconds: float = 30 * SECONDS_PER_DAY,
        step: float = 300.0,
    ) -> bool:
        """Advance simulated time until the job finishes (or give up)."""
        job = self.job(job_id)
        deadline = self.loop.now + max_seconds
        while not job.done and self.loop.now < deadline:
            self.loop.run_for(step)
        return job.done

    # -- observability -----------------------------------------------------------------

    def enable_metrics(self):
        """Turn on the grid-wide metrics registry (idempotent).

        Always-on-cheap: every pre-existing counter becomes a pull-view,
        read only when a snapshot is taken; the only new recording work
        is the GRM ranking and Trader query latency histograms.  Returns
        the :class:`~repro.obs.MetricsRegistry`; components added later
        are wired automatically.
        """
        if self.metrics is not None:
            return self.metrics
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry(clock=self.loop.clock)
        self.metrics = registry
        self.loop.to_metrics(registry)
        registry.view("orb.totals", self.protocol_stats)
        for orb in self._orbs:
            orb.to_metrics(registry)
        for handle in self.clusters.values():
            handle.grm.bind_metrics(registry)
            handle.checkpoint_store.to_metrics(
                registry, prefix=f"checkpoint.{handle.name}"
            )
            for node in handle.nodes.values():
                self._bind_node_metrics(node)
        for parent in self._parents.values():
            parent.bind_metrics(registry)
        for field_name in ("completed_count", "evicted_count",
                           "checkpoints_taken", "checkpoints_skipped",
                           "refused_reservations",
                           "accepted_reservations", "updates_sent",
                           "updates_full", "heartbeats_sent",
                           "sandbox_violations"):
            registry.view(
                f"lrm.total.{field_name}",
                lambda f=field_name: sum(
                    getattr(n.lrm, f)
                    for h in self.clusters.values()
                    for n in h.nodes.values()
                ),
            )
        # Late-binding observability layers publish their own health views.
        if self.journal is not None:
            self.journal.to_metrics(registry)
        if self.tracer is not None:
            self.tracer.to_metrics(registry)
        for job_id, coordinator in self._coordinators.items():
            registry.view(
                f"bsp.{job_id}.stragglers",
                lambda c=coordinator: len(c.recovery.stragglers()),
            )
        return registry

    def _bind_node_metrics(self, node: NodeHandle) -> None:
        if self.metrics is None:
            return
        node.lrm.to_metrics(self.metrics)
        if node.lupa is not None:
            node.lupa.to_metrics(self.metrics)

    def enable_tracing(self):
        """Turn on span tracing across every ORB and GRM (idempotent).

        Returns the grid's :class:`~repro.obs.Tracer`.  While enabled,
        each ORB invocation hands its ``(trace_id, span_id)`` to the
        server (as an argument of the direct dispatch, or in a
        request-header extension when the request marshals), so a
        submission's spans connect across the ASCT, GRM, Trader, and
        LRM hops — on the same code path an untraced run takes.  Turn
        it back off with ``grid.tracer.disable()``.
        """
        if self.tracer is None:
            from repro.obs.trace import Tracer
            self.tracer = Tracer(clock=self.loop.clock)
            for orb in self._orbs:
                orb.set_tracer(self.tracer)
            for handle in self.clusters.values():
                handle.grm.set_tracer(self.tracer)
            if self.metrics is not None:
                self.tracer.to_metrics(self.metrics)
        self.tracer.enable()
        return self.tracer

    def enable_wire_meter(self):
        """Price every request the grid's ORBs send in CDR bytes (idempotent).

        Returns the grid's :class:`~repro.orb.WireMeter`, attached as a
        client interceptor to every ORB made so far and from now on.
        Whoever wants message sizes pays for the encoding; an unmetered
        grid marshals nothing.
        """
        if self.wire_meter is None:
            self.wire_meter = WireMeter()
            for orb in self._orbs:
                orb.add_client_interceptor(self.wire_meter)
        return self.wire_meter

    def enable_journal(self, max_events: int = 200_000):
        """Turn on the structured event journal (idempotent).

        Every GRM, LRM, reservation ledger, and BSP coordinator gets the
        same :class:`~repro.obs.EventJournal`; from then on node
        arrivals/deaths, task placements/evictions/completions,
        checkpoint saves/restores, reservation grants/violations, BSP
        supersteps, and dropped status updates are recorded with causal
        links, stamped in simulated time.  Like metrics and tracing, the
        journal records — it never schedules events or draws randomness,
        so an instrumented run replays the uninstrumented one exactly.
        Nodes already registered are journalled retroactively as
        ``node_up`` at the current sim time so forensics always has a
        roster.  Turn it back off with ``grid.journal.disable()``.
        """
        if self.journal is not None:
            self.journal.enable()
            return self.journal
        from repro.obs.journal import EventJournal
        journal = EventJournal(clock=self.loop.clock, max_events=max_events)
        self.journal = journal
        for handle in self.clusters.values():
            handle.grm.set_journal(journal)
            for node in handle.nodes.values():
                node.lrm.set_journal(journal)
            # Roster catch-up: nodes that registered before the journal
            # existed still appear, so chains can name them.
            for name, record in sorted(handle.grm._nodes.items()):
                if record.alive:
                    journal.record(
                        "node_up", node=name, cluster=handle.name,
                        mips=record.last_status.get("mips"),
                        retroactive=True,
                    )
        for coordinator in self._coordinators.values():
            coordinator.set_journal(journal)
        for parent in self._parents.values():
            parent.set_journal(journal)
            # Roster catch-up for clusters, mirroring the node roster.
            for cluster in parent.clusters:
                record = parent._children[cluster]
                if record.alive:
                    journal.record(
                        "cluster_up", cluster=cluster, parent=parent.name,
                        nodes=record.summary.get("nodes"),
                        retroactive=True,
                    )
        if self.metrics is not None:
            journal.to_metrics(self.metrics)
        return journal

    def _bind_node_journal(self, node: NodeHandle) -> None:
        if self.journal is not None:
            node.lrm.set_journal(self.journal)

    def health_report(self, rules=None, top: int = 5) -> dict:
        """Forensics + alert postmortem from the live journal/registry."""
        from repro.obs.health import grid_health_report
        return grid_health_report(self, rules=rules, top=top)

    def metrics_snapshot(self) -> dict:
        """The registry snapshot; enables metrics on first use."""
        return self.enable_metrics().snapshot()

    # -- metrics -----------------------------------------------------------------------

    def protocol_stats(self) -> dict:
        """Aggregated ORB traffic across every node and manager.

        ``bytes_*`` count bytes actually marshalled: 0 on a default grid
        (collocated calls dispatch directly), the enveloped CDR volume
        with ``auth_secret``.  See :meth:`enable_wire_meter` for modelled
        message sizes."""
        totals = {
            "requests_sent": 0, "replies_received": 0,
            "requests_received": 0, "bytes_sent": 0, "bytes_received": 0,
            "requests_handled": 0,
        }
        orbs = []
        for handle in self.clusters.values():
            orbs.append(handle.orb)
            orbs.extend(n.orb for n in handle.nodes.values())
        for orb in orbs:
            for key, value in orb.stats().items():
                totals[key] += value
        return totals

    def _cluster(self, name: str) -> ClusterHandle:
        handle = self.clusters.get(name)
        if handle is None:
            raise KeyError(f"unknown cluster {name!r}")
        return handle
