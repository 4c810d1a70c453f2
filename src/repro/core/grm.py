"""Global Resource Manager (GRM).

One per cluster.  Stores the LRMs' periodic status reports in a Trading
service (as the prototype did with the JacORB Trader), selects candidate
nodes for submitted applications, and drives the Resource Reservation
and Execution Protocol: "the GRM uses its local information about the
cluster state as a hint ... after that, the GRM engages in a direct
negotiation with the selected nodes" (Section 4).
"""

import itertools
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Optional

from repro.apps.job import Job, JobState, Task, TaskState
from repro.apps.spec import ApplicationSpec, BSP
from repro.bsp.gridexec import BspGridCoordinator
from repro.checkpoint.store import MemoryCheckpointStore
from repro.core.gupa import Gupa
from repro.core.protocols import ASCT_INTERFACE, LRM_INTERFACE
from repro.core.scheduler import (
    FirstFitPolicy,
    ScheduleContext,
    SchedulingPolicy,
    plan_virtual_topology,
)
from repro.orb.core import Orb
from repro.orb.exceptions import OrbError
from repro.orb.trading import TradingService, UnknownOffer
from repro.sim.events import EventLoop
from repro.sim.network import NetworkTopology

DEFAULT_SCHEDULE_INTERVAL = 30.0
DEFAULT_RESERVATION_LEASE = 120.0
DEFAULT_MAX_NEGOTIATIONS = 8
DEFAULT_STALE_FACTOR = 3.5


def _is_gang(spec: ApplicationSpec) -> bool:
    """A job whose tasks are placed together or not at all."""
    return spec.kind == BSP or spec.topology is not None


@dataclass
class NodeRecord:
    """Everything the GRM tracks about one registered node.

    ``last_status`` is the GRM's view of the node, and its Trader offer
    holds the same: ``baseline`` — the last status received, lowered by
    any refusal since — minus the ``debits``, the CPU share and memory
    of each task the GRM launched there since.  The next status replaces
    all of it; a task leaving the node takes its own debit with it.  The
    view is therefore never more optimistic than the node's last word.
    """

    node: str
    lrm_ior: str
    lrm_stub: object
    offer_id: str
    last_status: dict
    last_seen: float
    baseline: dict = None
    #: task_id -> (cpu_fraction, mem_mb), in launch order.
    debits: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.baseline is None:
            self.baseline = self.last_status

    def fits(self, reqs) -> bool:
        """Does the view still have room for one task of ``reqs``?"""
        view = self.last_status
        return view["cpu_free"] >= reqs.cpu_fraction \
            and view["mem_free_mb"] >= reqs.mem_mb


@dataclass
class CandidateView:
    """One job's candidates in one scheduling pass: a single Trader
    query, ranked once per distinct ``remaining_mips`` its tasks need
    (tasks of one job usually need the same, so usually once)."""

    offers: list
    ctx: ScheduleContext
    order: Optional[list] = None


@dataclass
class GrmStats:
    """Counters the experiments report.

    The attributes are the storage — hot paths bump them as plain ints,
    exactly as before the metrics registry existed.  :meth:`to_metrics`
    publishes every field as a registry view, so the registry snapshot
    and the attribute API read the same numbers from one place.
    """

    statuses_received: int = 0
    heartbeats_received: int = 0
    negotiation_rounds: int = 0
    reservations_refused: int = 0
    placements: int = 0
    gang_placements: int = 0
    gang_failures: int = 0
    evictions_handled: int = 0
    completions: int = 0
    jobs_submitted: int = 0
    jobs_forwarded: int = 0
    nodes_declared_dead: int = 0

    @property
    def updates_received(self) -> int:
        """Every Information Update Protocol message, heartbeats included."""
        return self.statuses_received + self.heartbeats_received

    def to_metrics(self, registry, prefix: str = "grm") -> None:
        """Publish every counter, views included, on ``registry``."""
        registry.bind(prefix, self,
                      [f.name for f in fields(self)] + ["updates_received"])


class Grm:
    """The servant implementing ``integrade/Grm`` for one cluster."""

    def __init__(
        self,
        loop: EventLoop,
        orb: Orb,
        cluster: str = "cluster0",
        policy: Optional[SchedulingPolicy] = None,
        gupa: Optional[Gupa] = None,
        network: Optional[NetworkTopology] = None,
        checkpoint_store: Optional[MemoryCheckpointStore] = None,
        schedule_interval: float = DEFAULT_SCHEDULE_INTERVAL,
        update_interval_hint: float = 60.0,
    ):
        self._loop = loop
        self._orb = orb
        self.cluster = cluster
        self.policy = policy if policy is not None else FirstFitPolicy()
        self.gupa = gupa
        self.network = network
        self.store = checkpoint_store
        self.trader = TradingService()
        self.stats = GrmStats()
        #: Optional observability hooks; None keeps the seed hot paths.
        self.tracer = None
        self.journal = None
        #: Status ingest and policy ranking; bind_metrics times them.
        self._timed_ingest = self._ingest
        self._timed_rank = self._rank
        self._job_trace_ctx: dict[str, tuple] = {}
        #: Seq of the in-flight node_down event while its evictions run,
        #: so they journal with a causal link back to the death.
        self._evict_cause = None

        #: The live roster, in registration order; a node leaves it when
        #: it unregisters or is declared dead.
        self._nodes: dict[str, NodeRecord] = {}
        self._jobs: dict[str, Job] = {}
        self._tasks: dict[str, tuple] = {}     # task_id -> (job, task)
        self._pending: deque = deque()
        #: job_id -> the BSP coordinator of every BSP job this GRM runs.
        self.coordinators: dict[str, BspGridCoordinator] = {}
        self._asct_stubs: dict[str, object] = {}     # job_id -> callback stub
        self._parent = None
        self._job_ids = itertools.count()
        self._update_interval_hint = update_interval_hint
        self._stale_after = update_interval_hint * DEFAULT_STALE_FACTOR
        self._schedule_task = loop.every(schedule_interval, self._schedule_pass)
        self._liveness_task = loop.every(
            self._stale_after, self._check_liveness
        )

    # -- wiring -------------------------------------------------------------------

    def bind_metrics(self, registry, prefix: Optional[str] = None) -> None:
        """Publish this GRM's stats and trader on a metrics registry.

        Registers :class:`GrmStats` fields, the roster size, backlog,
        :meth:`status_age_mean` and the update interval this GRM was
        built to expect (``update_interval_s``) as views, binds the
        trader's query accounting, and starts the status-ingest and
        policy-ranking latency histograms (each call goes through
        :func:`~repro.obs.metrics.timed`).
        """
        prefix = prefix if prefix is not None else f"grm.{self.cluster}"
        self.stats.to_metrics(registry, prefix)
        registry.view(f"{prefix}.registered_nodes", lambda: len(self._nodes))
        registry.view(f"{prefix}.pending_jobs", lambda: len(self._pending))
        registry.view(f"{prefix}.status_age_mean_s", self.status_age_mean)
        registry.view(f"{prefix}.update_interval_s",
                      lambda: self._update_interval_hint)
        self.trader.bind_metrics(registry, prefix=f"trader.{self.cluster}")
        from repro.obs.metrics import LATENCY_BOUNDS_S, timed
        self._timed_rank = timed(registry.histogram(
            f"{prefix}.rank_latency_s", LATENCY_BOUNDS_S
        ), self._rank)
        self._timed_ingest = timed(registry.histogram(
            f"{prefix}.ingest_latency_s", LATENCY_BOUNDS_S
        ), self._ingest)

    def status_age_mean(self) -> float:
        """Mean seconds since each rostered node's last accepted update:
        the freshness of this GRM's view.  Every node says something
        every interval, so it hovers at about half the update interval."""
        now = self._loop.now
        ages = [now - record.last_seen for record in self._nodes.values()]
        return sum(ages) / len(ages) if ages else 0.0

    def set_parent(self, parent_stub) -> None:
        """Attach the parent GRM for wide-area forwarding."""
        self._parent = parent_stub

    # servant operation
    def register_asct(self, job_id: str, asct_ior: str) -> None:
        """Attach the submitting ASCT for progress notifications."""
        self._asct_stubs[job_id] = self._orb.stub(asct_ior, ASCT_INTERFACE)

    def lrm_stub(self, node: str):
        """The LRM stub for a registered node (for coordinators)."""
        record = self._nodes.get(node)
        return record.lrm_stub if record is not None else None

    def stop(self) -> None:
        self._schedule_task.stop()
        self._liveness_task.stop()

    # -- Information Update Protocol (servant operations) ---------------------------

    def register_node(self, status: dict, lrm_ior: str) -> None:
        node = status["node"]
        if node in self._nodes:
            self.unregister_node(node)
        stub = self._orb.stub(lrm_ior, LRM_INTERFACE)
        offer_id = self.trader.export("node", lrm_ior, status)
        self._nodes[node] = NodeRecord(
            node, lrm_ior, stub, offer_id, status, self._loop.now
        )
        journal = self.journal
        if journal is not None and journal.active:
            journal.record(
                "node_up", node=node,
                cluster=self.cluster,
                mips=status.get("mips"),
            )

    def unregister_node(self, node: str) -> None:
        record = self._nodes.pop(node, None)
        if record is None:
            return
        try:
            self.trader.withdraw(record.offer_id)
        except UnknownOffer:
            pass

    def send_update(self, status: dict) -> None:
        self._timed_ingest(status)

    def heartbeat(self, node: str) -> None:
        """The node is alive and its status is what it last sent.

        Freshness only: the stored status and the Trader's offer are not
        touched, so ``NodeStatus.time`` stays the instant the values were
        last sent in full.
        """
        record = self._nodes.get(node)
        if record is None:
            return self._drop_update(node)
        record.last_seen = self._loop.now
        self.stats.heartbeats_received += 1

    def _drop_update(self, node: str) -> None:
        """A message from an unregistered node: it must re-register."""
        journal = self.journal
        if journal is not None and journal.active:
            journal.record(
                "update_dropped", node=node,
                cluster=self.cluster, reason="unregistered",
            )

    def _ingest(self, status: dict) -> None:
        record = self._nodes.get(status["node"])
        if record is None:
            return self._drop_update(status["node"])
        # The status crossed the ORB by reference: it is kept read-only
        # as last_status, and the Trader stores its own copy.  It is the
        # node's word on every task launched before it was sent.
        record.last_status = record.baseline = status
        if record.debits:
            record.debits.clear()
        record.last_seen = self._loop.now
        self.trader.modify(record.offer_id, status)
        self.stats.statuses_received += 1

    def _check_liveness(self) -> None:
        """Scheduled staleness sweep: a node is dead when
        ``last_seen + stale_after < now``; deaths are declared in
        registration order."""
        now, stale_after = self._loop.now, self._stale_after
        for record in [r for r in self._nodes.values()
                       if r.last_seen + stale_after < now]:
            self._declare_dead(record)

    def _declare_dead(self, record: NodeRecord) -> None:
        # Off the roster first: everything the evictions below touch sees
        # a node that is gone.
        del self._nodes[record.node]
        self.stats.nodes_declared_dead += 1
        try:
            self.trader.withdraw(record.offer_id)
        except UnknownOffer:
            pass
        journal = self.journal
        down = None
        if journal is not None and journal.active:
            down = journal.record(
                "node_down", node=record.node, cluster=self.cluster,
                reason="status stale",
                last_seen=record.last_seen,
            )
        # Tasks on a dead node resume from the cluster checkpoint store;
        # their eviction (and any checkpoint read) journals with the
        # death as its cause.
        self._evict_cause = down.seq if down is not None else None
        try:
            for task_id, (job, task) in list(self._tasks.items()):
                if task.node == record.node \
                        and task.state is TaskState.RUNNING:
                    resume = 0.0
                    if self.store is not None:
                        checkpoint = self.store.load_latest(task_id)
                        if checkpoint is not None:
                            resume = checkpoint.state().get(
                                "progress_mips", 0.0
                            )
                            if down is not None:
                                journal.record(
                                    "checkpoint_restored",
                                    node=record.node,
                                    job_id=job.job_id, task_id=task_id,
                                    cause=down.seq,
                                    progress_mips=resume,
                                )
                    # The node is gone, so progress-at-crash is
                    # unknowable; account only what the checkpoint
                    # preserved.
                    self.task_evicted(record.node, task_id, resume, resume)
        finally:
            self._evict_cause = None

    # -- submission (servant operations) ----------------------------------------------

    def submit(self, spec) -> str:
        if isinstance(spec, dict):
            spec = ApplicationSpec.from_dict(spec)
        job_id = f"{self.cluster}-job{next(self._job_ids)}"
        job = Job(job_id, spec, self._loop.now)
        if spec.kind == BSP:
            # Every submission path (Grid, ASCT, parent GRM) lands here;
            # a spec the coordinator refuses is never queued.
            self.coordinators[job_id] = BspGridCoordinator(
                self._loop, self, job, checkpoint_store=self.store
            )
        self._jobs[job_id] = job
        for task in job.tasks:
            self._tasks[task.task_id] = (job, task)
        self._pending.append(job_id)
        self.stats.jobs_submitted += 1
        tracer = self.tracer
        if tracer is not None and tracer.active:
            # The first placement attempt runs from a deferred event, not
            # inside this call; remember the submission's span so the
            # schedule pass can parent back to it (one connected trace).
            context = tracer.context()
            if context is not None:
                self._job_trace_ctx[job_id] = context
        self._emit(job_id, "submitted", spec.name)
        # Deferred so the caller can still attach an ASCT before the
        # first placement attempt runs.
        self._loop.schedule(0.0, self._schedule_pass)
        return job_id

    def job_status(self, job_id: str) -> dict:
        job = self._require_job(job_id)
        if job.forwarded_to:
            # The job answers from where it runs.
            return self._parent.job_status(job.forwarded_to)
        progress = [self._progress_of(t) for t in job.tasks]
        total = sum(t.work_mips for t in job.tasks)
        return {
            "job_id": job.job_id,
            "name": job.spec.name,
            "state": job.state.value,
            "progress": sum(progress) / total if total > 0 else 1.0,
            "submitted_at": job.submitted_at,
            "completed_at": job.completed_at,
            "tasks": [
                {
                    "task_id": t.task_id,
                    "state": t.state.value,
                    "node": t.node,
                    "progress_mips": mips,
                    "attempts": t.attempts,
                    "evictions": t.evictions,
                    "result": t.result,
                }
                for t, mips in zip(job.tasks, progress)
            ],
        }

    def _progress_of(self, task: Task) -> float:
        """A running task's progress as its LRM reports it now; the
        GRM's own figure (last heard at a launch, eviction or rollback)
        when the task is not running or its LRM cannot answer."""
        if task.state is TaskState.RUNNING:
            stub = self.lrm_stub(task.node)
            if stub is not None:
                try:
                    return stub.get_progress(task.task_id)
                except OrbError:
                    pass
        return task.progress_mips

    def cancel_job(self, job_id: str) -> None:
        job = self._require_job(job_id)
        if job.forwarded_to:
            self._parent.cancel_job(job.forwarded_to)
            return
        if job.done:
            return
        for task in job.tasks:
            if task.state is TaskState.RUNNING and task.node:
                stub = self.lrm_stub(task.node)
                if stub is not None:
                    try:
                        stub.stop_task(task.task_id)
                    except OrbError:
                        pass
                    self._credit(task.node, task.task_id)
            if not task.done:
                task.transition(TaskState.CANCELLED, self._loop.now, "cancel_job")
        job.set_state(JobState.CANCELLED, self._loop.now)
        self._job_trace_ctx.pop(job_id, None)
        self._emit(job_id, "cancelled", "")

    def job(self, job_id: str) -> Job:
        """Direct access for local harnesses and tests."""
        return self._require_job(job_id)

    @property
    def jobs(self) -> list:
        return list(self._jobs.values())

    def _require_job(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    # -- task lifecycle callbacks (servant operations) ------------------------------------

    def task_completed(self, node: str, task_id: str, result=None) -> None:
        entry = self._tasks.get(task_id)
        if entry is None:
            return
        job, task = entry
        if task.state is not TaskState.RUNNING:
            return
        self._credit(node, task_id)
        task.result = result
        if isinstance(result, dict) and "__error__" in result:
            # The task's payload violated the provider's sandbox or
            # raised: the compute finished but the application failed.
            task.transition(
                TaskState.FAILED, self._loop.now,
                f"payload failed on {node}: {result['__error__']}"
            )
            job.refresh_state(self._loop.now)
            self._emit(job.job_id, "task_failed", task_id)
            return
        task.advance(task.work_mips)
        task.transition(TaskState.COMPLETED, self._loop.now, f"on {node}")
        self.stats.completions += 1
        journal = self.journal
        if journal is not None and journal.active:
            journal.record(
                "task_completed", node=node,
                job_id=job.job_id, task_id=task_id,
                attempts=task.attempts,
            )
        coordinator = self.coordinators.get(job.job_id)
        if coordinator is not None:
            coordinator.member_completed(task_id)
        job.refresh_state(self._loop.now)
        if job.state is JobState.COMPLETED:
            self._job_trace_ctx.pop(job.job_id, None)
            self._emit(job.job_id, "completed", "")

    def task_evicted(
        self,
        node: str,
        task_id: str,
        progress_at_eviction_mips: float,
        resume_progress_mips: float,
    ) -> None:
        entry = self._tasks.get(task_id)
        if entry is None:
            return
        job, task = entry
        if task.state is not TaskState.RUNNING:
            return
        self._credit(node, task_id)
        self.stats.evictions_handled += 1
        journal = self.journal
        if journal is not None and journal.active:
            journal.record(
                "task_evicted", node=node,
                job_id=job.job_id, task_id=task_id,
                cause=self._evict_cause,
                progress_mips=progress_at_eviction_mips,
                resume_progress_mips=resume_progress_mips,
            )
        task.transition(TaskState.EVICTED, self._loop.now, f"from {node}")
        # Credit the work actually done, then lose what was not
        # checkpointed: wasted work shows up in task.wasted_mips.
        if progress_at_eviction_mips > task.progress_mips:
            task.advance(progress_at_eviction_mips - task.progress_mips)
        task.rollback(
            to_progress_mips=min(resume_progress_mips, task.progress_mips)
        )
        task.node = None
        coordinator = self.coordinators.get(job.job_id)
        if coordinator is not None:
            coordinator.member_evicted(task_id, node)
        task.transition(TaskState.PENDING, self._loop.now, "requeued")
        if job.job_id not in self._pending:
            self._pending.append(job.job_id)
        self._emit(job.job_id, "task_evicted", task_id)

    def task_reached_limit(self, node: str, task_id: str) -> None:
        entry = self._tasks.get(task_id)
        if entry is None:
            return
        job, _task = entry
        coordinator = self.coordinators.get(job.job_id)
        if coordinator is not None:
            coordinator.member_reached_limit(task_id, node)

    # -- scheduling ---------------------------------------------------------------------

    def _schedule_pass(self) -> None:
        if not self._pending:
            return
        still_pending: deque = deque()
        while self._pending:
            job_id = self._pending.popleft()
            job = self._jobs.get(job_id)
            if job is None or job.done:
                continue
            placed = self._schedule_job(job)
            if not placed and any(
                t.state is TaskState.PENDING for t in job.tasks
            ):
                if not self._forward_if_possible(job):
                    still_pending.append(job_id)
        self._pending = still_pending

    def _schedule_job(self, job: Job) -> bool:
        tracer = self.tracer
        if tracer is not None and tracer.active:
            with tracer.span("grm.schedule_job",
                             parent=self._job_trace_ctx.get(job.job_id),
                             component=self.cluster, job_id=job.job_id):
                return self._schedule_job_impl(job)
        return self._schedule_job_impl(job)

    def _schedule_job_impl(self, job: Job) -> bool:
        if _is_gang(job.spec):
            return self._schedule_gang(job)
        return self._schedule_independent(job)

    def _offers_for(self, spec: ApplicationSpec) -> list:
        """The Trader's answer for ``spec``: room for one task, plus
        ``requirements.constraint``, in one query."""
        reqs = spec.requirements
        parts = [
            "sharing == true",
            f"cpu_free >= {reqs.cpu_fraction}",
            f"mem_free_mb >= {reqs.mem_mb}",
        ]
        if reqs.disk_mb > 0:
            parts.append(f"disk_free_mb >= {reqs.disk_mb}")
        if reqs.constraint:
            parts.append(reqs.constraint)
        constraint = " && ".join(parts)
        tracer = self.tracer
        if tracer is not None and tracer.active:
            with tracer.span("trader.query", component=self.cluster,
                             constraint=constraint):
                return self.trader.query_properties("node", constraint)
        return self.trader.query_properties("node", constraint)

    def _view(self, job: Job) -> CandidateView:
        """Query the Trader for ``job``; ranked on first use."""
        return CandidateView(
            self._offers_for(job.spec),
            ScheduleContext(
                spec=job.spec, remaining_mips=0.0, now=self._loop.now,
                gupa=self.gupa,
            ),
        )

    def _schedule_independent(self, job: Job) -> bool:
        all_placed = True
        view = None   # queried when the first pending task needs it
        for task in job.tasks:
            if task.state is not TaskState.PENDING:
                continue
            if view is None:
                view = self._view(job)
            # Do not bounce an evicted task straight back onto the node
            # whose owner just reclaimed it (unless it is the only one).
            exclude = ()
            last_node = self._last_node_of(task)
            if task.evictions > 0 and last_node is not None:
                exclude = (last_node,)
            if not self._place_task(job, task, view, exclude):
                if exclude and self._place_task(job, task, view):
                    continue   # fall back: the old node is all there is
                all_placed = False
        job.refresh_state(self._loop.now)
        return all_placed

    @staticmethod
    def _last_node_of(task: Task):
        for event in reversed(task.history):
            if event.state == "evicted" and event.detail.startswith("from "):
                return event.detail[len("from "):]
        return None

    def _rank(self, offers: list, ctx: ScheduleContext,
              spec: ApplicationSpec) -> list:
        """The policy's order, outranked by the user's preference expression.

        Paper, Section 4: users state "preferences, like rather executing
        on a faster CPU than on a slower one".  A stable sort on the
        preference score keeps the policy's order among equally-preferred
        offers.
        """
        ordered = self.policy.order(offers, ctx)
        if not spec.preference:
            return ordered
        rank = spec.preference_rank()
        return sorted(ordered, key=rank.score, reverse=True)

    def _candidates(self, job: Job, task: Task, view: CandidateView,
                    exclude: tuple = ()):
        """The view's nodes for ``task``, best first, skipping excluded
        nodes and nodes whose view no longer fits the job."""
        if view.order is None or view.ctx.remaining_mips != task.remaining_mips:
            view.ctx.remaining_mips = task.remaining_mips
            view.order = self._timed_rank(view.offers, view.ctx, job.spec)
        return self._fitting(view.order, job.spec.requirements, exclude)

    def _fitting(self, ordered: list, reqs, exclude: tuple = ()):
        """Live records behind ``ordered`` offers that still fit ``reqs``.

        Lazy: each record is checked when it is reached, so a debit or a
        refusal taken meanwhile — by an earlier task of the same job, or
        an earlier attempt of this one — already counts.
        """
        nodes = self._nodes
        for offer in ordered:
            record = nodes.get(offer["node"])
            if record is None or record.node in exclude \
                    or not record.fits(reqs):
                continue
            yield record

    def _place_task(self, job: Job, task: Task, view: CandidateView,
                    exclude: tuple = ()) -> bool:
        """Negotiate down the view, at most ``DEFAULT_MAX_NEGOTIATIONS``
        times."""
        attempts = 0
        for record in self._candidates(job, task, view, exclude):
            if self._negotiate(record, job, task):
                return True
            attempts += 1
            if attempts == DEFAULT_MAX_NEGOTIATIONS:
                break
        return False

    def _negotiate(self, record: NodeRecord, job: Job, task: Task) -> bool:
        """Reserve on one node, then start there; False leaves no
        reservation behind."""
        if self._reserve_on(record, job, task):
            if self._launch_on(record, job, task):
                return True
            self._cancel_reservation(record.node, task.task_id)
        return False

    def _reserve_on(self, record: NodeRecord, job: Job, task: Task) -> bool:
        self.stats.negotiation_rounds += 1
        reqs = job.spec.requirements
        try:
            reply = record.lrm_stub.request_reservation({
                "task_id": task.task_id,
                "cpu_fraction": reqs.cpu_fraction,
                "mem_mb": reqs.mem_mb,
                "disk_mb": reqs.disk_mb,
                "lease_seconds": DEFAULT_RESERVATION_LEASE,
            })
        except OrbError:
            return False
        if not reply["accepted"]:
            self.stats.reservations_refused += 1
            self._apply_refusal(record, reply)
            return False
        return True

    def _launch_on(self, record: NodeRecord, job: Job, task: Task) -> bool:
        node = record.node
        checkpoint_interval = job.spec.metadata.get("checkpoint_interval_s", 0.0)
        try:
            started = record.lrm_stub.start_task({
                "task_id": task.task_id,
                "job_id": job.job_id,
                "work_mips": task.work_mips,
                "initial_progress_mips": task.progress_mips,
                "checkpoint_interval_s": float(checkpoint_interval),
                "payload": str(job.spec.metadata.get("payload", "")),
            })
        except OrbError:
            return False
        if not started:
            return False
        reqs = job.spec.requirements
        record.debits[task.task_id] = (reqs.cpu_fraction, reqs.mem_mb)
        self._restate(record)
        task.node = node
        task.transition(TaskState.RESERVED, self._loop.now, node)
        task.transition(TaskState.RUNNING, self._loop.now, node)
        self.stats.placements += 1
        journal = self.journal
        if journal is not None and journal.active:
            journal.record(
                "task_scheduled", node=node,
                job_id=job.job_id, task_id=task.task_id,
                initial_progress_mips=task.progress_mips,
                attempt=task.attempts,
            )
            if task.progress_mips > 0.0:
                # A mid-flight start means earlier work survived in a
                # checkpoint: this placement is a restore, not a restart.
                journal.record(
                    "task_restored", node=node,
                    job_id=job.job_id, task_id=task.task_id,
                    progress_mips=task.progress_mips,
                )
        job.refresh_state(self._loop.now)
        return True

    # -- the view's accounting: debits, credits, refusals -------------------------------

    def _restate(self, record: NodeRecord) -> None:
        """Rebuild the view from the baseline and the debits, and offer it."""
        view = dict(record.baseline)
        for cpu, mem in record.debits.values():
            view["cpu_free"] -= cpu
            view["mem_free_mb"] -= mem
        view["grid_tasks"] += len(record.debits)
        record.last_status = view
        self.trader.modify(record.offer_id, view)

    def _credit(self, node: str, task_id: str) -> None:
        """A task left ``node``: hand back its debit, if still outstanding
        (a status sent after its launch already accounts for it)."""
        record = self._nodes.get(node)
        if record is not None \
                and record.debits.pop(task_id, None) is not None:
            self._restate(record)

    def _apply_refusal(self, record: NodeRecord, reply: dict) -> None:
        """The refusal's capacity is the node's word now: lower the view
        to it.  It already accounts for every task running there, so it
        becomes the baseline and no debit is outstanding any more."""
        view = record.last_status
        record.baseline = dict(
            view,
            cpu_free=min(view["cpu_free"], reply["cpu_free"]),
            mem_free_mb=min(view["mem_free_mb"], reply["mem_free_mb"]),
        )
        record.debits.clear()
        self._restate(record)

    def _cancel_reservation(self, node: str, task_id: str) -> None:
        record = self._nodes.get(node)
        if record is None:
            return
        try:
            record.lrm_stub.cancel_reservation(task_id)
        except OrbError:
            pass

    def _schedule_gang(self, job: Job, exclude: tuple = ()) -> bool:
        """Reserve every pending task on a distinct node, or none at all;
        never on a node in ``exclude``."""
        pending = [t for t in job.tasks if t.state is TaskState.PENDING]
        if not pending:
            return True
        busy_nodes = {
            t.node for t in job.tasks if t.node is not None and not t.done
        }.union(exclude)
        offers = [
            o for o in self._offers_for(job.spec)
            if o["node"] not in busy_nodes
        ]
        ctx = ScheduleContext(
            spec=job.spec,
            remaining_mips=max(t.remaining_mips for t in pending),
            now=self._loop.now,
            gupa=self.gupa,
        )
        if job.spec.topology is not None and self.network is not None:
            plan = plan_virtual_topology(
                offers, job.spec.topology, self.network, ctx, self.policy
            )
            if plan is None:
                self.stats.gang_failures += 1
                return False
            ordered = [offer for group in plan for offer in group]
        else:
            ordered = self._timed_rank(offers, ctx, job.spec)
        if len(ordered) < len(pending):
            self.stats.gang_failures += 1
            return False

        reserved: list[tuple] = []
        candidates = self._fitting(ordered, job.spec.requirements)
        for task in pending:
            placed = next(
                (r for r in candidates if self._reserve_on(r, job, task)),
                None,
            )
            if placed is None:
                for record, earlier in reserved:
                    self._cancel_reservation(record.node, earlier.task_id)
                self.stats.gang_failures += 1
                return False
            reserved.append((placed, task))

        for record, task in reserved:
            if not self._launch_on(record, job, task):
                # A start failing after reservation is pathological; give
                # the remaining members back and requeue.
                for other_record, other in reserved:
                    if other.state is TaskState.PENDING:
                        self._cancel_reservation(
                            other_record.node, other.task_id
                        )
                self.stats.gang_failures += 1
                return False
        self.stats.gang_placements += 1
        coordinator = self.coordinators.get(job.job_id)
        if coordinator is not None:
            coordinator.members_started(
                {task.task_id: record.node for record, task in reserved}
            )
        return True

    def migrate_task(self, task_id: str, exclude_current: bool = True) -> bool:
        """Live-migrate a running task to another node.

        The paper's checkpointing requirement exists "to permit migration
        of computation across grid nodes"; this is the control-plane
        operation: stop the task on its current node (capturing its exact
        progress), evict it through :meth:`task_evicted` keeping all of
        that progress, then place it again.  An independent task resumes
        where it stopped; a gang member is re-placed with its gang, and
        like any lost member costs the gang a rollback to the last
        checkpointed superstep.  Returns True when the task ends up
        running again; on failure to re-place, the task is left PENDING
        for the normal scheduling passes.
        """
        entry = self._tasks.get(task_id)
        if entry is None:
            raise KeyError(f"unknown task {task_id!r}")
        job, task = entry
        if task.state is not TaskState.RUNNING or task.node is None:
            return False
        old_node = task.node
        stub = self.lrm_stub(old_node)
        if stub is None:
            return False
        try:
            progress = max(0.0, stub.stop_task(task_id))   # -1: not there
        except OrbError:
            return False
        self.task_evicted(old_node, task_id, progress, progress)
        exclude = (old_node,) if exclude_current else ()
        if _is_gang(job.spec):
            placed = self._schedule_gang(job, exclude)
        else:
            placed = self._place_task(job, task, self._view(job), exclude)
        self._emit(job.job_id, "migrated" if placed else "migration_pending",
                   task_id)
        return placed

    def _forward_if_possible(self, job: Job) -> bool:
        """Wide-area step: hand an unplaceable job to the parent GRM."""
        if self._parent is None:
            return False
        if job.spec.metadata.get("no_forward"):
            return False   # already forwarded once; it stays here
        if any(t.state is not TaskState.PENDING for t in job.tasks):
            return False   # partially placed jobs stay local
        try:
            remote_id = self._parent.submit_remote(
                job.spec.to_dict(), self.cluster
            )
        except OrbError:
            return False
        if not remote_id:
            return False
        for task in job.tasks:
            task.transition(TaskState.CANCELLED, self._loop.now, "forwarded")
        job.set_state(JobState.CANCELLED, self._loop.now,
                      f"forwarded as {remote_id}")
        job.forwarded_to = remote_id
        # The job is paced where it now runs, not here.
        self.coordinators.pop(job.job_id, None)
        self.stats.jobs_forwarded += 1
        asct = self._asct_stubs.get(job.job_id)
        if asct is not None:
            # Later events reach the ASCT under the id ``forwarded`` names.
            try:
                self._parent.register_asct(remote_id, asct.ref.to_string())
            except OrbError:
                pass
        self._emit(job.job_id, "forwarded", remote_id)
        return True

    # -- notifications ---------------------------------------------------------------------

    def _emit(self, job_id: str, event: str, detail: str) -> None:
        stub = self._asct_stubs.get(job_id)
        if stub is not None:
            try:
                stub.job_event(job_id, event, detail)
            except OrbError:
                pass

    # -- summaries (for the hierarchy) ---------------------------------------------------------

    def cluster_summary(self) -> dict:
        """Sums over the live roster, computed afresh on every call (once
        per summary interval).  A job id can linger in ``_pending`` after
        the job is gone — skip it."""
        statuses = [r.last_status for r in self._nodes.values()]
        return {
            "cluster": self.cluster,
            "time": self._loop.now,
            "nodes": len(statuses),
            "sharing_nodes": sum(1 for s in statuses if s["sharing"]),
            "free_cpu_total": sum(s["cpu_free"] for s in statuses),
            "free_mem_total_mb": sum(s["mem_free_mb"] for s in statuses),
            "max_node_mips": max((s["mips"] for s in statuses), default=0.0),
            "pending_tasks": sum(
                1
                for job_id in self._pending
                if (job := self._jobs.get(job_id)) is not None
                for t in job.tasks
                if t.state is TaskState.PENDING
            ),
        }
