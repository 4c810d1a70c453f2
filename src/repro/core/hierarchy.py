"""Inter-cluster hierarchy.

"Clusters are then arranged in a hierarchy, allowing a single InteGrade
grid to encompass millions of machines" (Section 4).  A
:class:`ParentGrm` aggregates per-cluster summaries (not per-node status
— that is the point of the hierarchy) and places jobs that their origin
cluster could not, implementing the wide-area extension of the resource
management protocols (Marques & Kon 2002).

One rule per direction.  Upward, every child — a cluster through its
:class:`ClusterUplink`, a sub-parent through :meth:`ParentGrm.attach_parent`
— sends one full summary per ``summary_interval``; a parent demotes a
child it has not heard from for ``stale_after`` (3.5 intervals) and
revives it on its next summary, so placement never ranks, or dials, a
dead cluster.  Downward, candidate selection walks an index of the live
children ordered by spare CPU, maintained as summaries arrive: the walk
stops at the first child that provably cannot host the job, so a submit
costs O(answers + log C) and most-spare-CPU goes first, registration
order breaking ties.
"""

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Optional

from repro.core.grm import Grm
from repro.core.protocols import GRM_INTERFACE
from repro.orb.core import Orb
from repro.orb.exceptions import OrbError
from repro.sim.events import EventLoop

DEFAULT_SUMMARY_INTERVAL = 300.0

#: A child whose summaries stop arriving for this many intervals is
#: demoted from placement (mirrors the GRM's node staleness factor).
DEFAULT_SUMMARY_STALE_FACTOR = 3.5


@dataclass
class ClusterRecord:
    """The parent's view of one child cluster."""

    cluster: str
    grm_ior: str
    grm_stub: object
    summary: dict
    last_seen: float
    #: Registration order; breaks free-CPU ties.
    seq: int = 0
    #: False once the staleness sweep demoted this child; revived by the
    #: next summary that arrives.
    alive: bool = True
    #: The (-free_cpu_total, seq) key this record currently occupies in
    #: the placement index (None while demoted).
    index_key: Optional[tuple] = field(default=None, repr=False)


class NoCapacity(Exception):
    """No child cluster can host the submitted application."""


class HierarchyError(Exception):
    """A wide-area operation failed because a child cluster is unreachable.

    Wraps the underlying :class:`~repro.orb.exceptions.OrbError` with the
    cluster the hierarchy was talking to, so callers (and postmortems)
    can name the dead cluster instead of staring at a bare ORB fault.
    """

    def __init__(self, cluster: str, operation: str, job_id: str, cause):
        self.cluster = cluster
        self.operation = operation
        self.job_id = job_id
        self.cause = cause
        super().__init__(
            f"{operation}({job_id!r}) failed: cluster {cluster!r} "
            f"unreachable: {cause}"
        )


class ParentGrm:
    """The servant implementing ``integrade/ParentGrm``.

    Also implements a GRM-compatible ``submit``/``job_status`` facade, so
    a ParentGrm can itself register as a "cluster" with a higher-level
    ParentGrm — the paper's arbitrarily deep hierarchy ("the hierarchy
    can be arranged in any convenient manner").
    """

    def __init__(
        self,
        loop: EventLoop,
        orb: Orb,
        name: str = "parent",
        stale_after: float = (
            DEFAULT_SUMMARY_STALE_FACTOR * DEFAULT_SUMMARY_INTERVAL
        ),
    ):
        self._loop = loop
        self._orb = orb
        self.name = name
        self._children: dict[str, ClusterRecord] = {}
        self._parent = None
        self._delegated_jobs: dict[str, ClusterRecord] = {}
        self.summaries_received = 0
        self.summaries_dropped = 0
        self.remote_submissions = 0
        self.remote_rejections = 0
        self.upward_forwards = 0
        self.clusters_declared_stale = 0
        #: Placement accounting: children admitted to the candidate
        #: list, children pruned before any remote round-trip, and
        #: submissions escalated to our own parent.
        self.placements_admitted = 0
        self.placements_skipped_by_index = 0
        self.placements_escalated = 0
        #: Optional observability hooks; None keeps the hot paths bare.
        self.journal = None
        #: Both submit paths; bind_metrics times them.
        self._timed_submit = self._submit_impl
        self._timed_submit_remote = self._submit_remote_impl
        #: Placement index: (-free_cpu_total, seq, record) ascending, so
        #: a front-to-back walk visits most-spare-CPU first, registration
        #: order within ties, and stops at the first child below the CPU
        #: threshold.
        self._index: list = []
        self._cluster_seq = itertools.count()
        self._stale_after = stale_after
        self._sweep_task = loop.every(stale_after, self._check_staleness)
        self._uplink_task = None

    # -- wiring -----------------------------------------------------------------

    def bind_metrics(self, registry, prefix: Optional[str] = None) -> None:
        """Publish this parent's wide-area counters on a metrics registry.

        Registers the ``parent.<name>.*`` views (summaries, placement
        admission accounting, cluster roster) and starts the
        ``submit_latency_s`` histogram over the wide-area submit path.
        """
        prefix = prefix if prefix is not None else f"parent.{self.name}"
        registry.view(f"{prefix}.summaries.received",
                      lambda: self.summaries_received)
        registry.view(f"{prefix}.summaries.dropped",
                      lambda: self.summaries_dropped)
        registry.view(f"{prefix}.placement.admitted",
                      lambda: self.placements_admitted)
        registry.view(f"{prefix}.placement.skipped_by_index",
                      lambda: self.placements_skipped_by_index)
        registry.view(f"{prefix}.placement.escalated",
                      lambda: self.placements_escalated)
        registry.view(f"{prefix}.remote_submissions",
                      lambda: self.remote_submissions)
        registry.view(f"{prefix}.remote_rejections",
                      lambda: self.remote_rejections)
        registry.view(f"{prefix}.upward_forwards",
                      lambda: self.upward_forwards)
        registry.view(f"{prefix}.clusters_declared_stale",
                      lambda: self.clusters_declared_stale)
        registry.view(f"{prefix}.registered_clusters",
                      lambda: len(self._children))
        registry.view(
            f"{prefix}.live_clusters",
            lambda: sum(1 for r in self._children.values() if r.alive),
        )
        from repro.obs.metrics import LATENCY_BOUNDS_S, timed
        hist = registry.histogram(
            f"{prefix}.submit_latency_s", LATENCY_BOUNDS_S
        )
        self._timed_submit = timed(hist, self._submit_impl)
        self._timed_submit_remote = timed(hist, self._submit_remote_impl)

    def stop(self) -> None:
        """Stop the staleness sweep and the uplink to our own parent."""
        self._sweep_task.stop()
        if self._uplink_task is not None:
            self._uplink_task.stop()

    # -- servant operations -----------------------------------------------------

    def register_cluster(self, summary: dict, grm_ior: str) -> None:
        cluster = summary["cluster"]
        stub = self._orb.stub(grm_ior, GRM_INTERFACE)
        existing = self._children.get(cluster)
        if existing is not None:
            # Re-registration keeps the child's tie-break rank.
            seq = existing.seq
            self._index_remove(existing)
        else:
            seq = next(self._cluster_seq)
        record = ClusterRecord(
            cluster, grm_ior, stub, summary, self._loop.now, seq=seq
        )
        self._children[cluster] = record
        self._reindex(record)
        journal = self.journal
        if journal is not None and journal.active:
            journal.record(
                "cluster_up", cluster=cluster, parent=self.name,
                nodes=summary.get("nodes"),
            )

    def unregister_cluster(self, cluster: str) -> None:
        """A child leaves the hierarchy: drop it from placement entirely."""
        record = self._children.pop(cluster, None)
        if record is None:
            return
        self._index_remove(record)
        journal = self.journal
        if journal is not None and journal.active:
            journal.record(
                "cluster_down", cluster=cluster, parent=self.name,
                reason="unregistered",
            )

    def send_summary(self, summary: dict) -> None:
        record = self._children.get(summary["cluster"])
        journal = self.journal
        if record is None:
            # A summary from a cluster that never registered (or was
            # dropped): count it and leave a forensic trail — the child
            # must re-register, exactly like a node-level update_dropped.
            self.summaries_dropped += 1
            if journal is not None and journal.active:
                journal.record(
                    "update_dropped", cluster=summary["cluster"],
                    parent=self.name, reason="unregistered",
                )
            return
        record.summary = summary
        record.last_seen = self._loop.now
        self.summaries_received += 1
        if not record.alive:
            # The child came back: placement may offer it again.
            record.alive = True
            if journal is not None and journal.active:
                journal.record(
                    "cluster_up", cluster=record.cluster, parent=self.name,
                    reason="summaries resumed",
                )
        self._reindex(record)

    def submit_remote(self, spec: dict, origin_cluster: str) -> str:
        """Place a job some other child cluster can run, or return ''.

        When no child qualifies and this node has a parent, the request
        escalates one level up; ``metadata["visited"]`` carries the
        hierarchy path to rule out cycles.
        """
        return self._timed_submit_remote(spec, origin_cluster)

    def _submit_remote_impl(self, spec: dict, origin_cluster: str) -> str:
        if self.name in dict(spec.get("metadata", {})).get("visited", ()):
            self.remote_rejections += 1
            return ""
        for record in self._candidates(spec, origin_cluster):
            forwarded = self._tag(spec, origin_cluster)
            try:
                job_id = record.grm_stub.submit(forwarded)
            except OrbError:
                continue
            self.remote_submissions += 1
            return job_id
        if self._parent is not None:
            escalated = self._tag(spec, origin_cluster)
            try:
                job_id = self._parent.submit_remote(escalated, self.name)
            except OrbError:
                job_id = ""
            if job_id:
                self.upward_forwards += 1
                self.placements_escalated += 1
                return job_id
        self.remote_rejections += 1
        return ""

    def _tag(self, spec: dict, origin_cluster: str) -> dict:
        """The spec as this node hands it on: placed by the hierarchy, so
        the receiving GRM never forwards it again, and this node joins
        its ``visited`` path."""
        forwarded = dict(spec)
        metadata = dict(forwarded.get("metadata", {}))
        metadata["no_forward"] = True
        metadata["origin_cluster"] = origin_cluster
        metadata["visited"] = list(metadata.get("visited", [])) + [self.name]
        forwarded["metadata"] = metadata
        return forwarded

    # -- GRM-compatible facade (lets a ParentGrm be someone's child) ---------

    def submit(self, spec) -> str:
        """Place the job in the best child cluster, or raise NoCapacity."""
        spec_dict = spec if isinstance(spec, dict) else spec.to_dict()
        return self._timed_submit(spec_dict)

    def _submit_impl(self, spec_dict: dict) -> str:
        placed = self._tag(spec_dict, "")
        for record in self._candidates(spec_dict, origin=""):
            try:
                job_id = record.grm_stub.submit(placed)
            except OrbError:
                continue
            self._delegated_jobs[job_id] = record
            return job_id
        raise NoCapacity(
            f"{self.name}: no child cluster can host "
            f"{spec_dict.get('name')!r}"
        )

    def job_status(self, job_id: str) -> dict:
        record = self._delegated_jobs.get(job_id)
        if record is None:
            raise KeyError(f"unknown job {job_id!r}")
        try:
            return record.grm_stub.job_status(job_id)
        except OrbError as exc:
            raise HierarchyError(
                record.cluster, "job_status", job_id, exc
            ) from exc

    def cancel_job(self, job_id: str) -> None:
        record = self._delegated_jobs.get(job_id)
        if record is None:
            raise KeyError(f"unknown job {job_id!r}")
        try:
            record.grm_stub.cancel_job(job_id)
        except OrbError as exc:
            raise HierarchyError(
                record.cluster, "cancel_job", job_id, exc
            ) from exc

    # GRM interface operations that have no meaning at an aggregation
    # node: per-node traffic never reaches a parent.
    def register_node(self, status, lrm_ior) -> None:
        raise TypeError("nodes register with leaf GRMs, not parents")

    def unregister_node(self, node) -> None:
        raise TypeError("nodes register with leaf GRMs, not parents")

    def send_update(self, status) -> None:
        pass

    def heartbeat(self, node) -> None:
        pass

    def register_asct(self, job_id, asct_ior) -> None:
        pass

    def task_completed(self, node, task_id, result) -> None:
        pass

    def task_evicted(self, node, task_id, progress, resume) -> None:
        pass

    def task_reached_limit(self, node, task_id) -> None:
        pass

    # -- aggregation --------------------------------------------------------------

    def aggregate_summary(self) -> dict:
        """This subtree, summarised as if it were one big cluster."""
        children = [r for r in self._children.values() if r.alive]
        return {
            "cluster": self.name,
            "time": self._loop.now,
            "nodes": sum(r.summary["nodes"] for r in children),
            "sharing_nodes": sum(
                r.summary["sharing_nodes"] for r in children
            ),
            "free_cpu_total": sum(
                r.summary["free_cpu_total"] for r in children
            ),
            "free_mem_total_mb": sum(
                r.summary["free_mem_total_mb"] for r in children
            ),
            "max_node_mips": max(
                (r.summary["max_node_mips"] for r in children), default=0.0
            ),
            "pending_tasks": sum(
                r.summary["pending_tasks"] for r in children
            ),
        }

    def attach_parent(
        self,
        parent_stub,
        own_grm_facade_ior: str,
        interval: float = DEFAULT_SUMMARY_INTERVAL,
    ) -> None:
        """Join a higher-level ParentGrm as one of its 'clusters'."""
        self._parent = parent_stub
        parent_stub.register_cluster(
            self.aggregate_summary(), own_grm_facade_ior
        )
        self._uplink_task = self._loop.every(
            interval,
            lambda: parent_stub.send_summary(self.aggregate_summary()),
        )

    # -- liveness and the placement index ------------------------------------------

    def _reindex(self, record: ClusterRecord) -> None:
        """File a live child under its summary's spare CPU, if it is not
        there already."""
        key = (-record.summary["free_cpu_total"], record.seq)
        if key != record.index_key:
            self._index_remove(record)
            record.index_key = key
            insort(self._index, key + (record,))

    def _index_remove(self, record: ClusterRecord) -> None:
        key = record.index_key
        if key is None:
            return
        pos = bisect_left(self._index, key)
        # The 3-tuple at pos compares equal on (free_cpu, seq) — seq is
        # unique per child, so this is exactly the record's entry.
        del self._index[pos]
        record.index_key = None

    def _check_staleness(self) -> None:
        """Demote children whose summaries stopped arriving.

        The GRM's node rule, one level up: a live child is stale when
        ``last_seen + stale_after < now``, and stale children are demoted
        in registration order.  A demoted child stays registered (its
        stub may still answer for delegated jobs) but leaves the
        aggregate and the placement index, so placement never ranks — or
        dials — a dead cluster.
        """
        now, stale_after = self._loop.now, self._stale_after
        journal = self.journal
        for record in self._children.values():
            if record.alive and record.last_seen + stale_after < now:
                self._index_remove(record)
                record.alive = False
                self.clusters_declared_stale += 1
                if journal is not None and journal.active:
                    journal.record(
                        "cluster_down", cluster=record.cluster,
                        parent=self.name, reason="summaries stale",
                        last_seen=record.last_seen,
                    )

    # -- selection -----------------------------------------------------------------

    def _candidates(self, spec_dict: dict, origin: str) -> list:
        """Eligible live children, most spare CPU first.

        The index is ordered by spare CPU, the one eligibility criterion
        that is monotone in the ordering — every child past the first
        one below the CPU the job needs fails too, so the walk stops
        there without looking at them.  The secondary filters (sharing
        node count, fastest node) reject within the prefix.
        """
        reqs = spec_dict.get("requirements") or {}
        tasks = spec_dict.get("tasks", 1)
        needed_cpu = tasks * reqs.get("cpu_fraction", 1.0)
        min_mips = reqs.get("min_mips", 0.0)
        eligible = []
        for entry in self._index:
            if -entry[0] < needed_cpu:
                break
            record = entry[2]
            summary = record.summary
            if record.cluster == origin:
                continue
            if summary["sharing_nodes"] < tasks:
                continue
            if min_mips > 0 and summary["max_node_mips"] < min_mips:
                continue
            eligible.append(record)
        self.placements_admitted += len(eligible)
        self.placements_skipped_by_index += len(self._index) - len(eligible)
        return eligible

    @property
    def clusters(self) -> list:
        return sorted(self._children)

    def summary_of(self, cluster: str) -> Optional[dict]:
        record = self._children.get(cluster)
        return record.summary if record is not None else None


class ClusterUplink:
    """The child side: registers its cluster with the parent, then sends
    one full summary per ``interval``."""

    def __init__(
        self,
        loop: EventLoop,
        grm: Grm,
        parent_stub,
        grm_ior: str,
        interval: float = DEFAULT_SUMMARY_INTERVAL,
    ):
        self._grm = grm
        self._parent = parent_stub
        parent_stub.register_cluster(grm.cluster_summary(), grm_ior)
        grm.set_parent(parent_stub)
        self.summaries_sent = 0
        self._task = loop.every(interval, self._send)

    def _send(self) -> None:
        self._parent.send_summary(self._grm.cluster_summary())
        self.summaries_sent += 1

    def stop(self) -> None:
        self._task.stop()
