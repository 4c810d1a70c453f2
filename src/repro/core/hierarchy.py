"""Inter-cluster hierarchy.

"Clusters are then arranged in a hierarchy, allowing a single InteGrade
grid to encompass millions of machines" (Section 4).  A
:class:`ParentGrm` aggregates per-cluster summaries (not per-node status
— that is the point of the hierarchy) and places jobs that their origin
cluster could not, implementing the wide-area extension of the resource
management protocols (Marques & Kon 2002).

Scaling the wide-area plane (all opt-in, seed behaviour is the default):

* **Incremental aggregation** — with ``incremental_aggregation=True``
  the parent maintains running totals (and a sorted multiset for the
  max) updated in O(1)/O(log C) per summary, so :meth:`aggregate_summary`
  stops recomputing O(children) sums on every uplink heartbeat.
  :meth:`aggregate_oracle` keeps the seed recompute as the equivalence
  oracle.
* **Indexed placement** — with ``indexed_placement=True`` candidate
  selection walks a free-CPU-ordered index maintained on summary
  arrival instead of scanning and sorting every child per submit; the
  walk stops at the first child that provably cannot host the job
  (the index is ordered by the one monotone criterion), so submit cost
  is O(answers + log C), and clusters whose aggregate cannot host the
  job are skipped before any remote round-trip.  Candidate order is
  bit-identical to the seed :meth:`_rank_candidates` sort (stable on
  registration order within free-CPU ties).
* **Delta uplinks** — :class:`ClusterUplink` and
  :meth:`ParentGrm.attach_parent` can stream changed-field deltas with
  adaptive throttling (reusing
  :class:`~repro.core.update_protocol.DeltaSender`), and a parent given
  ``stale_after`` sweeps a ``(expiry, seq)`` min-heap to demote children
  whose summaries stopped arriving — stale clusters leave the placement
  index instead of being ranked (and dialled) as live candidates.
"""

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from heapq import heappop, heappush
from time import perf_counter
from typing import Optional

from repro.apps.spec import ApplicationSpec
from repro.core.grm import Grm
from repro.core.protocols import GRM_INTERFACE
from repro.core.update_protocol import (
    DEFAULT_FULL_REFRESH_EVERY,
    DELTA,
    FULL,
    DeltaSender,
    apply_delta,
)
from repro.orb.core import Orb
from repro.orb.exceptions import OrbError
from repro.sim.events import EventLoop

DEFAULT_SUMMARY_INTERVAL = 300.0

#: A child whose summaries stop arriving for this many healthy intervals
#: is demoted from placement (mirrors the GRM's node staleness factor).
DEFAULT_SUMMARY_STALE_FACTOR = 3.5

#: Totals maintained incrementally (every CLUSTER_SUMMARY field that is
#: a plain sum over children; ``max_node_mips`` needs the multiset).
_SUM_FIELDS = (
    "nodes", "sharing_nodes", "free_cpu_total", "free_mem_total_mb",
    "pending_tasks",
)


@dataclass
class ClusterRecord:
    """The parent's view of one child cluster."""

    cluster: str
    grm_ior: str
    grm_stub: object
    summary: dict
    last_seen: float
    #: Registration order; breaks free-CPU ties exactly the way the seed
    #: stable sort does (dict insertion order).
    seq: int = 0
    #: False once the staleness sweep demoted this child; revived by the
    #: next summary that arrives.
    alive: bool = True
    #: The (-free_cpu_total, seq) key this record currently occupies in
    #: the placement index (None when unindexed or demoted).
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
        incremental_aggregation: bool = False,
        indexed_placement: bool = False,
        stale_after: Optional[float] = None,
    ):
        self._loop = loop
        self._orb = orb
        self.name = name
        self._children: dict[str, ClusterRecord] = {}
        self._parent = None
        self._delegated_jobs: dict[str, ClusterRecord] = {}
        self.summaries_received = 0
        self.summaries_full = 0
        self.summaries_delta = 0
        self.summaries_suppressed = 0
        self.summaries_dropped = 0
        self.remote_submissions = 0
        self.remote_rejections = 0
        self.upward_forwards = 0
        self.clusters_declared_stale = 0
        #: Placement accounting (indexed mode): children admitted to the
        #: candidate list, children pruned before any remote round-trip,
        #: and submissions escalated to our own parent.
        self.placements_admitted = 0
        self.placements_skipped_by_index = 0
        self.placements_escalated = 0
        #: Parent-as-child uplink accounting (delta-mode attach_parent).
        self.uplink_full = 0
        self.uplink_delta = 0
        self.uplink_suppressed = 0
        #: Optional observability hooks; None keeps the seed hot paths.
        self.journal = None
        self._submit_hist = None
        #: Wide-area scaling switches (defaults preserve seed behaviour).
        self._incremental = incremental_aggregation
        self._indexed = indexed_placement
        self._stale_after = stale_after
        #: Incremental aggregation state: running totals plus a sorted
        #: multiset of each live child's max_node_mips.
        self._totals = {key: 0 for key in _SUM_FIELDS}
        self._mips: list = []
        #: Placement index: (-free_cpu_total, seq, record) ascending, so
        #: a front-to-back walk visits most-spare-CPU first with seed tie
        #: order, and stops at the first child below the CPU threshold.
        self._index: list = []
        self._cluster_seq = itertools.count()
        #: Staleness sweep state, same shape as the GRM's node sweep:
        #: (expiry, seq, record) entries re-armed lazily on fresh children.
        self._expiry_heap: list = []
        self._expiry_seq = itertools.count()
        self._sweep_task = None
        if stale_after is not None:
            if stale_after <= 0:
                raise ValueError(
                    f"stale_after must be positive, got {stale_after}"
                )
            self._sweep_task = loop.every(stale_after, self._check_staleness)
        self._uplink_sender = None
        self._uplink_task = None

    # -- wiring -----------------------------------------------------------------

    def set_journal(self, journal) -> None:
        """Attach the grid's event journal (cluster lifecycle events)."""
        self.journal = journal

    def bind_metrics(self, registry, prefix: Optional[str] = None) -> None:
        """Publish this parent's wide-area counters on a metrics registry.

        Registers the ``parent.<name>.*`` views (summary kinds, placement
        admission accounting, cluster roster) and starts the
        ``submit_latency_s`` histogram over the wide-area submit path.
        """
        prefix = prefix if prefix is not None else f"parent.{self.name}"
        registry.view(f"{prefix}.summaries.received",
                      lambda: self.summaries_received)
        registry.view(f"{prefix}.summaries.full", lambda: self.summaries_full)
        registry.view(f"{prefix}.summaries.delta",
                      lambda: self.summaries_delta)
        registry.view(f"{prefix}.summaries.suppressed",
                      lambda: self.summaries_suppressed)
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
        from repro.obs.metrics import LATENCY_BOUNDS_S
        self._submit_hist = registry.histogram(
            f"{prefix}.submit_latency_s", LATENCY_BOUNDS_S
        )

    def stop(self) -> None:
        """Stop the staleness sweep and any delta uplink timer."""
        if self._sweep_task is not None:
            self._sweep_task.stop()
        if self._uplink_task is not None:
            self._uplink_task.cancel()
            self._uplink_task = None

    # -- servant operations -----------------------------------------------------

    def register_cluster(self, summary: dict, grm_ior: str) -> None:
        cluster = summary["cluster"]
        stub = self._orb.stub(grm_ior, GRM_INTERFACE)
        existing = self._children.get(cluster)
        if existing is not None:
            # Re-registration keeps the child's dict position (and thus
            # its tie-break rank); retire the stale aggregate state.
            seq = existing.seq
            self._retire(existing)
        else:
            seq = next(self._cluster_seq)
        record = ClusterRecord(
            cluster, grm_ior, stub, summary, self._loop.now, seq=seq
        )
        self._children[cluster] = record
        self._admit(record)
        if self._stale_after is not None:
            heappush(
                self._expiry_heap,
                (record.last_seen + self._stale_after,
                 next(self._expiry_seq), record),
            )
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
        self._retire(record)
        journal = self.journal
        if journal is not None and journal.active:
            journal.record(
                "cluster_down", cluster=cluster, parent=self.name,
                reason="unregistered",
            )

    def send_summary(self, summary: dict) -> None:
        record = self._children.get(summary["cluster"])
        if record is None:
            # A summary from a cluster that never registered (or was
            # dropped): count it and leave a forensic trail — the child
            # must re-register, exactly like a node-level update_dropped.
            self.summaries_dropped += 1
            journal = self.journal
            if journal is not None and journal.active:
                journal.record(
                    "update_dropped", cluster=summary["cluster"],
                    parent=self.name, reason="unregistered",
                )
            return
        self._apply_summary(record, summary)
        self.summaries_received += 1
        self.summaries_full += 1

    def send_summary_delta(self, cluster: str, delta: dict) -> None:
        """Delta-compressed summary: only changed fields (plus time)."""
        record = self._children.get(cluster)
        if record is None:
            self.summaries_dropped += 1
            journal = self.journal
            if journal is not None and journal.active:
                journal.record(
                    "update_dropped", cluster=cluster,
                    parent=self.name, reason="unregistered",
                )
            return
        merged = apply_delta(record.summary, delta)
        heartbeat = all(key == "time" for key in delta)
        self._apply_summary(record, merged)
        self.summaries_received += 1
        if heartbeat:
            self.summaries_suppressed += 1
        else:
            self.summaries_delta += 1

    def submit_remote(self, spec: dict, origin_cluster: str) -> str:
        """Place a job some other child cluster can run, or return ''.

        When no child qualifies and this node has a parent, the request
        escalates one level up; ``metadata["visited"]`` carries the
        hierarchy path to rule out cycles.
        """
        hist = self._submit_hist
        if hist is None:
            return self._submit_remote_impl(spec, origin_cluster)
        started = perf_counter()
        try:
            return self._submit_remote_impl(spec, origin_cluster)
        finally:
            hist.observe(perf_counter() - started)

    def _submit_remote_impl(self, spec: dict, origin_cluster: str) -> str:
        visited = list(dict(spec.get("metadata", {})).get("visited", []))
        if self.name in visited:
            self.remote_rejections += 1
            return ""
        for record in self._candidates(spec, origin_cluster):
            forwarded = self._tag(spec, origin_cluster, visited)
            try:
                job_id = record.grm_stub.submit(forwarded)
            except OrbError:
                continue
            self.remote_submissions += 1
            return job_id
        if self._parent is not None:
            escalated = self._tag(spec, origin_cluster, visited)
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

    def _tag(self, spec: dict, origin_cluster: str, visited: list) -> dict:
        forwarded = dict(spec)
        metadata = dict(forwarded.get("metadata", {}))
        metadata["no_forward"] = True
        metadata["origin_cluster"] = origin_cluster
        metadata["visited"] = visited + [self.name]
        forwarded["metadata"] = metadata
        return forwarded

    # -- GRM-compatible facade (lets a ParentGrm be someone's child) ---------

    def submit(self, spec) -> str:
        """Place the job in the best child cluster, or raise NoCapacity."""
        if isinstance(spec, dict):
            spec_dict = spec
        else:
            spec_dict = spec.to_dict()
        hist = self._submit_hist
        if hist is None:
            return self._submit_impl(spec_dict)
        started = perf_counter()
        try:
            return self._submit_impl(spec_dict)
        finally:
            hist.observe(perf_counter() - started)

    def _submit_impl(self, spec_dict: dict) -> str:
        for record in self._candidates(spec_dict, origin=""):
            try:
                job_id = record.grm_stub.submit(spec_dict)
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

    def send_delta(self, node, delta) -> None:
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

    def aggregate_oracle(self) -> dict:
        """The seed O(children) recompute, kept as the equivalence oracle."""
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

    def aggregate_summary(self) -> dict:
        """This subtree, summarised as if it were one big cluster."""
        if not self._incremental:
            return self.aggregate_oracle()
        totals = self._totals
        return {
            "cluster": self.name,
            "time": self._loop.now,
            "nodes": totals["nodes"],
            "sharing_nodes": totals["sharing_nodes"],
            "free_cpu_total": totals["free_cpu_total"],
            "free_mem_total_mb": totals["free_mem_total_mb"],
            "max_node_mips": self._mips[-1] if self._mips else 0.0,
            "pending_tasks": totals["pending_tasks"],
        }

    def attach_parent(
        self,
        parent_stub,
        own_grm_facade_ior: str,
        loop: Optional[EventLoop] = None,
        interval: float = DEFAULT_SUMMARY_INTERVAL,
        delta: bool = False,
        full_refresh_every: int = DEFAULT_FULL_REFRESH_EVERY,
        epsilon: float = 0.0,
        max_interval: Optional[float] = None,
    ) -> None:
        """Join a higher-level ParentGrm as one of its 'clusters'.

        With ``delta=True`` the upward stream reuses the information
        plane's :class:`DeltaSender`: changed-fields deltas, heartbeat
        suppression while idle (the interval stretches up to
        ``max_interval``), and an unconditional full refresh every
        ``full_refresh_every`` sends as the drop-resync bound.
        """
        self._parent = parent_stub
        summary = self.aggregate_summary()
        parent_stub.register_cluster(summary, own_grm_facade_ior)
        driver = loop if loop is not None else self._loop
        if not delta:
            driver.every(
                interval,
                lambda: parent_stub.send_summary(self.aggregate_summary()),
            )
            return
        sender = DeltaSender(
            interval,
            full_refresh_every=full_refresh_every,
            epsilon=epsilon,
            max_interval=max_interval,
        )
        sender.register(summary)
        self._uplink_sender = sender

        def fire():
            kind, payload = sender.encode(self.aggregate_summary())
            if kind == FULL:
                parent_stub.send_summary(payload)
                self.uplink_full += 1
            else:
                parent_stub.send_summary_delta(self.name, payload)
                if kind == DELTA:
                    self.uplink_delta += 1
                else:
                    self.uplink_suppressed += 1
            self._uplink_task = driver.schedule(sender.current_interval, fire)

        self._uplink_task = driver.schedule(sender.current_interval, fire)

    # -- summary bookkeeping -----------------------------------------------------

    def _apply_summary(self, record: ClusterRecord, summary: dict) -> None:
        """Store a child's new summary and maintain the derived structures."""
        old = record.summary
        record.summary = summary
        record.last_seen = self._loop.now
        if not record.alive:
            # The child came back: re-admit it to totals and placement.
            record.alive = True
            self._admit(record)
            if self._stale_after is not None:
                heappush(
                    self._expiry_heap,
                    (record.last_seen + self._stale_after,
                     next(self._expiry_seq), record),
                )
            journal = self.journal
            if journal is not None and journal.active:
                journal.record(
                    "cluster_up", cluster=record.cluster, parent=self.name,
                    reason="summaries resumed",
                )
            return
        if self._incremental:
            totals = self._totals
            for key in _SUM_FIELDS:
                delta = summary[key] - old[key]
                if delta:
                    totals[key] += delta
            old_mips = old["max_node_mips"]
            new_mips = summary["max_node_mips"]
            if new_mips != old_mips:
                del self._mips[bisect_left(self._mips, old_mips)]
                insort(self._mips, new_mips)
        if self._indexed:
            key = (-summary["free_cpu_total"], record.seq)
            if key != record.index_key:
                self._index_remove(record)
                record.index_key = key
                insort(self._index, key + (record,))

    def _admit(self, record: ClusterRecord) -> None:
        """Fold a (re)registered child into totals and the index."""
        summary = record.summary
        if self._incremental:
            totals = self._totals
            for key in _SUM_FIELDS:
                totals[key] += summary[key]
            insort(self._mips, summary["max_node_mips"])
        if self._indexed:
            record.index_key = (-summary["free_cpu_total"], record.seq)
            insort(self._index, record.index_key + (record,))

    def _retire(self, record: ClusterRecord) -> None:
        """Remove a child's contribution from totals and the index."""
        if not record.alive:
            return
        summary = record.summary
        if self._incremental:
            totals = self._totals
            for key in _SUM_FIELDS:
                totals[key] -= summary[key]
            del self._mips[bisect_left(self._mips, summary["max_node_mips"])]
        self._index_remove(record)

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

        Same sweep shape as the GRM's node liveness heap: pop only
        entries whose armed expiry passed, re-arm children that kept
        reporting at their real expiry.  A demoted child stays
        registered (its stub may still answer for delegated jobs) but
        leaves the totals and the placement index, so placement never
        ranks — or dials — a dead cluster.
        """
        now = self._loop.now
        heap = self._expiry_heap
        stale_after = self._stale_after
        children = self._children
        while heap and heap[0][0] < now:
            _expiry, _seq, record = heappop(heap)
            if children.get(record.cluster) is not record or not record.alive:
                continue   # unregistered, replaced, or already demoted
            expiry = record.last_seen + stale_after
            if expiry < now:
                self._retire(record)
                record.alive = False
                self.clusters_declared_stale += 1
                journal = self.journal
                if journal is not None and journal.active:
                    journal.record(
                        "cluster_down", cluster=record.cluster,
                        parent=self.name, reason="summaries stale",
                        last_seen=record.last_seen,
                    )
            else:
                heappush(heap, (expiry, next(self._expiry_seq), record))

    # -- selection -----------------------------------------------------------------

    def _candidates(self, spec_dict: dict, origin: str) -> list:
        """Eligible children, best-first, via the index or the seed scan."""
        if self._indexed:
            reqs = spec_dict.get("requirements") or {}
            tasks = spec_dict.get("tasks", 1)
            needed_cpu = tasks * reqs.get("cpu_fraction", 1.0)
            return self._indexed_candidates(
                needed_cpu, tasks, reqs.get("min_mips", 0.0), origin
            )
        parsed = ApplicationSpec.from_dict(spec_dict)
        return self._rank_candidates(parsed, origin)

    def _indexed_candidates(
        self,
        needed_cpu: float,
        tasks: int,
        min_mips: float,
        origin: str,
    ) -> list:
        """Walk the free-CPU index; stop at the first provably-unfit child.

        The index is ordered by spare CPU (descending walk), the one
        eligibility criterion that is monotone in the ordering — every
        child past the first one below ``needed_cpu`` fails too, so the
        walk prunes them without even looking.  The secondary filters
        (sharing node count, fastest node) reject within the prefix.
        """
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

    def _rank_candidates(self, spec: ApplicationSpec, origin: str) -> list:
        """The seed full scan + sort, kept as the placement-order oracle."""
        reqs = spec.requirements
        needed_cpu = spec.tasks * reqs.cpu_fraction
        eligible = []
        for record in self._children.values():
            if record.cluster == origin:
                continue
            if not record.alive:
                continue
            summary = record.summary
            if summary["sharing_nodes"] < spec.tasks:
                continue
            if summary["free_cpu_total"] < needed_cpu:
                continue
            if reqs.min_mips > 0 and summary["max_node_mips"] < reqs.min_mips:
                continue
            eligible.append(record)
        # Least-loaded first: most spare CPU relative to what we need.
        eligible.sort(
            key=lambda r: r.summary["free_cpu_total"], reverse=True
        )
        return eligible

    @property
    def clusters(self) -> list:
        return sorted(self._children)

    def summary_of(self, cluster: str) -> Optional[dict]:
        record = self._children.get(cluster)
        return record.summary if record is not None else None


class ClusterUplink:
    """The child side: registers with the parent and streams summaries.

    ``delta=True`` switches the stream to the information plane's update
    protocol: a full snapshot at registration, changed-fields deltas
    after, time-only heartbeats while nothing changes (at a geometrically
    stretched cadence, up to ``max_interval``), and an unconditional full
    refresh every ``full_refresh_every`` sends as the resync bound.
    """

    def __init__(
        self,
        loop: EventLoop,
        grm: Grm,
        parent_stub,
        grm_ior: str,
        interval: float = DEFAULT_SUMMARY_INTERVAL,
        delta: bool = False,
        full_refresh_every: int = DEFAULT_FULL_REFRESH_EVERY,
        epsilon: float = 0.0,
        max_interval: Optional[float] = None,
    ):
        self._loop = loop
        self._grm = grm
        self._parent = parent_stub
        summary = grm.cluster_summary()
        parent_stub.register_cluster(summary, grm_ior)
        grm.set_parent(parent_stub)
        self.summaries_sent = 0
        self.summaries_full = 0
        self.summaries_delta = 0
        self.summaries_suppressed = 0
        if delta:
            self._delta = DeltaSender(
                interval,
                full_refresh_every=full_refresh_every,
                epsilon=epsilon,
                max_interval=max_interval,
            )
            self._delta.register(summary)
            # Adaptive cadence: one-shot rescheduling at whatever interval
            # the encoder chose (stretched while idle, snapped back on
            # change) — the same drive the LRM uses for node updates.
            self._task = loop.schedule(self._delta.current_interval,
                                       self._fire)
        else:
            self._delta = None
            self._task = loop.every(interval, self._send)

    def _send(self) -> None:
        self._parent.send_summary(self._grm.cluster_summary())
        self.summaries_sent += 1

    def _fire(self) -> None:
        summary = self._grm.cluster_summary()
        kind, payload = self._delta.encode(summary)
        if kind == FULL:
            self._parent.send_summary(payload)
            self.summaries_full += 1
        else:
            self._parent.send_summary_delta(self._grm.cluster, payload)
            if kind == DELTA:
                self.summaries_delta += 1
            else:
                self.summaries_suppressed += 1
        self.summaries_sent += 1
        self._task = self._loop.schedule(self._delta.current_interval,
                                         self._fire)

    def stop(self) -> None:
        if self._delta is not None:
            self._task.cancel()
        else:
            self._task.stop()
