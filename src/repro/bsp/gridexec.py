"""Grid-side BSP execution: superstep pacing, communication cost,
checkpoints, and rollback.

The GRM that accepts a BSP job builds its coordinator and
gang-schedules the job's processes; the coordinator then drives them
superstep by superstep:

* each process may compute only up to the current superstep barrier
  (a *work limit* on its LRM);
* when every member reaches the barrier, the coordinator charges the
  superstep's communication time (from the cluster network model) and
  releases the next superstep;
* every ``checkpoint_every`` supersteps it saves portable per-member
  checkpoints into the cluster repository;
* on eviction, migration or node crash, all surviving members are
  rolled back to the last checkpointed superstep and the lost member is
  re-placed by the GRM, resuming from that same superstep.  Every
  checkpoint saves every member still running at the same superstep,
  so that one number is the job's globally consistent cut.
"""

from typing import Optional

from repro.apps.job import Job, TaskState
from repro.apps.registry import DEFAULT_REGISTRY
from repro.checkpoint.store import MemoryCheckpointStore
from repro.orb.exceptions import OrbError
from repro.sim.events import EventLoop

DEFAULT_SUPERSTEPS = 10
DEFAULT_COMM_BYTES = 100_000
BARRIER_LATENCY_S = 0.05


class BspGridCoordinator:
    """Coordinates one BSP job's supersteps across grid nodes."""

    def __init__(
        self,
        loop: EventLoop,
        grm,
        job: Job,
        checkpoint_store: Optional[MemoryCheckpointStore] = None,
    ):
        self._loop = loop
        self._grm = grm
        self.job = job
        spec = job.spec
        self.supersteps = int(spec.metadata.get("supersteps", DEFAULT_SUPERSTEPS))
        if self.supersteps <= 0:
            raise ValueError("a BSP job needs at least one superstep")
        self.comm_bytes = int(
            spec.metadata.get("superstep_comm_bytes", DEFAULT_COMM_BYTES)
        )
        self.checkpoint_every = spec.checkpoint_every_supersteps
        self.work_per_superstep = spec.work_mips / self.supersteps
        self.store = checkpoint_store
        self.current_superstep = 0           # the superstep now executing
        self.checkpointed = 0                # the last superstep saved
        self._nodes: dict[str, str] = {}     # task_id -> node
        self._reached: set = set()
        self._completed: set = set()
        self._advance_event = None           # pending comm-delay event
        self.checkpoints_saved = 0
        self.rollbacks = 0
        self.comm_seconds_total = 0.0
        self.executed_results: Optional[list] = None

    # -- GRM callbacks ------------------------------------------------------------

    def members_started(self, assignments: dict) -> None:
        """New or re-placed members began running; pace them."""
        for task_id, node in assignments.items():
            self._nodes[task_id] = node
            self._set_limit(task_id, self.current_superstep + 1)

    def member_reached_limit(self, task_id: str, node: str) -> None:
        """A member hit the current superstep barrier."""
        if self._nodes.get(task_id) != node:
            return   # stale notification from a node it no longer runs on
        self._reached.add(task_id)
        self._maybe_finish_superstep()

    def member_evicted(self, task_id: str, node: str) -> None:
        """A member was lost; roll everyone back to the last checkpoint."""
        self._nodes.pop(task_id, None)
        self._reached.discard(task_id)
        self.rollbacks += 1
        # A barrier crossing may be mid-flight (waiting out the modelled
        # communication delay); the rollback supersedes it.
        if self._advance_event is not None:
            self._advance_event.cancel()
            self._advance_event = None
        target_progress = self.checkpointed * self.work_per_superstep
        journal = self._grm.journal
        if journal is not None and journal.active:
            journal.record(
                "checkpoint_restored", node=node,
                job_id=self.job.job_id, task_id=task_id,
                superstep=self.checkpointed,
                from_superstep=self.current_superstep,
                survivors=len(self._nodes),
            )
        self.current_superstep = self.checkpointed
        self._reached.clear()
        # Roll surviving members back and re-arm the barrier, accounting
        # the progress they lose past the checkpoint as wasted work.
        for member, member_node in list(self._nodes.items()):
            stub = self._grm.lrm_stub(member_node)
            if stub is None:
                continue
            try:
                progress = stub.get_progress(member)
                stub.rollback_task(member, target_progress)
                stub.set_work_limit(
                    member, self._limit_mips(self.checkpointed + 1)
                )
            except OrbError:
                continue
            survivor = self._task(member)
            if survivor is not None:
                survivor.wasted_mips += max(0.0, progress - target_progress)
                survivor.progress_mips = min(
                    target_progress, survivor.work_mips
                )
        # The lost member restarts from the checkpointed superstep.  The
        # GRM's eviction handling kept the progress its node vouched for
        # (none after an owner eviction, all of it after a migration, the
        # stored checkpoint after a crash) and charged the rest as wasted;
        # settle the difference to the checkpoint (a roll *forward* is
        # intentional: the state lives in the checkpoint repository, not
        # on the node it left).
        entry = self._task(task_id)
        if entry is not None:
            entry.wasted_mips = max(
                0.0, entry.wasted_mips + entry.progress_mips - target_progress
            )
            entry.progress_mips = min(target_progress, entry.work_mips)

    def member_completed(self, task_id: str) -> None:
        self._completed.add(task_id)
        self._nodes.pop(task_id, None)
        if len(self._completed) == len(self.job.tasks):
            self._execute_program()

    def _execute_program(self) -> None:
        """Functional simulation: run the real BSP program for results.

        The grid execution modelled the *cost*; if the spec's program
        name is in :data:`~repro.apps.registry.DEFAULT_REGISTRY`, the
        actual computation now runs on the executable BSP runtime and
        each process's return value lands on its task, exactly like a
        sequential payload result.
        """
        name = self.job.spec.program
        if name is None or name not in DEFAULT_REGISTRY:
            return
        from repro.bsp.runtime import BspError, run_bsp

        fn, default_args = DEFAULT_REGISTRY.get(name)
        args = tuple(self.job.spec.metadata.get("program_args", default_args))
        try:
            run = run_bsp(len(self.job.tasks), fn, *args)
        except BspError as exc:
            self.executed_results = None
            for task in self.job.tasks:
                task.result = {"__error__": str(exc)}
            return
        self.executed_results = run.results
        for task, result in zip(self.job.tasks, run.results):
            task.result = result

    # -- superstep machinery ---------------------------------------------------------

    def _task(self, task_id: str):
        for task in self.job.tasks:
            if task.task_id == task_id:
                return task
        return None

    def _limit_mips(self, superstep_end: int) -> float:
        if superstep_end >= self.supersteps:
            return float("inf")   # last barrier passed: run to completion
        return superstep_end * self.work_per_superstep

    def _set_limit(self, task_id: str, superstep_end: int) -> None:
        node = self._nodes.get(task_id)
        if node is None:
            return
        stub = self._grm.lrm_stub(node)
        if stub is None:
            return
        try:
            stub.set_work_limit(task_id, self._limit_mips(superstep_end))
        except OrbError:
            pass

    def _active_members(self) -> set:
        return {
            t.task_id
            for t in self.job.tasks
            if t.state is TaskState.RUNNING
        }

    def _maybe_finish_superstep(self) -> None:
        active = self._active_members()
        if not active or self._advance_event is not None:
            return
        if not active <= (self._reached | self._completed):
            return
        if set(self._nodes) != active:
            return   # someone is being re-placed; wait for them
        comm_delay = self._communication_seconds()
        self.comm_seconds_total += comm_delay
        self._advance_event = self._loop.schedule(
            comm_delay, self._advance_superstep
        )

    def _group_of_task(self) -> dict:
        """task_id -> virtual group index (everyone in group 0 if none)."""
        topology = self.job.spec.topology
        groups: dict[str, int] = {}
        if topology is None:
            for task in self.job.tasks:
                groups[task.task_id] = 0
            return groups
        index = 0
        for group_number, group in enumerate(topology.groups):
            for _ in range(group.count):
                groups[self.job.tasks[index].task_id] = group_number
                index += 1
        return groups

    def _communication_seconds(self) -> float:
        """Superstep exchange time with virtual-group traffic locality.

        Each process injects ``comm_bytes`` per superstep: INTRA_FRACTION
        of it to its own virtual group, the rest spread over other
        groups.  Bytes between processes on the same LAN segment load
        that segment; bytes between segments load the (slower) path
        between them.  The superstep pays the most-loaded medium, plus
        path latency and the barrier — so scattering a group across a
        slow uplink hurts, which is exactly what topology-aware
        placement avoids.
        """
        INTRA_FRACTION = 0.8
        network = getattr(self._grm, "network", None)
        members = sorted(self._nodes)   # task ids
        n = len(members)
        if network is None or n < 2 or self.comm_bytes <= 0:
            return BARRIER_LATENCY_S
        groups = self._group_of_task()
        segment_of = {}
        for task_id in members:
            try:
                segment_of[task_id] = network.segment_of(
                    self._nodes[task_id]
                )
            except KeyError:
                return BARRIER_LATENCY_S

        group_sizes: dict[int, int] = {}
        for task_id in members:
            group = groups.get(task_id, 0)
            group_sizes[group] = group_sizes.get(group, 0) + 1

        load_bytes: dict[tuple, float] = {}   # (seg_a, seg_b) sorted -> bytes
        for sender in members:
            own_group = groups.get(sender, 0)
            own_peers = group_sizes[own_group] - 1
            other_peers = n - group_sizes[own_group]
            for receiver in members:
                if receiver == sender:
                    continue
                if groups.get(receiver, 0) == own_group:
                    share = (
                        INTRA_FRACTION / own_peers if own_peers else 0.0
                    )
                else:
                    share = (
                        (1.0 - INTRA_FRACTION) / other_peers
                        if other_peers else 0.0
                    )
                key = tuple(sorted(
                    (segment_of[sender], segment_of[receiver])
                ))
                load_bytes[key] = load_bytes.get(key, 0.0) + \
                    self.comm_bytes * share

        worst_seconds = 0.0
        worst_latency_ms = 0.0
        for (seg_a, seg_b), nbytes in load_bytes.items():
            if seg_a == seg_b:
                link = network.segment_internal(seg_a)
            else:
                node_a = next(
                    self._nodes[t] for t in members if segment_of[t] == seg_a
                )
                node_b = next(
                    self._nodes[t] for t in members if segment_of[t] == seg_b
                )
                link = network.link_between(node_a, node_b)
                if link is None:
                    continue
            seconds = (nbytes * 8) / (link.bandwidth_mbps * 1e6)
            worst_seconds = max(worst_seconds, seconds)
            worst_latency_ms = max(worst_latency_ms, link.latency_ms)
        return worst_seconds + worst_latency_ms / 1000.0 + BARRIER_LATENCY_S

    def _advance_superstep(self) -> None:
        self._advance_event = None
        finished = self.current_superstep + 1
        self.current_superstep = finished
        journal = self._grm.journal
        if journal is not None and journal.active:
            journal.record(
                "bsp_superstep", job_id=self.job.job_id,
                superstep=finished, supersteps=self.supersteps,
                members=len(self._nodes),
            )
        if (
            self.checkpoint_every > 0
            and finished % self.checkpoint_every == 0
            and finished < self.supersteps
        ):
            self._checkpoint(finished)
        self._reached.clear()
        for task_id in list(self._nodes):
            self._set_limit(task_id, finished + 1)

    def _checkpoint(self, superstep: int) -> None:
        progress = superstep * self.work_per_superstep
        for task in self.job.tasks:
            if task.task_id in self._completed:
                continue
            if self.store is not None:
                self.store.save(
                    task.task_id,
                    {
                        "job_id": self.job.job_id,
                        "superstep": superstep,
                        "progress_mips": progress,
                    },
                    self._loop.now,
                )
        self.checkpointed = superstep
        self.checkpoints_saved += 1
        journal = self._grm.journal
        if journal is not None and journal.active:
            journal.record(
                "checkpoint_saved", job_id=self.job.job_id,
                superstep=superstep,
                members=len(self.job.tasks) - len(self._completed),
            )

    # -- monitoring --------------------------------------------------------------------

    def status(self) -> dict:
        return {
            "job_id": self.job.job_id,
            "superstep": self.current_superstep,
            "supersteps": self.supersteps,
            "members_running": len(self._nodes),
            "members_completed": len(self._completed),
            "rollbacks": self.rollbacks,
            "checkpoints_saved": self.checkpoints_saved,
        }
