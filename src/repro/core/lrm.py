"""Local Resource Manager (LRM).

Runs on every grid node.  Responsibilities, per Section 4 of the paper:

* collect node status (CPU, memory, disk, network usage) and send it
  periodically to the GRM — the **Information Update Protocol**;
* the node side of the **Resource Reservation and Execution Protocol**:
  admit or refuse reservations (under the owner's NCC policy), start
  tasks, advance them at the machine's effective grid rate, and evict
  them when the owner's policy demands it;
* take periodic portable checkpoints so evicted work can resume
  elsewhere.
"""

from dataclasses import dataclass
from typing import Optional

from repro.checkpoint.store import MemoryCheckpointStore
from repro.core.ncc import NodeControlCenter
from repro.core.reservation import ReservationLedger
from repro.core.update_protocol import (
    DEFAULT_FULL_REFRESH_EVERY,
    DELTA,
    DeltaSender,
    FULL,
)
from repro.security.sandbox import Sandbox, SandboxPolicy, SandboxViolation
from repro.sim.events import EventLoop
from repro.sim.workstation import Workstation

DEFAULT_UPDATE_INTERVAL = 60.0
DEFAULT_TICK_INTERVAL = 30.0


@dataclass
class RunningTask:
    """Execution record of one grid task on this node."""

    task_id: str
    job_id: str
    work_mips: float
    progress_mips: float
    work_limit_mips: float               # pacing barrier (inf when unpaced)
    checkpoint_interval_s: float         # 0 = no checkpointing
    next_checkpoint_at: float
    checkpoint_progress: float           # progress at the last checkpoint
    payload: str = ""                    # sandboxed code run at completion
    limit_notified: bool = False

    @property
    def complete(self) -> bool:
        return self.progress_mips >= self.work_mips - 1e-9

    @property
    def at_limit(self) -> bool:
        return (
            not self.complete
            and self.progress_mips >= self.work_limit_mips - 1e-9
        )


class Lrm:
    """The servant implementing ``integrade/Lrm`` for one node."""

    def __init__(
        self,
        loop: EventLoop,
        workstation: Workstation,
        ncc: NodeControlCenter,
        checkpoint_store: Optional[MemoryCheckpointStore] = None,
        update_interval: float = DEFAULT_UPDATE_INTERVAL,
        tick_interval: float = DEFAULT_TICK_INTERVAL,
        sandbox_policy: Optional[SandboxPolicy] = None,
        delta_updates: bool = False,
        full_refresh_every: int = DEFAULT_FULL_REFRESH_EVERY,
        update_epsilon: float = 0.0,
        max_update_interval: Optional[float] = None,
        skip_unchanged_checkpoints: bool = False,
    ):
        self._loop = loop
        self._workstation = workstation
        self._machine = workstation.machine
        self.ncc = ncc
        self.node = workstation.name
        self.store = checkpoint_store if checkpoint_store is not None \
            else MemoryCheckpointStore()
        self.sandbox_policy = sandbox_policy if sandbox_policy is not None \
            else SandboxPolicy()
        self.sandbox_violations = 0
        self.journal = None
        self.ledger = ReservationLedger(loop, self._machine, node=self.node)
        self._running: dict[str, RunningTask] = {}
        self._grm = None           # stub once attached
        self.ior: Optional[str] = None

        self.skip_unchanged_checkpoints = skip_unchanged_checkpoints
        self.completed_count = 0
        self.evicted_count = 0
        self.checkpoints_taken = 0
        self.checkpoints_skipped = 0
        self.refused_reservations = 0
        self.accepted_reservations = 0
        self.updates_sent = 0
        self.updates_full = 0
        self.updates_delta = 0
        self.updates_suppressed = 0

        workstation.on_owner_change(self._owner_changed)
        self._tick_task = loop.every(tick_interval, self._tick)
        self._update_interval = update_interval
        self._update_task = None
        self.delta_updates = delta_updates
        self._delta = (
            DeltaSender(
                update_interval,
                full_refresh_every=full_refresh_every,
                epsilon=update_epsilon,
                max_interval=max_update_interval,
            )
            if delta_updates else None
        )
        # The NodeStatus fields that never change, in NODE_STATUS order;
        # status() copies this and fills in the live ones.
        spec = self._machine.spec
        self._status_template = {
            "node": self.node, "time": 0.0,
            "mips": spec.mips, "ram_mb": spec.ram_mb,
            "disk_mb": spec.disk_mb, "os": spec.os, "arch": spec.arch,
            "cpu_free": 0.0, "mem_free_mb": 0.0, "disk_free_mb": 0.0,
            "net_mbps": spec.net_mbps, "net_free_mbps": 0.0,
            "owner_active": False, "sharing": False, "grid_tasks": 0,
        }

    # -- wiring ----------------------------------------------------------------

    def to_metrics(self, registry, prefix: Optional[str] = None) -> None:
        """Publish this node's counters as registry views (pull-only)."""
        prefix = prefix if prefix is not None else f"lrm.{self.node}"
        registry.bind(prefix, self, (
            "completed_count", "evicted_count", "checkpoints_taken",
            "checkpoints_skipped",
            "refused_reservations", "accepted_reservations",
            "updates_sent", "updates_full", "updates_delta",
            "updates_suppressed", "sandbox_violations",
        ))
        registry.view(f"{prefix}.running_tasks", lambda: len(self._running))

    def set_journal(self, journal) -> None:
        """Attach the grid's event journal (checkpoint/reservation events)."""
        self.journal = journal
        self.ledger.journal = journal

    def attach_grm(self, grm_stub, own_ior: str) -> None:
        """Register with the cluster's GRM and begin periodic updates."""
        self._grm = grm_stub
        self.ior = own_ior
        status = self.status()
        grm_stub.register_node(status, own_ior)
        if self._delta is not None:
            # The registration snapshot is the receiver's baseline; later
            # sends encode against it.  Delta mode drives its own adaptive
            # one-shot rescheduling (the interval changes per send), so it
            # cannot reuse the fixed-cadence PeriodicTask.
            self._delta.register(status)
            if self._update_task is None:
                self._update_task = self._loop.schedule(
                    self._delta.current_interval, self._fire_update
                )
        elif self._update_task is None:
            self._update_task = self._loop.every(
                self._update_interval, self._send_update
            )

    def detach(self) -> None:
        """Leave the grid: stop timers and evict everything."""
        self._tick_task.stop()
        if self._update_task is not None:
            if self._delta is not None:
                self._update_task.cancel()
            else:
                self._update_task.stop()
            self._update_task = None
        for task_id in list(self._running):
            self._evict(task_id, reason="node leaving the grid")

    # -- Information Update Protocol -----------------------------------------------

    def status(self) -> dict:
        """The NodeStatus record the GRM stores in its Trader.

        A fresh dict every call: the record crosses the ORB by reference
        and the GRM keeps it.
        """
        machine = self._machine
        status = self._status_template.copy()
        status["time"] = self._loop.now
        status["disk_free_mb"] = max(
            0.0, status["disk_mb"] - machine.disk_used_mb
        )
        owner_present = self._workstation.owner_present
        status["owner_active"] = owner_present
        status["grid_tasks"] = len(self._running)
        ncc = self.ncc
        if ncc.sharing_now():
            status["sharing"] = True
            status["cpu_free"] = machine.cpu_available_for_grid(
                ncc.cpu_cap(owner_present)
            )
            status["mem_free_mb"] = machine.mem_available_for_grid(
                ncc.mem_cap_mb()
            )
            status["net_free_mbps"] = machine.net_free_mbps()
        return status

    # servant operation
    def get_status(self) -> dict:
        return self.status()

    # servant operation
    def ping(self) -> bool:
        return True

    def _send_update(self) -> None:
        if self._grm is None:
            return
        if self._delta is None:
            self._grm.send_update(self.status())
            self.updates_sent += 1
            return
        kind, payload = self._delta.encode(self.status())
        if kind == FULL:
            self._grm.send_update(payload)
            self.updates_full += 1
        else:
            self._grm.send_delta(self.node, payload)
            if kind == DELTA:
                self.updates_delta += 1
            else:
                self.updates_suppressed += 1
        self.updates_sent += 1

    def _fire_update(self) -> None:
        """Adaptive-cadence send: one shot, rescheduled at the (possibly
        stretched or snapped-back) interval the encoder just chose."""
        self._send_update()
        self._update_task = self._loop.schedule(
            self._delta.current_interval, self._fire_update
        )

    # -- Reservation and Execution Protocol -------------------------------------------

    # servant operation
    def request_reservation(self, request: dict) -> dict:
        """Direct negotiation step: confirm the GRM's hint, or refuse."""
        owner_present = self._workstation.owner_present
        ok, reason = self.ncc.admission_check(
            owner_present, request["cpu_fraction"]
        )
        if not ok:
            self.refused_reservations += 1
            return {"accepted": False, "reason": reason}
        cap = self.ncc.cpu_cap(owner_present)
        if request["cpu_fraction"] > self._machine.cpu_available_for_grid(cap) + 1e-9:
            self.refused_reservations += 1
            return {"accepted": False, "reason": "cpu no longer available"}
        mem_avail = self._machine.mem_available_for_grid(self.ncc.mem_cap_mb())
        if request["mem_mb"] > mem_avail + 1e-9:
            self.refused_reservations += 1
            return {"accepted": False, "reason": "memory no longer available"}
        try:
            self.ledger.reserve(
                request["task_id"],
                request["cpu_fraction"],
                request["mem_mb"],
                request["disk_mb"],
                request["lease_seconds"],
            )
        except Exception as exc:
            self.refused_reservations += 1
            return {"accepted": False, "reason": str(exc)}
        self.accepted_reservations += 1
        journal = self.journal
        if journal is not None and journal.active:
            journal.record(
                "reservation_granted", node=self.node,
                task_id=request["task_id"],
                cpu_fraction=request["cpu_fraction"],
                mem_mb=request["mem_mb"],
                lease_seconds=request["lease_seconds"],
            )
        return {"accepted": True, "reason": "ok"}

    # servant operation
    def cancel_reservation(self, task_id: str) -> None:
        if self.ledger.holds(task_id):
            self.ledger.release(task_id)

    # servant operation
    def start_task(self, launch: dict) -> bool:
        """Execution step: convert a reservation into a running task."""
        task_id = launch["task_id"]
        if not self.ledger.holds(task_id):
            return False
        if task_id in self._running:
            return False
        self.ledger.confirm(task_id)
        interval = launch["checkpoint_interval_s"]
        self._running[task_id] = RunningTask(
            task_id=task_id,
            job_id=launch["job_id"],
            work_mips=launch["work_mips"],
            progress_mips=launch["initial_progress_mips"],
            work_limit_mips=float("inf"),
            checkpoint_interval_s=interval,
            next_checkpoint_at=(
                self._loop.now + interval if interval > 0 else float("inf")
            ),
            checkpoint_progress=launch["initial_progress_mips"],
            payload=launch.get("payload", ""),
        )
        return True

    # servant operation
    def stop_task(self, task_id: str) -> float:
        """Stop silently (migration); returns the progress at stop."""
        record = self._running.pop(task_id, None)
        if record is None:
            return -1.0
        self.ledger.release(task_id)
        return record.progress_mips

    # servant operation
    def set_work_limit(self, task_id: str, limit_mips: float) -> None:
        record = self._require(task_id)
        record.work_limit_mips = limit_mips
        record.limit_notified = False

    # servant operation
    def get_progress(self, task_id: str) -> float:
        return self._require(task_id).progress_mips

    # servant operation
    def rollback_task(self, task_id: str, to_progress: float) -> None:
        record = self._require(task_id)
        record.progress_mips = min(record.progress_mips, to_progress)
        record.checkpoint_progress = min(
            record.checkpoint_progress, to_progress
        )
        record.limit_notified = False

    def _require(self, task_id: str) -> RunningTask:
        record = self._running.get(task_id)
        if record is None:
            raise KeyError(f"no running task {task_id!r} on {self.node}")
        return record

    # -- execution ---------------------------------------------------------------

    @property
    def running_tasks(self) -> list:
        return sorted(self._running)

    def task_rate_mips(self, task_id: str) -> float:
        """Effective rate for one task: machine contention plus NCC cap."""
        record = self._running.get(task_id)
        if record is None:
            return 0.0
        reservation = self.ledger.get(task_id)
        if reservation is None:
            return 0.0
        owner_present = self._workstation.owner_present
        if not self.ncc.sharing_now():
            return 0.0
        cap = self.ncc.cpu_cap(owner_present)
        grid_total = self._machine.grid_cpu
        if grid_total <= 0:
            return 0.0
        available = max(0.0, 1.0 - self._machine.owner_cpu)
        scale = min(1.0, available / grid_total, cap / grid_total)
        return self._machine.spec.mips * reservation.cpu_fraction * scale

    def _tick(self) -> None:
        if not self._running:
            return   # nothing to advance, checkpoint, or evict
        now = self._loop.now
        if not self.ncc.sharing_now():
            for task_id in list(self._running):
                self._evict(task_id, reason="blackout window")
            return
        interval = self._tick_task.interval
        for task_id in list(self._running):
            record = self._running.get(task_id)
            if record is None:
                continue
            rate = self.task_rate_mips(task_id)
            if rate > 0 and not record.at_limit:
                headroom = min(record.work_mips, record.work_limit_mips)
                record.progress_mips = min(
                    headroom, record.progress_mips + rate * interval
                )
            if record.checkpoint_interval_s > 0 and now >= record.next_checkpoint_at:
                self._checkpoint(record, now)
            if record.complete:
                self._complete(task_id)
            elif record.at_limit and not record.limit_notified:
                record.limit_notified = True
                if self._grm is not None:
                    self._grm.task_reached_limit(self.node, task_id)

    def _checkpoint(self, record: RunningTask, now: float) -> None:
        if self.skip_unchanged_checkpoints \
                and record.progress_mips == record.checkpoint_progress:
            # The task made no progress since the last save (suspended
            # while the owner uses the machine): the stored checkpoint
            # is already current, so skip the serialize-and-store cycle
            # but keep the cadence armed.
            record.next_checkpoint_at = now + record.checkpoint_interval_s
            self.checkpoints_skipped += 1
            return
        self.store.save(
            record.task_id,
            {"progress_mips": record.progress_mips, "job_id": record.job_id},
            now,
        )
        record.checkpoint_progress = record.progress_mips
        record.next_checkpoint_at = now + record.checkpoint_interval_s
        self.checkpoints_taken += 1
        journal = self.journal
        if journal is not None and journal.active:
            journal.record(
                "checkpoint_saved", node=self.node,
                job_id=record.job_id, task_id=record.task_id,
                progress_mips=record.progress_mips,
            )

    def _complete(self, task_id: str) -> None:
        record = self._running.pop(task_id)
        self.ledger.release(task_id)
        self.store.discard(task_id)
        self.completed_count += 1
        result = self._run_payload(record)
        if self._grm is not None:
            self._grm.task_completed(self.node, task_id, result)

    def _run_payload(self, record: RunningTask):
        """Execute the task's code in the owner-protecting sandbox."""
        if not record.payload:
            return None
        sandbox = Sandbox(self.sandbox_policy)
        inputs = {
            "task_id": record.task_id,
            "job_id": record.job_id,
            "node": self.node,
            "task_index": int(record.task_id.rsplit(".", 1)[-1])
            if "." in record.task_id else 0,
        }
        try:
            return sandbox.run(record.payload, inputs=inputs)
        except SandboxViolation as exc:
            self.sandbox_violations += 1
            return {"__error__": str(exc), "__audit__": sandbox.audit_log}

    def _evict(self, task_id: str, reason: str) -> None:
        record = self._running.pop(task_id, None)
        if record is None:
            return
        self.ledger.release(task_id)
        self.evicted_count += 1
        resume = (
            record.checkpoint_progress
            if record.checkpoint_interval_s > 0 else 0.0
        )
        if self._grm is not None:
            self._grm.task_evicted(
                self.node, task_id, record.progress_mips, resume
            )

    def _owner_changed(self, present: bool) -> None:
        if not (present and self.ncc.should_vacate(owner_present=True)):
            return
        grace = self.ncc.policy.vacate_grace_s
        if grace <= 0:
            for task_id in list(self._running):
                self._evict(task_id, reason="owner returned")
            return
        # Suspend (the zero active-cap already stalls the tasks); only
        # evict if the owner is still there when the grace expires.
        self._loop.schedule(grace, self._grace_expired)

    def _grace_expired(self) -> None:
        if not self._workstation.owner_present:
            return   # short visit: the tasks just resume
        for task_id in list(self._running):
            self._evict(task_id, reason="owner stayed past grace")
