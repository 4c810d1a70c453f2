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

Execution is event-driven, not ticked.  Between two changes a task runs
at a constant rate, so its progress is a closed form: every
:class:`RunningTask` carries the rate in force since the LRM last
*settled*, and anything that can change a rate — the owner's load, a
reservation made or released on the machine, the owner arriving or
leaving, a task started, stopped, paced or rolled back, a blackout
edge — first settles ``progress += rate * (now - settled_at)`` at the
*old* rates and then re-plans **one** wake-up for the next instant at
which something has to be done: the earliest completion, work limit,
checkpoint or blackout edge.  An LRM with nothing running has no event
in the heap, and a completion, eviction or checkpoint happens at the
instant it falls due rather than at the next multiple of a tick.

The same change notifications mark the node's status dirty; an update
interval that finds it clean sends a ``heartbeat`` instead of a status.
"""

from dataclasses import dataclass
from math import inf
from typing import Optional

from repro.checkpoint.store import MemoryCheckpointStore
from repro.core.ncc import NodeControlCenter
from repro.core.reservation import ReservationLedger
from repro.security.sandbox import Sandbox, SandboxPolicy, SandboxViolation
from repro.sim.clock import SECONDS_PER_DAY
from repro.sim.events import EventLoop
from repro.sim.workstation import Workstation

DEFAULT_UPDATE_INTERVAL = 60.0

#: Every this-many sends is a status whether or not anything changed:
#: the bound on how long a lost update can leave the GRM wrong.
DEFAULT_FULL_REFRESH_EVERY = 10

#: The longest lease a reservation may ask for: an unconfirmed lease
#: holds owner resources until it lapses.
MAX_LEASE_SECONDS = SECONDS_PER_DAY


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
    rate_mips: float = 0.0               # in force since the last settling
    due_at: float = inf                  # when it reaches min(work, limit)

    @property
    def complete(self) -> bool:
        return self.progress_mips >= self.work_mips - 1e-9

    @property
    def at_limit(self) -> bool:
        return (
            not self.complete
            and self.progress_mips >= self.work_limit_mips - 1e-9
        )


class _Settled:
    """``with lrm._settled:`` — brackets every entry that can change a rate.

    On the way in, the outermost entry settles progress at the old
    rates; on the way out it re-plans the wake-up.  Entries nest:
    collocated oneways are direct calls, so a notification sent from
    inside a wake-up can come straight back into the same LRM (a BSP
    coordinator raising a limit from inside ``task_reached_limit``, the
    ledger's release firing ``Machine.on_change`` mid-completion).  No
    simulated time passes inside an event, so the inner entries find
    everything settled already and leave the single re-plan to the
    outermost one.
    """

    __slots__ = ("_lrm", "_depth")

    def __init__(self, lrm: "Lrm"):
        self._lrm = lrm
        self._depth = 0

    def __enter__(self) -> None:
        if self._depth == 0:
            self._lrm._settle()
        self._depth += 1

    def __exit__(self, *exc_info) -> None:
        self._depth -= 1
        if self._depth == 0:
            self._lrm._replan()


class Lrm:
    """The servant implementing ``integrade/Lrm`` for one node."""

    #: The integer counters published as metrics, per node and summed
    #: across the grid.
    COUNTERS = (
        "completed_count", "evicted_count", "checkpoints_taken",
        "checkpoints_skipped",
        "refused_reservations", "accepted_reservations",
        "updates_sent", "updates_full", "heartbeats_sent",
        "sandbox_violations",
    )

    def __init__(
        self,
        loop: EventLoop,
        workstation: Workstation,
        ncc: NodeControlCenter,
        checkpoint_store: Optional[MemoryCheckpointStore] = None,
        update_interval: float = DEFAULT_UPDATE_INTERVAL,
        sandbox_policy: Optional[SandboxPolicy] = None,
        full_refresh_every: int = DEFAULT_FULL_REFRESH_EVERY,
    ):
        if full_refresh_every < 1:
            raise ValueError(
                f"full_refresh_every must be >= 1, got {full_refresh_every}"
            )
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

        self.completed_count = 0
        self.evicted_count = 0
        self.checkpoints_taken = 0
        self.checkpoints_skipped = 0
        self.refused_reservations = 0
        self.accepted_reservations = 0
        self.updates_full = 0
        self.heartbeats_sent = 0

        # Execution state: when progress was last settled, the one
        # wake-up planned from it, and the next blackout edge (cached
        # until it passes).
        self._settled = _Settled(self)
        self._settled_at = loop.now
        self._wake = None
        self._sharing_change_at = -inf
        self._crashed = False
        workstation.on_owner_change(self._owner_changed)
        self._machine.on_change = self._machine_changed

        self._update_interval = update_interval
        self._update_task = None
        self._full_refresh_every = full_refresh_every
        self._status_dirty = False
        self._sends_since_full = 0
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
        registry.bind(prefix, self, self.COUNTERS)
        registry.view(f"{prefix}.running_tasks", lambda: len(self._running))

    def set_journal(self, journal) -> None:
        """Attach the grid's event journal (checkpoint/reservation events)."""
        self.journal = journal
        self.ledger.journal = journal

    def attach_grm(self, grm_stub, own_ior: str) -> None:
        """Register with the cluster's GRM and begin periodic updates."""
        self._grm = grm_stub
        self.ior = own_ior
        grm_stub.register_node(self.status(), own_ior)
        # The registration snapshot is the GRM's baseline.
        self._next_sharing_change()
        self._status_dirty = False
        self._sends_since_full = 0
        if self._update_task is None:
            self._update_task = self._loop.every(
                self._update_interval, self._send_update
            )

    def detach(self) -> None:
        """Leave the grid: stop timers and evict everything."""
        self._stop_updates()
        with self._settled:
            for task_id in list(self._running):
                self._evict(task_id, reason="node leaving the grid")

    def crash(self) -> None:
        """Die without a word: the node-crash fault (the one ROADMAP
        item 4's fault plan will inject).

        Progress freezes where it stands, the wake-up and the update
        timer are cancelled and the GRM is told nothing — not now and
        not by anything that fires later — so it finds out the way the
        paper says it must, from the node's status going stale.
        """
        with self._settled:   # work done up to the crash, then no plan
            self._crashed = True
            for record in self._running.values():
                record.rate_mips = 0.0
        self._stop_updates()
        self._grm = None

    def _stop_updates(self) -> None:
        if self._update_task is not None:
            self._update_task.stop()
            self._update_task = None

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

    @property
    def updates_sent(self) -> int:
        """Every update message sent: ``updates_full + heartbeats_sent``."""
        return self.updates_full + self.heartbeats_sent

    def _next_sharing_change(self) -> float:
        """The next blackout edge; crossing one dirties the status."""
        if self._loop.now >= self._sharing_change_at:
            self._sharing_change_at = self.ncc.next_sharing_change(
                self._loop.now
            )
            self._status_dirty = True
        return self._sharing_change_at

    def _send_update(self) -> None:
        """One interval of the protocol: a status if it changed since
        the last one sent (or every ``full_refresh_every``-th send
        regardless, which bounds how long a lost update can leave the
        GRM wrong), a heartbeat otherwise."""
        grm = self._grm
        if grm is None:
            return
        if self._loop.now >= self._sharing_change_at:
            self._next_sharing_change()
        self._sends_since_full += 1
        if self._status_dirty \
                or self._sends_since_full >= self._full_refresh_every:
            self._status_dirty = False
            self._sends_since_full = 0
            grm.send_update(self.status())
            self.updates_full += 1
        else:
            grm.heartbeat(self.node)
            self.heartbeats_sent += 1

    # -- Reservation and Execution Protocol -------------------------------------------

    # servant operation
    def request_reservation(self, request: dict) -> dict:
        """Direct negotiation step: confirm the GRM's hint, or refuse.

        Values no honest GRM sends are refused before anything is
        committed: a CPU share outside (0, 1], negative or non-finite
        memory or disk, a lease outside (0, ``MAX_LEASE_SECONDS``].
        Every comparison is false for NaN, so NaN is refused too.
        """
        if not (0.0 < request["cpu_fraction"] <= 1.0
                and 0.0 <= request["mem_mb"] < inf
                and 0.0 <= request["disk_mb"] < inf
                and 0.0 < request["lease_seconds"] <= MAX_LEASE_SECONDS):
            return self._refuse("request out of range")
        owner_present = self._workstation.owner_present
        ok, reason = self.ncc.admission_check(
            owner_present, request["cpu_fraction"]
        )
        if not ok:
            return self._refuse(reason)
        cap = self.ncc.cpu_cap(owner_present)
        if request["cpu_fraction"] > self._machine.cpu_available_for_grid(cap) + 1e-9:
            return self._refuse("cpu no longer available")
        mem_avail = self._machine.mem_available_for_grid(self.ncc.mem_cap_mb())
        if request["mem_mb"] > mem_avail + 1e-9:
            return self._refuse("memory no longer available")
        try:
            self.ledger.reserve(
                request["task_id"],
                request["cpu_fraction"],
                request["mem_mb"],
                request["disk_mb"],
                request["lease_seconds"],
            )
        except Exception as exc:
            return self._refuse(str(exc))
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

    def _refuse(self, reason: str) -> dict:
        """A refusal carries the free capacity a status sent now would,
        so the GRM's next candidate choice does not repeat the mistake."""
        self.refused_reservations += 1
        status = self.status()
        return {
            "accepted": False, "reason": reason,
            "cpu_free": status["cpu_free"],
            "mem_free_mb": status["mem_free_mb"],
        }

    # servant operation
    def cancel_reservation(self, task_id: str) -> None:
        if self.ledger.holds(task_id):
            self.ledger.release(task_id)

    # servant operation
    def start_task(self, launch: dict) -> bool:
        """Execution step: convert a reservation into a running task.

        A launch no honest GRM sends is refused, and its reservation
        lapses with its lease: work must be finite and positive, the
        starting progress in [0, work], the checkpoint interval finite
        and >= 0 (NaN fails every comparison, so it is refused too).
        """
        work = launch["work_mips"]
        if not (0.0 < work < inf
                and 0.0 <= launch["initial_progress_mips"] <= work
                and 0.0 <= launch["checkpoint_interval_s"] < inf):
            return False
        task_id = launch["task_id"]
        if not self.ledger.holds(task_id):
            return False
        if task_id in self._running:
            return False
        with self._settled:
            self.ledger.confirm(task_id)
            interval = launch["checkpoint_interval_s"]
            self._running[task_id] = RunningTask(
                task_id=task_id,
                job_id=launch["job_id"],
                work_mips=launch["work_mips"],
                progress_mips=launch["initial_progress_mips"],
                work_limit_mips=inf,
                checkpoint_interval_s=interval,
                next_checkpoint_at=(
                    self._loop.now + interval if interval > 0 else inf
                ),
                checkpoint_progress=launch["initial_progress_mips"],
                payload=launch.get("payload", ""),
            )
            self._status_dirty = True   # grid_tasks moved
        return True

    # servant operation
    def stop_task(self, task_id: str) -> float:
        """Stop silently (migration); returns the progress at stop."""
        with self._settled:
            record = self._running.pop(task_id, None)
            if record is None:
                return -1.0
            self.ledger.release(task_id)
            return record.progress_mips

    # servant operation
    def set_work_limit(self, task_id: str, limit_mips: float) -> None:
        with self._settled:
            record = self._require(task_id)
            record.work_limit_mips = limit_mips
            record.limit_notified = False

    # servant operation
    def get_progress(self, task_id: str) -> float:
        self._settle()   # reading changes no rate: the plan stands
        return self._require(task_id).progress_mips

    # servant operation
    def rollback_task(self, task_id: str, to_progress: float) -> None:
        with self._settled:
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
        """Effective rate for one task: the machine's, under the NCC cap."""
        if task_id not in self._running or not self.ledger.holds(task_id) \
                or not self.ncc.sharing_now():
            return 0.0
        return self._machine.grid_task_rate_mips(
            task_id, self.ncc.cpu_cap(self._workstation.owner_present)
        )

    def _settle(self) -> None:
        """Credit every task the work it did since the last settling, at
        the rate it has had since then.  A task whose own planned
        instant has come is put on its target exactly: re-deriving it
        as ``progress + rate * dt`` can land an ulp short, and a
        wake-up that re-plans itself for ever a nanosecond before the
        end is the failure to avoid."""
        now = self._loop.now
        dt = now - self._settled_at
        self._settled_at = now
        for record in self._running.values():
            if record.rate_mips > 0.0:
                target = min(record.work_mips, record.work_limit_mips)
                if now >= record.due_at:
                    record.progress_mips = target
                elif dt > 0.0:
                    record.progress_mips = min(
                        target, record.progress_mips + record.rate_mips * dt
                    )

    def _replan(self) -> None:
        """Fix every task's rate as of now and arm the one wake-up, at
        the earliest instant something has to be done."""
        wake, self._wake = self._wake, None
        when = inf
        if self._running and not self._crashed:
            now = self._loop.now
            # A task started into a blackout is evicted at once.
            when = self._next_sharing_change() if self.ncc.sharing_now() \
                else now
            for task_id, record in self._running.items():
                target = min(record.work_mips, record.work_limit_mips)
                if record.progress_mips >= target - 1e-9:
                    # Done, or waiting at its barrier: nothing to credit,
                    # and a wake-up only if nobody has been told yet.
                    record.rate_mips = 0.0
                    record.due_at = now if (
                        record.complete or not record.limit_notified
                    ) else inf
                else:
                    rate = record.rate_mips = self.task_rate_mips(task_id)
                    record.due_at = (
                        now + (target - record.progress_mips) / rate
                        if rate > 0.0 else inf
                    )
                when = min(when, record.due_at, record.next_checkpoint_at)
        if wake is not None:
            if wake.when == when:
                self._wake = wake   # still the right instant
                return
            wake.cancel()
        if when < inf:
            self._wake = self._loop.schedule_at(when, self._wake_up)

    def _wake_up(self) -> None:
        """The planned instant: a completion, a work limit, a checkpoint
        or a blackout edge has fallen due (the caller settled first)."""
        self._wake = None
        with self._settled:
            if not self.ncc.sharing_now():
                for task_id in list(self._running):
                    self._evict(task_id, reason="blackout window")
                return
            now = self._loop.now
            for task_id in list(self._running):
                record = self._running.get(task_id)
                if record is None:
                    continue   # a notification below came back and removed it
                # Completion is decided first: a finished task's state is
                # about to be discarded, so it saves nothing.
                if record.complete:
                    self._complete(task_id)
                    continue
                if now >= record.next_checkpoint_at:
                    self._checkpoint(record, now)
                if record.at_limit and not record.limit_notified:
                    record.limit_notified = True
                    if self._grm is not None:
                        self._grm.task_reached_limit(self.node, task_id)

    def _machine_changed(self) -> None:
        """``Machine.on_change``: the owner's load or the allocations moved."""
        self._status_dirty = True
        if self._running:   # else no rate can have moved
            with self._settled:
                pass

    def _checkpoint(self, record: RunningTask, now: float) -> None:
        if record.progress_mips == record.checkpoint_progress:
            # No progress since the last save (suspended while the owner
            # uses the machine, or held at a work limit): the stored
            # checkpoint is already current, so skip the
            # serialize-and-store cycle but keep the cadence armed.
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
        with self._settled:
            self._status_dirty = True   # owner_active and the cap moved
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
        with self._settled:
            for task_id in list(self._running):
                self._evict(task_id, reason="owner stayed past grace")
