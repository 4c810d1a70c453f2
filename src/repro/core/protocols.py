"""Typed protocol definitions shared by the Figure 1 components.

Three protocols from the paper live here as IDL interfaces:

* the **Information Update Protocol** (LRM → GRM, periodic, oneway: a
  status when it changed, a heartbeat when it did not),
* the **Resource Reservation and Execution Protocol** (GRM ↔ LRM
  negotiation: request_reservation / start_task / stop_task),
* the **inter-cluster protocol** (child GRM → parent GRM, one
  aggregated summary per interval, oneway; and wide-area submission,
  status, cancel and ASCT registration, after Marques & Kon 2002).
"""

from repro.orb.cdr import (
    Boolean,
    Double,
    Long,
    String,
    Struct,
    Union,
    VARIANT,
    Void,
)
from repro.orb.idl import InterfaceDef, Operation, Parameter

# ---------------------------------------------------------------------------
# Message structs
# ---------------------------------------------------------------------------

NODE_STATUS = Struct(
    "NodeStatus",
    [
        ("node", String),
        ("time", Double),
        ("mips", Double),
        ("ram_mb", Double),
        ("disk_mb", Double),
        ("os", String),
        ("arch", String),
        ("cpu_free", Double),        # CPU share available to the grid now
        ("mem_free_mb", Double),
        ("disk_free_mb", Double),
        ("net_mbps", Double),        # interface capacity
        ("net_free_mbps", Double),   # headroom after owner traffic
        ("owner_active", Boolean),
        ("sharing", Boolean),        # NCC currently allows grid use
        ("grid_tasks", Long),
    ],
)

RESERVATION_REQUEST = Struct(
    "ReservationRequest",
    [
        ("task_id", String),
        ("cpu_fraction", Double),
        ("mem_mb", Double),
        ("disk_mb", Double),
        ("lease_seconds", Double),
    ],
)

#: A grant is ``accepted`` and a ``reason``; a refusal also carries the
#: node's free capacity right now (what a status sent now would say),
#: which the GRM applies to its offer for the node.
RESERVATION_REPLY = Union(
    "ReservationReply",
    ("accepted", Boolean),
    {
        True: [("reason", String)],
        False: [
            ("reason", String),
            ("cpu_free", Double),
            ("mem_free_mb", Double),
        ],
    },
)

TASK_LAUNCH = Struct(
    "TaskLaunch",
    [
        ("task_id", String),
        ("job_id", String),
        ("work_mips", Double),
        ("initial_progress_mips", Double),
        ("checkpoint_interval_s", Double),   # 0 = no checkpointing
        # Optional task code, executed in the provider's sandbox when the
        # simulated work completes; "" means a pure compute model task.
        ("payload", String),
    ],
)

CLUSTER_SUMMARY = Struct(
    "ClusterSummary",
    [
        ("cluster", String),
        ("time", Double),
        ("nodes", Long),
        ("sharing_nodes", Long),
        ("free_cpu_total", Double),
        ("free_mem_total_mb", Double),
        ("max_node_mips", Double),
        ("pending_tasks", Long),
    ],
)

# ---------------------------------------------------------------------------
# Interfaces
# ---------------------------------------------------------------------------

LRM_INTERFACE = InterfaceDef(
    "integrade/Lrm",
    [
        Operation("ping", (), Boolean),
        Operation("get_status", (), NODE_STATUS),
        Operation(
            "request_reservation",
            (Parameter("request", RESERVATION_REQUEST),),
            RESERVATION_REPLY,
        ),
        Operation(
            "cancel_reservation", (Parameter("task_id", String),), Void
        ),
        Operation(
            "start_task", (Parameter("launch", TASK_LAUNCH),), Boolean
        ),
        Operation("stop_task", (Parameter("task_id", String),), Double),
        # Pacing operations used by the BSP coordinator: a paced task may
        # not advance past its work limit (the next superstep barrier).
        Operation(
            "set_work_limit",
            (Parameter("task_id", String), Parameter("limit_mips", Double)),
            Void,
        ),
        Operation("get_progress", (Parameter("task_id", String),), Double),
        Operation(
            "rollback_task",
            (Parameter("task_id", String), Parameter("to_progress", Double)),
            Void,
        ),
    ],
)

GRM_INTERFACE = InterfaceDef(
    "integrade/Grm",
    [
        Operation(
            "register_node",
            (
                Parameter("status", NODE_STATUS),
                Parameter("lrm_ior", String),
            ),
            Void,
        ),
        Operation("unregister_node", (Parameter("node", String),), Void),
        Operation(
            "send_update", (Parameter("status", NODE_STATUS),), Void,
            oneway=True,
        ),
        # An interval in which nothing changed: the node is alive and its
        # status is what it last sent.  The GRM refreshes ``last_seen``
        # and writes nothing to its Trader.
        Operation(
            "heartbeat", (Parameter("node", String),), Void, oneway=True,
        ),
        Operation("submit", (Parameter("spec", VARIANT),), String),
        Operation(
            "register_asct",
            (Parameter("job_id", String), Parameter("asct_ior", String)),
            Void,
        ),
        Operation("job_status", (Parameter("job_id", String),), VARIANT),
        Operation("cancel_job", (Parameter("job_id", String),), Void),
        Operation(
            "task_completed",
            (
                Parameter("node", String),
                Parameter("task_id", String),
                Parameter("result", VARIANT),   # payload output, or None
            ),
            Void,
            oneway=True,
        ),
        Operation(
            "task_evicted",
            (
                Parameter("node", String),
                Parameter("task_id", String),
                # Progress when evicted (for lost-work accounting) and the
                # checkpointed progress execution can resume from.
                Parameter("progress_at_eviction_mips", Double),
                Parameter("resume_progress_mips", Double),
            ),
            Void,
            oneway=True,
        ),
        # Fired by a paced task when it reaches its work limit (a BSP
        # superstep barrier); the GRM forwards it to the job coordinator.
        Operation(
            "task_reached_limit",
            (Parameter("node", String), Parameter("task_id", String)),
            Void,
            oneway=True,
        ),
    ],
)

GUPA_INTERFACE = InterfaceDef(
    "integrade/Gupa",
    [
        Operation(
            "upload_pattern",
            (Parameter("node", String), Parameter("pattern", VARIANT)),
            Void,
            oneway=True,
        ),
        Operation("has_pattern", (Parameter("node", String),), Boolean),
        Operation(
            "idle_probability",
            (
                Parameter("node", String),
                Parameter("start", Double),
                Parameter("duration", Double),
            ),
            Double,
        ),
    ],
)

ASCT_INTERFACE = InterfaceDef(
    "integrade/Asct",
    [
        Operation(
            "job_event",
            (
                Parameter("job_id", String),
                Parameter("event", String),
                Parameter("detail", String),
            ),
            Void,
            oneway=True,
        ),
    ],
)

PARENT_GRM_INTERFACE = InterfaceDef(
    "integrade/ParentGrm",
    [
        Operation(
            "register_cluster",
            (
                Parameter("summary", CLUSTER_SUMMARY),
                Parameter("grm_ior", String),
            ),
            Void,
        ),
        Operation(
            "send_summary",
            (Parameter("summary", CLUSTER_SUMMARY),),
            Void,
            oneway=True,
        ),
        Operation(
            "unregister_cluster", (Parameter("cluster", String),), Void
        ),
        Operation(
            "submit_remote",
            (
                Parameter("spec", VARIANT),
                Parameter("origin_cluster", String),
            ),
            String,   # job id at the accepting cluster, or "" when rejected
        ),
        # A job this parent placed answers from where it runs: each call
        # goes to whoever the parent handed the job to.
        Operation("job_status", (Parameter("job_id", String),), VARIANT),
        Operation("cancel_job", (Parameter("job_id", String),), Void),
        Operation(
            "register_asct",
            (Parameter("job_id", String), Parameter("asct_ior", String)),
            Void,
        ),
    ],
)
