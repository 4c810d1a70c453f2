"""The layer table: which public functions bound each layer.

Layers are module names.  Each row of :data:`BOUNDARIES` is resolved by
dotted name when the traced pass starts (see ``tracing.py``), so
deleting or moving code in ``src/`` turns a row into an entry of
``unresolved_boundaries`` instead of breaking the benchmark.

``sim.workstation``, ``core.lupa``, ``bsp.gridexec`` and the timer side
of ``core.lrm`` / ``core.grm`` / ``core.hierarchy`` have no row of their
own: their spans are the callbacks they register with the event loop,
attributed by the callback's defining module.  ``sim.events`` is what is
left of the timed phase once every span is subtracted — heap and
dispatch.
"""

_PROTOCOLS = "repro.core.protocols"

BOUNDARIES = (
    ("callbacks", None, "repro.sim.events.EventLoop"),
    ("servant", "core.lrm", "repro.core.lrm.Lrm",
     f"{_PROTOCOLS}.LRM_INTERFACE"),
    ("servant", "core.grm", "repro.core.grm.Grm",
     f"{_PROTOCOLS}.GRM_INTERFACE"),
    ("servant", "core.hierarchy", "repro.core.hierarchy.ParentGrm",
     f"{_PROTOCOLS}.PARENT_GRM_INTERFACE"),
    ("servant", "core.hierarchy", "repro.core.hierarchy.ParentGrm",
     f"{_PROTOCOLS}.GRM_INTERFACE"),
    ("servant", "core.gupa", "repro.core.gupa.Gupa",
     f"{_PROTOCOLS}.GUPA_INTERFACE"),
    ("function", "core.gupa", "repro.core.gupa.Gupa.idle_probabilities"),
    ("function", "core.scheduler",
     "repro.core.scheduler.FirstFitPolicy.order"),
    ("function", "core.scheduler", "repro.core.scheduler.RandomPolicy.order"),
    ("function", "core.scheduler",
     "repro.core.scheduler.FastestFirstPolicy.order"),
    ("function", "core.scheduler",
     "repro.core.scheduler.PatternAwarePolicy.order"),
    ("function", "bsp.gridexec",
     "repro.bsp.gridexec.BspGridCoordinator.members_started"),
    ("function", "bsp.gridexec",
     "repro.bsp.gridexec.BspGridCoordinator.member_reached_limit"),
    ("function", "bsp.gridexec",
     "repro.bsp.gridexec.BspGridCoordinator.member_evicted"),
    ("function", "bsp.gridexec",
     "repro.bsp.gridexec.BspGridCoordinator.member_completed"),
    ("function", "orb.trading.query",
     "repro.orb.trading.TradingService.query"),
    ("function", "orb.trading.modify",
     "repro.orb.trading.TradingService.export"),
    ("function", "orb.trading.modify",
     "repro.orb.trading.TradingService.modify"),
    ("function", "orb.trading.modify",
     "repro.orb.trading.TradingService.patch"),
    ("function", "orb.trading.modify",
     "repro.orb.trading.TradingService.modify_many"),
    ("function", "orb.trading.modify",
     "repro.orb.trading.TradingService.withdraw"),
    ("function", "orb.core.client", "repro.orb.core.Orb.invoke"),
    ("function", "orb.core.server", "repro.orb.core.Orb.handle_request_bytes"),
    ("function", "orb.core.server",
     "repro.orb.core.Orb.handle_request_direct"),
    ("cdr", "orb.cdr", f"{_PROTOCOLS}.LRM_INTERFACE"),
    ("cdr", "orb.cdr", f"{_PROTOCOLS}.GRM_INTERFACE"),
    ("cdr", "orb.cdr", f"{_PROTOCOLS}.GUPA_INTERFACE"),
    ("cdr", "orb.cdr", f"{_PROTOCOLS}.ASCT_INTERFACE"),
    ("cdr", "orb.cdr", f"{_PROTOCOLS}.PARENT_GRM_INTERFACE"),
    ("function", "orb.transport",
     "repro.orb.transport.InProcTransport.invoke"),
    ("function", "orb.transport", "repro.orb.transport.TcpTransport.invoke"),
    ("function", "checkpoint.store.save",
     "repro.checkpoint.store.MemoryCheckpointStore.save"),
    ("function", "checkpoint.store.load",
     "repro.checkpoint.store.MemoryCheckpointStore.load_latest"),
    ("function", "checkpoint.store.load",
     "repro.checkpoint.store.CheckpointRecord.state"),
    ("function", "bsp.messages", "repro.bsp.messages.MessageBuffers.send"),
    ("function", "bsp.messages", "repro.bsp.messages.MessageBuffers.exchange"),
    ("function", "bsp.messages", "repro.bsp.messages.MessageBuffers.inbox"),
    ("function", "bsp.drma", "repro.bsp.drma.Registers.put"),
    ("function", "bsp.drma", "repro.bsp.drma.Registers.get"),
    ("function", "bsp.drma", "repro.bsp.drma.Registers.synchronize"),
)

#: Every layer that reports ``<layer>.self_s`` and ``<layer>.calls``.
#: ``sim.events`` and ``harness`` are residuals, not span layers: the
#: first is the timed phase minus all spans on a simulated workload, the
#: second is the driver's own code (callbacks the workload registers,
#: and the whole residual on the two workloads without an event loop).
LAYERS = (
    "sim.events", "sim.workstation", "core.lupa", "core.lrm", "core.grm",
    "core.scheduler", "core.gupa", "orb.trading.query", "orb.trading.modify",
    "orb.core.client", "orb.core.server", "orb.cdr", "orb.transport",
    "core.hierarchy", "bsp.gridexec", "checkpoint.store.save",
    "checkpoint.store.load", "bsp.messages", "bsp.drma", "harness",
)

#: End-to-end metrics only some workloads have: ``name -> (unit, kind)``,
#: kind being host time or simulated time / count.  ``run.py``'s result
#: files list them beside the universal five; the driver's single global
#: end-to-end list cannot, so there they are layer metrics ``e2e.<name>``.
SPECIFIC_E2E = {
    "sim_job_latency_p50_s": ("sim_s", "sim"),
    "sim_job_latency_p95_s": ("sim_s", "sim"),
    "restore_p50_ms": ("ms", "host"),
    "failed_ratio": ("ratio", "sim"),
}

#: Counters read from public attributes after the timed phase, and the
#: workload-specific numbers the driver's one global end-to-end list has
#: no room for (``e2e.*``, measured on the untraced pass).
COUNTERS = (
    ("sim.events.fired", "count", "lower"),
    ("sim.events.cancelled", "count", "lower"),
    ("core.lrm.updates_sent", "count", "lower"),
    ("core.lrm.evictions", "count", "lower"),
    ("core.lrm.checkpoints_taken", "count", "lower"),
    ("core.lrm.reservations_refused", "count", "lower"),
    ("core.grm.updates_received", "count", "lower"),
    ("core.grm.negotiation_rounds", "count", "lower"),
    ("core.grm.placements", "count", "higher"),
    ("core.grm.placement_success_ratio", "ratio", "higher"),
    ("core.grm.evictions_handled", "count", "lower"),
    ("core.grm.jobs_forwarded", "count", "lower"),
    ("orb.trading.queries", "count", "lower"),
    ("orb.trading.indexed_ratio", "ratio", "higher"),
    ("orb.core.requests", "count", "lower"),
    ("orb.core.replies", "count", "lower"),
    ("orb.core.bytes_sent", "bytes", "lower"),
    ("orb.transport.twoway_p99_us", "us", "lower"),
    ("orb.transport.oneway_per_s", "1/s", "higher"),
    ("checkpoint.store.saves", "count", "lower"),
    ("checkpoint.store.bytes_written", "bytes", "lower"),
    ("bsp.messages.sent", "count", "lower"),
    ("bsp.messages.orb_calls", "count", "lower"),
    ("bsp.messages.wire_bytes", "bytes", "lower"),
    ("bsp.drma.orb_calls", "count", "lower"),
    *((f"e2e.{name}", unit, "lower")
      for name, (unit, _kind) in SPECIFIC_E2E.items()),
    ("process.cpu_s", "s", "lower"),
    ("harness.speed", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_ratio", "ratio", "lower"),
    ("trace.unresolved_boundaries", "count", "lower"),
    ("obs.enabled_wall_ratio", "ratio", "lower"),
)


def per_layer_metrics() -> list:
    """``[(name, unit, better)]`` of every per-layer metric, in order."""
    metrics = []
    for layer in LAYERS:
        metrics.append((f"{layer}.self_s", "s", "lower"))
        metrics.append((f"{layer}.calls", "count", "lower"))
    metrics.extend(COUNTERS)
    return metrics


def layer_rows(tracer, budget_s: float, residual_layer: str,
               driver_threads=frozenset({"MainThread"})) -> dict:
    """``layer -> {"self_s", "calls"}`` for :data:`LAYERS`.

    ``budget_s`` is how long the driving threads were timed for; what
    their top-level spans leave uncovered goes to ``residual_layer``, so
    on a single-threaded workload the rows sum to the timed phase.
    Spans on other threads (the TCP server's) add their own seconds on
    top.  Span layers outside :data:`LAYERS` (a module that starts
    registering callbacks later) fold into ``harness``.  A layer none of
    whose boundaries resolved reports None.
    """
    rows = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for layer, row in tracer.layer_table().items():
        target = rows[layer] if layer in rows else rows["harness"]
        target["self_s"] += row["self_s"]
        target["calls"] += row["calls"]
    rows[residual_layer]["self_s"] += \
        budget_s - tracer.root_seconds(driver_threads)
    for layer in tracer.dead_layers:
        rows[layer] = {"self_s": None, "calls": None}
    return rows
