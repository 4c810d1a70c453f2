"""Tests for span tracing: tracer mechanics, ORB propagation, end-to-end."""

import json

import pytest

from repro.obs.trace import NULL_SPAN, Span, Tracer
from repro.sim.events import EventLoop


# -- tracer mechanics ---------------------------------------------------------


def test_spans_nest_through_the_current_stack():
    loop = EventLoop()
    tracer = Tracer(clock=loop)
    with tracer.span("outer") as outer:
        loop.run_until(1.0)
        with tracer.span("inner") as inner:
            loop.run_until(2.0)
        loop.run_until(3.0)
    assert inner.trace_id == outer.trace_id
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert (outer.start, outer.end) == (0.0, 3.0)
    assert (inner.start, inner.end) == (1.0, 2.0)
    # Child interval nested inside the parent's.
    assert outer.start <= inner.start and inner.end <= outer.end


def test_explicit_parent_links_deferred_work():
    tracer = Tracer()
    with tracer.span("submit"):
        context = tracer.context()
    assert context is not None
    with tracer.span("deferred", parent=context) as span:
        pass
    submit = tracer.finished[0]
    assert span.trace_id == submit.trace_id
    assert span.parent_id == submit.span_id


def test_disabled_tracer_returns_shared_null_context():
    tracer = Tracer()
    tracer.disable()
    context = tracer.span("ignored")
    assert context is NULL_SPAN
    with context as span:
        assert span is None
    assert len(tracer) == 0
    assert tracer.context() is None


def test_span_records_exception_attrs():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("failing"):
            raise RuntimeError("boom")
    span = tracer.finished[0]
    assert span.attrs["error"] == "RuntimeError"
    assert span.attrs["error_message"] == "boom"


def test_tracer_drops_spans_past_the_cap():
    tracer = Tracer(max_spans=2)
    for i in range(4):
        with tracer.span(f"s{i}"):
            pass
    assert len(tracer) == 2
    assert tracer.dropped == 2


# -- ORB propagation ----------------------------------------------------------


def _echo_pair(tcp=False):
    """A client/server pair: collocated by default; with ``tcp=True`` in
    separate domains, so every request marshals over a real socket."""
    from repro.orb.cdr import Double
    from repro.orb.core import Orb
    from repro.orb.idl import InterfaceDef, Operation, Parameter
    from repro.orb.transport import InProcDomain

    interface = InterfaceDef(
        "test/Echo", [Operation("echo", (Parameter("x", Double),), Double)]
    )

    class Servant:
        def echo(self, x):
            return x * 2

    domain = InProcDomain()
    server = Orb("server", domain=domain, tcp=tcp)
    client = Orb("client", domain=InProcDomain() if tcp else domain, tcp=tcp)
    ref = server.activate(Servant(), interface)
    stub = client.stub(ref, interface)
    return server, client, stub, ref


@pytest.mark.parametrize("tcp", [False, True], ids=["direct", "wire"])
def test_trace_context_crosses_the_orb(tcp):
    server, client, stub, ref = _echo_pair(tcp)
    tracer = Tracer()
    client.set_tracer(tracer)
    server.set_tracer(tracer)
    with tracer.span("root") as root:
        assert stub.echo(21.0) == 42.0
    client_span = next(
        s for s in tracer.finished if s.attrs.get("kind") == "client"
    )
    server_span = next(
        s for s in tracer.finished if s.attrs.get("kind") == "server"
    )
    assert client_span.trace_id == root.trace_id
    assert client_span.parent_id == root.span_id
    assert server_span.trace_id == root.trace_id
    assert server_span.parent_id == client_span.span_id
    server.shutdown()
    client.shutdown()


@pytest.mark.parametrize("tcp", [False, True], ids=["direct", "wire"])
def test_traced_client_talks_to_untraced_server(tcp):
    # The trace context is optional: a server without a tracer ignores
    # it (parsing and skipping the header extension on the wire), and
    # the call still works.
    server, client, stub, ref = _echo_pair(tcp)
    tracer = Tracer()
    client.set_tracer(tracer)   # server gets none
    with tracer.span("root"):
        assert stub.echo(5.0) == 10.0
    kinds = [s.attrs.get("kind") for s in tracer.finished
             if "kind" in s.attrs]
    assert kinds == ["client"]   # no server span was recorded
    server.shutdown()
    client.shutdown()


def test_wire_bytes_identical_when_tracing_off():
    # Over TCP every request marshals; a disabled tracer must leave the
    # payload exactly as an ORB without any tracer would send it.
    from repro.orb.core import Orb

    captured = []
    original = Orb.handle_request_bytes

    def capture(self, data):
        captured.append(bytes(data))
        return original(self, data)

    server, client, stub, ref = _echo_pair(tcp=True)
    tracer = Tracer()
    tracer.disable()
    client.set_tracer(tracer)
    server.set_tracer(tracer)
    try:
        Orb.handle_request_bytes = capture
        stub.echo(1.0)
        with_disabled_tracer = captured[-1]
        client.set_tracer(None)
        server.set_tracer(None)
        stub.echo(1.0)
        without_tracer = captured[-1]
    finally:
        Orb.handle_request_bytes = original
        client.shutdown()
        server.shutdown()
    assert with_disabled_tracer == without_tracer


# -- end-to-end: the acceptance trace ----------------------------------------


def _span_index(spans):
    return {span.span_id: span for span in spans}


def _ancestors(span, by_id):
    chain = []
    while span.parent_id is not None:
        span = by_id[span.parent_id]
        chain.append(span)
    return chain


def test_single_submission_yields_one_connected_trace(tmp_path):
    """One ASCT submission on a 4-node grid produces a single causally
    linked span tree crossing GRM submit, schedule, Trader query, LRM
    reservation, and task start — exported to JSONL and Chrome formats.
    """
    from repro.apps.spec import ApplicationSpec
    from repro.core.grid import Grid
    from repro.obs.exporters import (
        export_chrome_trace,
        export_jsonl,
        validate_chrome_trace_file,
    )

    grid = Grid(seed=7, lupa_enabled=False)
    grid.add_cluster("c0")
    for i in range(4):
        grid.add_node("c0", f"n{i}")
    tracer = grid.enable_tracing()

    asct = grid.make_asct("c0")
    with tracer.span("asct.submit", component="asct") as root:
        job_id = asct.submit(ApplicationSpec(name="e2e", tasks=2))
    assert grid.wait_for_job(job_id, max_seconds=4 * 3600.0)

    spans = tracer.trace(root.trace_id)
    by_id = _span_index(spans)

    # Every span of the trace reaches the root: one connected tree.
    for span in spans:
        if span.parent_id is None:
            assert span is root or span.span_id == root.span_id
        else:
            chain = _ancestors(span, by_id)
            assert chain[-1].span_id == root.span_id

    # The tree crosses every layer of the placement protocol.
    names = {span.name for span in spans}
    assert "integrade/Grm.submit" in names        # ASCT -> GRM (client hop)
    assert "grm.schedule_job" in names            # deferred schedule pass
    assert "trader.query" in names                # GRM -> Trader
    assert any(n.endswith("Lrm.request_reservation") for n in names)
    assert any(n.endswith("Lrm.start_task") for n in names)

    # Parent/child sim-time intervals nest.
    for span in spans:
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            assert parent.start <= span.start
            assert span.end <= parent.end

    # The schedule pass (deferred via the event loop) still joins the
    # submission's trace through the stored job context.
    schedule = next(s for s in spans if s.name == "grm.schedule_job")
    assert schedule.attrs["job_id"] == job_id

    # Both exporters accept the trace; the Chrome file validates.
    jsonl_path = tmp_path / "trace.jsonl"
    chrome_path = tmp_path / "trace.json"
    assert export_jsonl(spans, str(jsonl_path)) == len(spans)
    lines = [json.loads(line)
             for line in jsonl_path.read_text().splitlines()]
    assert {line["span_id"] for line in lines} == set(by_id)
    export_chrome_trace(spans, str(chrome_path))
    assert validate_chrome_trace_file(str(chrome_path)) == len(spans)


def test_tracing_off_by_default_and_removable():
    from repro.apps.spec import ApplicationSpec
    from repro.core.grid import Grid

    grid = Grid(seed=2, lupa_enabled=False)
    grid.add_cluster("c0")
    grid.add_node("c0", "n0")
    assert grid.tracer is None   # off unless explicitly enabled
    tracer = grid.enable_tracing()
    job_id = grid.submit(ApplicationSpec(name="t", tasks=1))
    grid.wait_for_job(job_id, max_seconds=2 * 3600.0)
    recorded = len(tracer)
    assert recorded > 0
    tracer.disable()
    job2 = grid.submit(ApplicationSpec(name="t2", tasks=1))
    grid.wait_for_job(job2, max_seconds=2 * 3600.0)
    assert len(tracer) == recorded   # nothing new while disabled


def test_tracing_does_not_perturb_determinism():
    import hashlib

    from repro.apps.spec import ApplicationSpec
    from repro.core.grid import Grid
    from repro.sim.usage import PROFILES

    def run(enable):
        grid = Grid(seed=13, lupa_enabled=False)
        grid.add_cluster("c0")
        for i in range(3):
            grid.add_node("c0", f"n{i}",
                          profile=PROFILES["office_worker"])
        if enable:
            grid.enable_tracing()
        grid.submit(ApplicationSpec(name="d", tasks=2))
        digest = hashlib.sha256()
        for _ in range(48):
            grid.run_for(1800.0)
            digest.update(repr(grid.loop.now).encode())
            digest.update(repr(grid.loop.events_fired).encode())
        return digest.hexdigest()

    assert run(False) == run(True)


def test_chrome_exporter_groups_by_trace_and_component():
    from repro.obs.exporters import chrome_trace_events, validate_chrome_trace

    loop = EventLoop()
    tracer = Tracer(clock=loop)
    with tracer.span("grm.schedule", component="c0"):
        loop.run_until(2.0)
        with tracer.span("trader.query", component="c0"):
            loop.run_until(3.0)
    with tracer.span("lrm.tick", component="n1"):
        loop.run_until(5.0)
    events = chrome_trace_events(tracer.finished)
    assert validate_chrome_trace(events) == 3
    by_name = {e["name"]: e for e in events}
    # Same trace -> same pid; distinct traces -> distinct pids.
    assert (by_name["grm.schedule"]["pid"]
            == by_name["trader.query"]["pid"])
    assert by_name["lrm.tick"]["pid"] != by_name["grm.schedule"]["pid"]
    # Timestamps are sim-seconds scaled to microseconds.
    assert by_name["trader.query"]["ts"] == pytest.approx(2e6)
    assert by_name["trader.query"]["dur"] == pytest.approx(1e6)


def test_validate_chrome_trace_rejects_malformed_events():
    from repro.obs.exporters import TraceFormatError, validate_chrome_trace

    with pytest.raises(TraceFormatError):
        validate_chrome_trace("not a trace")
    with pytest.raises(TraceFormatError):
        validate_chrome_trace({"notTraceEvents": []})
    with pytest.raises(TraceFormatError):
        validate_chrome_trace([{"ph": "X", "ts": 0, "pid": 1, "tid": 1}])
    with pytest.raises(TraceFormatError):
        validate_chrome_trace(
            [{"name": "a", "ph": "X", "ts": 0, "pid": 1, "tid": 1}]
        )   # complete event without dur
    assert validate_chrome_trace(
        [{"name": "a", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1}]
    ) == 1


class TestDroppedSpanAccounting:
    def test_spans_past_cap_are_counted_not_kept(self):
        tracer = Tracer(max_spans=2)
        for i in range(5):
            with tracer.span(f"op{i}"):
                pass
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_dropped_spans_exposed_as_registry_view(self):
        from repro.obs.metrics import MetricsRegistry

        tracer = Tracer(max_spans=1)
        registry = MetricsRegistry()
        tracer.to_metrics(registry)
        with tracer.span("kept"):
            pass
        with tracer.span("dropped"):
            pass
        metrics = registry.snapshot()["metrics"]
        assert metrics["obs.trace.dropped_spans"] == 1
        assert metrics["obs.trace.finished_spans"] == 1

    def test_grid_wires_tracer_views_in_either_enable_order(self):
        from repro.core.grid import Grid

        # metrics first, then tracing
        grid = Grid(seed=1, lupa_enabled=False)
        grid.add_cluster("c0")
        grid.enable_metrics()
        grid.enable_tracing()
        metrics = grid.metrics_snapshot()["metrics"]
        assert metrics["obs.trace.dropped_spans"] == 0
        # tracing first, then metrics
        grid2 = Grid(seed=1, lupa_enabled=False)
        grid2.add_cluster("c0")
        grid2.enable_tracing()
        metrics2 = grid2.metrics_snapshot()["metrics"]
        assert metrics2["obs.trace.dropped_spans"] == 0

    def test_clear_resets_drop_count(self):
        tracer = Tracer(max_spans=1)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        tracer.clear()
        assert tracer.dropped == 0
        assert len(tracer) == 0


class TestAdversarialTraceExport:
    """The exporter and validator must survive malformed span shapes."""

    def _export(self, spans):
        from repro.obs.exporters import chrome_trace_events, validate_chrome_trace

        events = chrome_trace_events(spans)
        assert validate_chrome_trace(events) == len(spans)
        return events

    def test_span_with_missing_parent_id_round_trips(self):
        loop = EventLoop()
        tracer = Tracer(clock=loop)
        with tracer.span("orphan"):
            loop.run_until(1.0)
        span = tracer.finished[0]
        span.parent_id = 9999   # points at a span that was never exported
        (event,) = self._export([span])
        assert event["args"]["parent_id"] == 9999

    def test_unfinished_span_exports_with_zero_duration(self):
        loop = EventLoop()
        tracer = Tracer(clock=loop)
        context = tracer.span("open")
        span = context.span
        assert span.end is None   # never closed
        (event,) = self._export([span])
        assert event["dur"] == 0.0
        assert event["args"]["sim_end_s"] == event["args"]["sim_start_s"]

    def test_zero_duration_span_is_valid(self):
        loop = EventLoop()
        tracer = Tracer(clock=loop)
        with tracer.span("instant"):
            pass   # no clock advance
        (event,) = self._export(tracer.finished)
        assert event["dur"] == 0.0

    def test_out_of_order_start_times_still_validate(self):
        loop = EventLoop()
        tracer = Tracer(clock=loop)
        loop.run_until(10.0)
        with tracer.span("late-first"):
            loop.run_until(11.0)
        later = tracer.finished[0]
        earlier = Span("t9", 99, None, "early-second", 2.0, {})
        earlier.end = 3.0
        events = self._export([later, earlier])
        assert [e["ts"] for e in events] == [10.0 * 1e6, 2.0 * 1e6]

    def test_adversarial_spans_survive_file_round_trip(self, tmp_path):
        from repro.obs.exporters import (
            export_chrome_trace,
            validate_chrome_trace_file,
        )

        loop = EventLoop()
        tracer = Tracer(clock=loop)
        with tracer.span("parent", component="c0"):
            loop.run_until(5.0)
        orphan = Span("tX", 7, 424242, "orphan", 9.0, {})   # missing parent
        orphan.end = 9.0                                     # zero duration
        stuck = Span("tY", 8, None, "stuck", 4.0, {})        # never finished
        spans = [orphan, stuck] + tracer.finished            # out of order
        path = str(tmp_path / "trace.json")
        export_chrome_trace(spans, path)
        assert validate_chrome_trace_file(path) == 3
