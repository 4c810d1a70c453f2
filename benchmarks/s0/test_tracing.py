"""Tests of the S0 harness itself: span accounting, shims, result schema.

Run with ``PYTHONPATH=src python -m pytest benchmarks/s0``.  The file
names in this directory are chosen so that ``pytest benchmarks/`` collects
only this file and never starts the full benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers                      # noqa: E402
import run                         # noqa: E402
from support import Calibrator     # noqa: E402
from tracing import SpanTracer, layer_of_module, resolve   # noqa: E402


class FakeClock:
    """Advances only when the code under test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def make_tracer():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock)
    tracer.enabled = True
    return tracer, clock


def test_self_time_is_duration_minus_children():
    tracer, clock = make_tracer()
    leaf = tracer.wrap(lambda: clock.spend(3.0), "c", "leaf")

    def middle_body():
        clock.spend(1.0)
        leaf()
        leaf()
        clock.spend(0.5)

    middle = tracer.wrap(middle_body, "b", "middle")

    def root_body():
        clock.spend(2.0)
        middle()
        clock.spend(0.25)

    tracer.wrap(root_body, "a", "root")()
    table = tracer.layer_table()
    assert table["a"] == {"calls": 1, "self_s": 2.25}
    assert table["b"] == {"calls": 1, "self_s": 1.5}
    assert table["c"] == {"calls": 2, "self_s": 6.0}
    assert tracer.root_seconds() == 9.75
    assert sum(row["self_s"] for row in table.values()) == 9.75
    # Aggregates are keyed by the parent's layer too.
    assert tracer.aggregates()[("c", "leaf", "b")] == [2, 6.0, 6.0]
    assert tracer.aggregates()[("a", "root", None)] == [1, 9.75, 2.25]


def test_nested_spans_of_one_layer_do_not_double_count():
    tracer, clock = make_tracer()
    inner = tracer.wrap(lambda: clock.spend(2.0), "same", "inner")

    def outer_body():
        clock.spend(1.0)
        inner()

    tracer.wrap(outer_body, "same", "outer")()
    assert tracer.layer_table()["same"] == {"calls": 2, "self_s": 3.0}
    assert tracer.root_seconds() == 3.0


def test_raw_spans_carry_parent_and_root_ids_up_to_the_cap():
    clock = FakeClock()
    tracer = SpanTracer(sample_cap=3, clock=clock)
    tracer.enabled = True
    leaf = tracer.wrap(lambda: clock.spend(1.0), "c", "leaf")
    root = tracer.wrap(lambda: [leaf() for _ in range(5)], "a", "root")
    root()
    assert len(tracer.samples) == 3          # capped, aggregation goes on
    assert tracer.layer_table()["c"]["calls"] == 5
    root_id = tracer.samples[0][5]
    for span_id, name, start, end, parent_id, root_of, _thread \
            in tracer.samples:
        assert name == "c:leaf" and end - start == 1.0
        assert parent_id == root_id == root_of and span_id != root_id


def test_disabled_tracer_records_nothing_and_exceptions_still_close_spans():
    tracer, clock = make_tracer()

    def boom():
        clock.spend(1.0)
        raise ValueError("x")

    traced = tracer.wrap(boom, "a", "boom")
    tracer.enabled = False
    try:
        traced()
    except ValueError:
        pass
    assert tracer.layer_table() == {}
    tracer.enabled = True
    try:
        traced()
    except ValueError:
        pass
    assert tracer.layer_table()["a"] == {"calls": 1, "self_s": 1.0}
    assert tracer._state().stack == []


def test_callbacks_are_attributed_by_defining_module():
    assert layer_of_module("repro.core.lrm") == "core.lrm"
    assert layer_of_module("repro.core.reservation") == "core.lrm"
    assert layer_of_module("workloads.campus_day") == "harness"
    assert layer_of_module(None) == "harness"


def test_unresolved_boundary_is_a_warning_not_a_crash():
    assert resolve("repro.orb.core.Orb.invoke") is not None
    assert resolve("repro.orb.core.Orb.no_such_method") is None
    assert resolve("repro.no_such_module.Thing.method") is None
    tracer = SpanTracer()
    try:
        tracer.install((
            ("function", "gone.layer", "repro.no_such_module.Thing.method"),
            ("servant", "gone.too", "repro.core.lrm.NoSuchLrm",
             "repro.core.protocols.LRM_INTERFACE"),
            ("cdr", "gone.cdr", "repro.core.protocols.NO_SUCH_INTERFACE"),
            ("function", "live", "repro.orb.trading.TradingService.query"),
            ("function", "live", "repro.orb.trading.TradingService.no_such"),
        ))
        assert len(tracer.unresolved) == 4
        assert tracer.dead_layers == {"gone.layer", "gone.too", "gone.cdr"}
    finally:
        tracer.uninstall()


def test_install_traces_a_real_orb_call_and_uninstall_restores():
    from repro.core.protocols import GUPA_INTERFACE
    from repro.core.gupa import Gupa
    from repro.orb.core import Orb
    from repro.orb.transport import InProcDomain

    original_invoke = Orb.invoke
    original_type = GUPA_INTERFACE.operation("has_pattern").params[0].idl_type
    tracer = SpanTracer()
    tracer.install(layers.BOUNDARIES)
    try:
        assert tracer.unresolved == [] and tracer.dead_layers == set()
        domain = InProcDomain()
        server, client = Orb("s", domain=domain), Orb("c", domain=domain)
        ref = server.activate(Gupa(), GUPA_INTERFACE, key="gupa")
        stub = client.stub(ref, GUPA_INTERFACE)
        tracer.enabled = True
        assert stub.has_pattern("nobody") is False
        tracer.enabled = False
        table = tracer.layer_table()
        for layer in ("orb.core.client", "orb.cdr", "orb.transport",
                      "orb.core.server", "core.gupa"):
            assert table[layer]["calls"] >= 1, layer
        # One root span (the client's invoke) covers everything below it.
        assert abs(sum(r["self_s"] for r in table.values())
                   - tracer.root_seconds()) < 1e-9
        rows = layers.layer_rows(tracer, tracer.root_seconds() + 1.0,
                                 "harness")
        assert abs(rows["harness"]["self_s"] - 1.0) < 1e-9
        server.shutdown()
        client.shutdown()
    finally:
        tracer.uninstall()
    assert Orb.invoke is original_invoke
    assert GUPA_INTERFACE.operation("has_pattern").params[0].idl_type \
        is original_type


def test_event_loop_callbacks_become_spans():
    from repro.sim.events import EventLoop

    tracer = SpanTracer()
    tracer.install((("callbacks", None, "repro.sim.events.EventLoop"),))
    try:
        loop = EventLoop()
        fired = []
        loop.every(10.0, lambda: fired.append(loop.now))
        loop.schedule(5.0, lambda: fired.append(loop.now))
        tracer.enabled = True
        loop.run_for(25.0)
        tracer.enabled = False
        assert fired == [5.0, 10.0, 20.0]
        assert tracer.layer_table()["harness"]["calls"] == 3
    finally:
        tracer.uninstall()


def test_reference_seconds_rescale_computing_and_leave_waiting_alone():
    calibrator = Calibrator()
    calibrator.reps, calibrator.seconds = 1000, 0.05      # speed 2.0
    assert calibrator.speed == 2.0
    assert calibrator.reference(1.0, 1.0) == 2.0          # all computing
    assert calibrator.reference(1.0, 0.0) == 1.0          # all waiting
    assert calibrator.reference(1.0, 0.25) == 1.25
    assert calibrator.reference(1.0, 1.7) == 2.0          # threads: capped


def test_timed_phase_takes_a_part_or_the_latencies_it_yields_as_steps():
    class TwoParts:
        def run(self):
            yield                       # the part itself is one step
            yield [0.001, 0.002]        # latencies measured inside the part

    timed = run.timed_phase(TwoParts())
    assert len(timed["steps"]) == 3
    first, *own = timed["steps"]
    assert first > 0 and own[1] == 2 * own[0] > 0
    assert 0 < first < timed["wall_s"]
    assert timed["raw_wall_s"] > 0 and timed["speed"] > 0


def test_benchmark_json_lists_exactly_what_run_py_prints():
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [(m["name"], m["unit"]) for m in benchmark["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in benchmark["per_layer"]] == layers.per_layer_metrics()
    from workloads import WORKLOADS
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)


def _result_line(*extra) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "bsp_checkpoint",
         "--seed", "3", "--seconds", "0", "--quick", *extra],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_result_line_schema_untraced_and_traced():
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        result = _result_line("--trace", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"]
                                           for m in benchmark[section]]
        for metric in benchmark[section]:
            entry = result["metrics"][metric["name"]]
            assert set(entry) == {"value", "unit"}
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
    assert result["metrics"]["checkpoint.store.save.calls"]["value"] > 0
    assert result["metrics"]["orb.core.client.calls"]["value"] == 0
