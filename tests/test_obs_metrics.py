"""Tests for the metrics registry: primitives, views, component wiring."""

import math

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.sim.events import EventLoop


# -- primitives ---------------------------------------------------------------


def test_counter_and_gauge():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    gauge = Gauge("g")
    gauge.set(2.5)
    gauge.add(-1.0)
    assert gauge.value == 1.5


def test_histogram_exact_statistics():
    hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 3.0, 8.0):
        hist.observe(value)
    assert hist.count == 4
    assert hist.total == pytest.approx(13.0)
    assert hist.mean == pytest.approx(3.25)
    assert hist.min == 0.5
    assert hist.max == 8.0
    expected_var = sum((v - 3.25) ** 2 for v in (0.5, 1.5, 3.0, 8.0)) / 4
    assert hist.stddev == pytest.approx(math.sqrt(expected_var))
    # One observation per bucket, including overflow.
    assert hist.counts == [1, 1, 1, 1]


def test_histogram_percentiles_clamped_to_observed_range():
    hist = Histogram("h", bounds=(1.0, 10.0, 100.0))
    for _ in range(100):
        hist.observe(5.0)
    assert hist.percentile(50) == pytest.approx(5.0, abs=5.0)
    assert hist.min <= hist.percentile(99) <= hist.max
    assert hist.percentile(0) >= hist.min
    with pytest.raises(ValueError):
        hist.percentile(101)


def test_histogram_empty_snapshot_is_all_zero():
    snap = Histogram("h").snapshot()
    assert snap["count"] == 0
    assert snap["mean"] == 0.0
    assert snap["min"] == 0.0
    assert snap["max"] == 0.0
    assert snap["p50"] == 0.0
    assert snap["p99"] == 0.0
    assert snap["stddev"] == 0.0


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram("h", bounds=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", bounds=())


# -- registry -----------------------------------------------------------------


def test_registry_get_or_create_is_idempotent():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.histogram("h") is registry.histogram("h")
    with pytest.raises(ValueError):
        registry.gauge("a")   # name already taken by a counter


def test_registry_view_and_metric_names_collide():
    registry = MetricsRegistry()
    registry.counter("c")
    with pytest.raises(ValueError):
        registry.view("c", lambda: 1)
    registry.view("v", lambda: 1)
    with pytest.raises(ValueError):
        registry.counter("v")
    # Re-registering a view replaces it (idempotent re-wiring).
    registry.view("v", lambda: 2)
    assert registry.snapshot()["metrics"]["v"] == 2


def test_snapshot_stamped_in_sim_time():
    loop = EventLoop()
    registry = MetricsRegistry(clock=loop)
    registry.counter("c").inc(3)
    loop.run_until(42.5)
    snap = registry.snapshot()
    assert snap["time"] == 42.5
    assert snap["metrics"]["c"] == 3


def test_bind_publishes_object_attributes_as_views():
    class Stats:
        hits = 7
        misses = 2

    registry = MetricsRegistry()
    stats = Stats()
    registry.bind("cache", stats, ("hits", "misses"))
    stats.hits = 9   # views are live, not copies
    metrics = registry.snapshot()["metrics"]
    assert metrics["cache.hits"] == 9
    assert metrics["cache.misses"] == 2


# -- component wiring ---------------------------------------------------------


def test_event_loop_metrics_views():
    loop = EventLoop()
    registry = MetricsRegistry(clock=loop)
    loop.to_metrics(registry)
    handle = loop.schedule(5.0, lambda: None)
    loop.schedule(1.0, lambda: None)
    handle.cancel()
    loop.run_until(10.0)
    metrics = registry.snapshot()["metrics"]
    assert metrics["eventloop.events_fired"] == 1
    assert metrics["eventloop.events_cancelled"] == 1
    assert metrics["eventloop.pending"] == 0
    assert metrics["eventloop.sim_time"] == 10.0


def test_trader_metrics_count_queries_and_offers():
    from repro.orb.trading import TradingService

    trader = TradingService()
    registry = MetricsRegistry()
    trader.bind_metrics(registry)
    trader.export("node", "ior0", {"sharing": True, "cpu": 1.0})
    offer_id = trader.export("node", "ior1", {"sharing": False, "cpu": 2.0})
    trader.query("node", constraint="sharing == true")
    trader.query("node", constraint="cpu > 0.5")
    trader.withdraw(offer_id)
    metrics = registry.snapshot()["metrics"]
    assert metrics["trader.queries"] == 2
    assert metrics["trader.offer_count"] == 1
    assert metrics["trader.query_latency_s"]["count"] == 2
    assert not any("indexed" in name or "linear" in name
                   for name in metrics)


def test_grid_enable_metrics_unifies_component_counters():
    from repro.apps.spec import ApplicationSpec
    from repro.core.grid import Grid

    grid = Grid(seed=3, lupa_enabled=False)
    grid.add_cluster("c0")
    for i in range(3):
        grid.add_node("c0", f"n{i}")
    registry = grid.enable_metrics()
    job_id = grid.submit(ApplicationSpec(name="m", tasks=2))
    assert grid.wait_for_job(job_id, max_seconds=4 * 3600.0)
    metrics = registry.snapshot()["metrics"]
    grm = grid.clusters["c0"].grm
    # The registry views and the attribute APIs read the same storage.
    assert metrics["grm.c0.placements"] == grm.stats.placements == 2
    assert metrics["grm.c0.completions"] == grm.stats.completions == 2
    lrm_completed = sum(
        node.lrm.completed_count
        for node in grid.clusters["c0"].nodes.values()
    )
    assert metrics["lrm.total.completed_count"] == lrm_completed == 2
    assert metrics["eventloop.events_fired"] == grid.loop.events_fired
    assert metrics["orb.totals"] == grid.protocol_stats()
    assert metrics["trader.c0.queries"] == grm.trader.queries > 0
    assert metrics["grm.c0.rank_latency_s"]["count"] > 0


def test_grid_enable_metrics_is_idempotent_and_covers_late_nodes():
    from repro.core.grid import Grid

    grid = Grid(seed=0, lupa_enabled=False)
    grid.add_cluster("c0")
    registry = grid.enable_metrics()
    assert grid.enable_metrics() is registry
    grid.add_node("c0", "late0")   # added after enable_metrics
    metrics = registry.snapshot()["metrics"]
    assert "lrm.late0.completed_count" in metrics
    assert "orb.late0-orb" in metrics


def test_cluster_monitor_to_metrics():
    from repro.core.grid import Grid
    from repro.core.monitor import ClusterMonitor

    grid = Grid(seed=1, lupa_enabled=False)
    grid.add_cluster("c0")
    grid.add_node("c0", "n0")
    monitor = ClusterMonitor(grid.loop, grid.clusters["c0"].grm,
                             period=600.0)
    registry = grid.enable_metrics()
    monitor.to_metrics(registry)
    before = registry.snapshot()["metrics"]
    assert before["monitor.c0.samples"] == 0
    assert before["monitor.c0.nodes"] == 0   # no sample yet -> zeros
    grid.run_for(1800.0)
    after = registry.snapshot()["metrics"]
    assert after["monitor.c0.samples"] >= 2
    assert after["monitor.c0.nodes"] == 1
    assert 0.0 <= after["monitor.c0.harvest_ratio"] <= 1.0


def test_lupa_to_metrics():
    from repro.core.lupa import Lupa

    loop = EventLoop()
    lupa = Lupa(loop, "n0", probe=lambda: 0.0, min_history_days=1)
    registry = MetricsRegistry(clock=loop)
    lupa.to_metrics(registry)
    loop.run_until(2 * 86400.0)
    metrics = registry.snapshot()["metrics"]
    assert metrics["lupa.n0.samples_taken"] == lupa.samples_taken > 0
    assert metrics["lupa.n0.history_days"] == lupa.history_days


def test_bsp_barrier_wait_histogram():
    from repro.bsp.runtime import run_bsp

    def program(bsp):
        for _ in range(3):
            bsp.sync()
        return bsp.pid

    registry = MetricsRegistry()
    run = run_bsp(2, program, metrics=registry)
    assert run.results == [0, 1]
    hist = registry.get("bsp.barrier_wait_s")
    # 2 processes x 3 syncs; drain barriers may add more observations.
    assert hist.count >= 6


def test_metrics_do_not_perturb_determinism():
    """Same seed, with and without metrics: byte-identical event stream."""
    import hashlib

    from repro.apps.spec import ApplicationSpec
    from repro.core.grid import Grid

    def run(enable):
        grid = Grid(seed=11, lupa_enabled=False)
        grid.add_cluster("c0")
        for i in range(3):
            grid.add_node("c0", f"n{i}",
                          profile=__import__(
                              "repro.sim.usage", fromlist=["PROFILES"]
                          ).PROFILES["office_worker"])
        if enable:
            grid.enable_metrics()
        grid.submit(ApplicationSpec(name="d", tasks=2))
        digest = hashlib.sha256()
        for _ in range(48):
            grid.run_for(1800.0)
            digest.update(repr(grid.loop.now).encode())
            digest.update(repr(grid.loop.events_fired).encode())
        digest.update(repr(grid.protocol_stats()).encode())
        return digest.hexdigest()

    assert run(False) == run(True)


def test_export_metrics_json_round_trip(tmp_path):
    import json

    from repro.obs.exporters import export_metrics_json

    registry = MetricsRegistry()
    registry.counter("c").inc(2)
    registry.histogram("h").observe(0.5)
    path = tmp_path / "metrics.json"
    snapshot = export_metrics_json(registry, str(path))
    loaded = json.loads(path.read_text())
    assert loaded["metrics"]["c"] == 2
    assert loaded["metrics"]["h"]["count"] == 1
    assert snapshot["metrics"]["c"] == 2


class TestHistogramValidation:
    """Bounds and percentile argument checking (defensive hardening)."""

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Histogram("h", bounds=())

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", bounds=(1.0, 3.0, 2.0))

    def test_duplicate_bounds_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", bounds=(1.0, 2.0, 2.0, 3.0))

    def test_single_bound_is_valid(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(0.5)
        hist.observe(2.0)
        assert hist.counts == [1, 1]

    def test_registry_histogram_validates_bounds_too(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h", bounds=[5.0, 5.0])

    def test_percentile_rejects_out_of_range_q(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        hist.observe(0.5)
        for bad in (-0.1, 100.1, 1e9, -50):
            with pytest.raises(ValueError, match=r"\[0, 100\]"):
                hist.percentile(bad)

    def test_percentile_q0_and_q100_clamp_to_observed_extremes(self):
        hist = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.percentile(0) == 0.5
        assert hist.percentile(100) == 50.0
        assert 0.5 <= hist.percentile(50) <= 50.0

    def test_percentile_of_empty_histogram_is_zero(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        assert hist.percentile(0) == 0.0
        assert hist.percentile(50) == 0.0
        assert hist.percentile(100) == 0.0
        snapshot = hist.snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p50"] == 0.0 and snapshot["p99"] == 0.0
