"""E1 — Information Update Protocol cost.

The paper claims the protocol is lightweight enough to run on shared
desktops.  Sweep cluster size and update interval; measure the message
and byte load the GRM absorbs per hour (requests priced in CDR bytes by
a WireMeter on the manager's ORB) and the mean staleness of the GRM's
view.  Expected shape: load grows
linearly with nodes and inversely with the interval; staleness is about
half the interval.  The nodes are idle and dedicated, so nothing
changes: nine sends in ten are ~36-byte heartbeats and the tenth is the
144-byte full refresh, which is what "bytes/update" averages.
"""

from repro import Grid
from repro.analysis.metrics import Table
from repro.orb import WireMeter
from repro.sim.clock import SECONDS_PER_HOUR

from conftest import run_once, save_result


def measure(nodes, update_interval, seed=1):
    grid = Grid(
        seed=seed, policy="first_fit", lupa_enabled=False,
        update_interval=update_interval,
    )
    grid.add_cluster("c0")
    for i in range(nodes):
        grid.add_node("c0", f"n{i:03}", dedicated=True)
    grid.run_for(300)   # settle registrations
    meter = WireMeter()
    grid.clusters["c0"].orb.add_server_interceptor(meter)
    before_updates = grid.clusters["c0"].grm.stats.updates_received
    # Probe staleness at uneven offsets so we never sample exactly at an
    # update instant; the expectation is interval/2.
    staleness_samples = []
    records = grid.clusters["c0"].grm._nodes.values()
    for _ in range(8):
        grid.run_for(SECONDS_PER_HOUR / 8 + 7.3)
        now = grid.loop.now
        staleness_samples.append(
            sum(now - r.last_seen for r in records) / max(1, len(records))
        )
    updates = grid.clusters["c0"].grm.stats.updates_received - before_updates
    bytes_in = meter.bytes
    staleness = sum(staleness_samples) / len(staleness_samples)
    return {
        "updates_per_hour": updates,
        "kb_per_hour": bytes_in / 1024.0,
        "bytes_per_update": bytes_in / updates if updates else 0.0,
        "mean_staleness_s": staleness,
    }


def run_experiment():
    table = Table(
        ["nodes", "interval (s)", "updates/h", "KB/h @GRM",
         "bytes/update", "staleness (s)"],
        title="E1: Information Update Protocol cost (LRM -> GRM, via CDR)",
    )
    for nodes in (10, 50, 100):
        for interval in (30.0, 60.0, 300.0):
            m = measure(nodes, interval)
            table.add_row(
                nodes, int(interval), m["updates_per_hour"],
                m["kb_per_hour"], m["bytes_per_update"],
                m["mean_staleness_s"],
            )
    return table


def test_e1_information_protocol(benchmark):
    table = run_once(benchmark, run_experiment)
    save_result("e1_information_protocol", table.render(), table=table)
    rows = {(r[0], r[1]): r for r in table.rows}
    # Load scales ~linearly with node count at fixed interval.
    assert float(rows[("100", "60")][2]) > 8 * float(rows[("10", "60")][2])
    # Longer intervals mean fewer messages.
    assert float(rows[("50", "300")][2]) < float(rows[("50", "30")][2]) / 5
