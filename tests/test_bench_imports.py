"""Every experiment bench still imports.

Most ``benchmarks/bench_*.py`` modules never run in CI, so a name one
of them imports — from the package, from another bench, or from
``tests/oracles/`` — could vanish without anything going red.  This
imports each one the way pytest and ``perf_smoke.py`` do (``benchmarks/``
on ``sys.path``, so ``conftest`` resolves), without running its
benchmarks.
"""

import glob
import importlib.util
import os

import pytest

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)
BENCHES = sorted(glob.glob(os.path.join(BENCH_DIR, "bench_*.py")))


def test_benches_found():
    assert len(BENCHES) >= 20


@pytest.mark.parametrize(
    "path", BENCHES, ids=[os.path.basename(p)[:-3] for p in BENCHES])
def test_bench_module_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    name = "import_smoke_" + os.path.basename(path)[:-3]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert any(attr.startswith("test_") for attr in vars(module))


def test_e11_grm_scan_text_is_what_a_grm_queries(monkeypatch):
    """E11's ``trader_grm_scan_queries_per_s`` row times the query a GRM
    sends for a default task; it must not drift from ``_offers_for``."""
    from repro import ApplicationSpec, Grid

    monkeypatch.syspath_prepend(BENCH_DIR)
    spec = importlib.util.spec_from_file_location(
        "import_smoke_e11_text", os.path.join(BENCH_DIR, "bench_e11_orb.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    grid = Grid(seed=1, lupa_enabled=False)
    grid.add_cluster("c0")
    grid.add_node("c0", "n0", dedicated=True)
    grid.run_for(60)
    trader = grid.clusters["c0"].grm.trader
    texts = []
    query = trader.query_properties
    monkeypatch.setattr(trader, "query_properties", lambda service, text: (
        texts.append(text) or query(service, text)))
    grid.submit(ApplicationSpec(name="t", work_mips=1e5))
    grid.run_for(600)
    assert texts and set(texts) == {bench.GRM_SCAN_CONSTRAINT}
