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
