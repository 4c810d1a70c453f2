"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one table/figure from the experiment index
in DESIGN.md.  The measured rows are printed AND written to
``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can quote them
verbatim; the pytest-benchmark fixture times one representative run.

Benchmarks can additionally emit machine-readable metrics with
:func:`save_json`.  JSON emission is off by default (so routine test
runs never dirty the committed baselines) and is enabled with either
``--bench-json`` on the pytest command line or ``BENCH_JSON=1`` in the
environment.  Files land in ``benchmarks/results/BENCH_<TAG>.json`` and
are the baselines the CI perf smoke compares against.

Importing this module also puts the repository root on ``sys.path``, so
a bench can import its oracle from ``tests.oracles``.
"""

import json
import os
import sys

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# The seed implementations the benches measure against live in the test
# tree (``tests/oracles/``); make them importable however the benches run.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

_JSON_ENABLED = bool(os.environ.get("BENCH_JSON"))


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        action="store_true",
        default=False,
        help="write machine-readable BENCH_<TAG>.json metric files",
    )


def pytest_configure(config):
    global _JSON_ENABLED
    if config.getoption("--bench-json", default=False):
        _JSON_ENABLED = True


def save_result(experiment: str, text: str, table=None) -> None:
    """Persist an experiment's rendered table(s).

    When ``table`` (a :class:`repro.analysis.metrics.Table`) is given and
    JSON mode is on, also emit the rows as ``BENCH_<TAG>.json`` where the
    tag is the experiment's index prefix (``e3_lupa_prediction`` → E3).
    Benches with richer metrics call :func:`save_json` themselves, after
    ``save_result``, overwriting this generic sidecar.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment}.txt")
    with open(path, "w") as f:
        f.write(text.rstrip() + "\n")
    print(f"\n{text}\n[saved to {path}]")
    if table is not None:
        save_json(experiment.split("_")[0].upper(), {
            "experiment": experiment,
            "headers": table.headers,
            "rows": table.rows,
        })


def save_json(tag: str, metrics: dict) -> None:
    """Persist machine-readable metrics as ``BENCH_<TAG>.json``.

    A no-op unless ``--bench-json`` / ``BENCH_JSON=1`` is set, so normal
    test runs never touch the committed baselines.  Content is metrics
    only — no timestamps — so reruns with unchanged numbers diff clean.
    """
    if not _JSON_ENABLED:
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{tag}.json")
    with open(path, "w") as f:
        json.dump(metrics, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"[metrics saved to {path}]")


def load_json(tag: str):
    """Read a committed ``BENCH_<TAG>.json`` baseline, or None if absent."""
    path = os.path.join(RESULTS_DIR, f"BENCH_{tag}.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def run_once(benchmark, fn, *args, **kwargs):
    """Time one full experiment run with pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
