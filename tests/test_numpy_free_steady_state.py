"""Only a batch imports numpy; the grid's steady state runs without it.

This suite's own process has numpy loaded, so each check runs in a
fresh interpreter.  ``benchmarks/steady_state_probe.py`` imports
``repro``, builds a ``Grid`` and drives GUPA uploads, LUPA across a day
end, pattern-aware ranking, a checkpointed BSP gang, a parent-GRM
forward and one TCP ORB call: neither numpy nor ctypes may be in
``sys.modules`` after it.  The converse: ranking more than
``SCALAR_MAX_CELLS`` cells and LUPA's first k-means pass (after
``min_history_days``) do import numpy, and still match
``tests/oracles`` bit for bit; one 128 KiB checkpoint loads the CRC
kernel through ctypes where libdeflate is installed.
"""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE = os.path.join(ROOT, "benchmarks", "steady_state_probe.py")


def run_fresh(source: str) -> dict:
    """Run ``source`` in a fresh interpreter; its last line is JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (os.path.join(ROOT, "src"), ROOT)))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source)], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, check=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_the_steady_state_runs_without_numpy():
    spec = importlib.util.spec_from_file_location("steady_state_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    result = probe.run_probe()
    assert result["numpy_loaded"] is False
    assert result["ctypes_loaded"] is False
    ran = result["exercised"]
    assert ran["gupa_uploads"] == 10
    assert ran["lupa_days"] >= 1
    assert ran["rankings"] > 0 and ran["largest_ranking"] > 1
    assert ran["gang_checkpoints"] > 0
    assert ran["gang_results"] == [10, 10, 10, 10]   # 1+2+3+4 on every pid
    assert ran["jobs_forwarded"] > 0
    assert ran["job_states"] == ["completed"]
    assert ran["tcp_job_state"] == "completed"
    assert result["import_rss_mb"] > 0 and result["import_s"] > 0


def test_a_large_ranking_imports_numpy_and_matches_the_oracle():
    result = run_fresh("""
        import json, random, sys
        from repro.apps.spec import ApplicationSpec
        from repro.core.gupa import Gupa, SCALAR_MAX_CELLS
        from repro.core.scheduler import PatternAwarePolicy, ScheduleContext

        rng = random.Random(5)
        gupa, uploaded, offers = Gupa(), {}, []
        for i in range(2 * SCALAR_MAX_CELLS):
            node = f"n{i}"
            if i % 10:
                uploaded[node] = {"bins_per_day": 48, "weekly": [
                    [rng.random() for _ in range(48)] for _ in range(7)]}
                gupa.upload_pattern(node, uploaded[node])
            offers.append({"node": node, "mips": rng.choice((500.0, 2000.0)),
                           "cpu_free": rng.choice((0.0, 0.5, 1.0))})
        before = "numpy" in sys.modules
        ctx = ScheduleContext(ApplicationSpec(name="x", work_mips=3e6),
                              3e6, 10 * 3600.0 + 600.0, gupa)
        policy = PatternAwarePolicy()
        order = [o["node"] for o in policy.order(offers, ctx)]
        nodes = [o["node"] for o in offers]
        scores = gupa.idle_probabilities(nodes, ctx.now, 7200.0).tolist()
        after = "numpy" in sys.modules

        from tests.oracles import gupa as gupa_oracle
        from tests.oracles import scheduler as scheduler_oracle
        print(json.dumps({
            "before": before, "after": after,
            "order": order == [o["node"] for o in scheduler_oracle.order(
                policy, offers, ctx, uploaded)],
            "scores": scores == [gupa_oracle.idle_probability(
                uploaded.get(node), ctx.now, 7200.0) for node in nodes],
        }))
    """)
    assert result == {"before": False, "after": True,
                      "order": True, "scores": True}


def test_the_first_lupa_learn_imports_numpy_and_matches_the_oracle():
    result = run_fresh("""
        import json, random, sys
        from repro.core.lupa import Lupa
        from repro.sim.clock import SECONDS_PER_DAY
        from repro.sim.events import EventLoop

        def probe(loop, seed):
            rng = random.Random(seed)
            def activity():
                hour = loop.now % SECONDS_PER_DAY / 3600.0
                return (0.9 if 9.0 <= hour < 17.0 else 0.1) + rng.random() / 5
            return activity

        loop = EventLoop()
        lupa = Lupa(loop, "n0", probe(loop, 7), seed=3)
        loop.run_until(7 * SECONDS_PER_DAY - 600.0)
        unlearned = (lupa.history_days, lupa.learned, "numpy" in sys.modules)
        loop.run_until(8 * SECONDS_PER_DAY + 600.0)
        learned = (lupa.history_days, lupa.learned, "numpy" in sys.modules)

        from tests.oracles.lupa import NumpyAccumulatorLupa
        loop2 = EventLoop()
        oracle = NumpyAccumulatorLupa(loop2, "n0", probe(loop2, 7), seed=3)
        loop2.run_until(8 * SECONDS_PER_DAY + 600.0)
        print(json.dumps({
            "unlearned": unlearned, "learned": learned,
            "pattern": repr(lupa.pattern()) == repr(oracle.pattern()),
            "periods": [p.tobytes() for p in lupa._periods]
                       == [p.tobytes() for p in oracle._periods],
            "holiday": lupa.holiday_likelihood().hex()
                       == oracle.holiday_likelihood().hex(),
        }))
    """)
    assert result == {
        "unlearned": [6, False, False], "learned": [8, True, True],
        "pattern": True, "periods": True, "holiday": True,
    }


def test_a_128_kib_checkpoint_loads_the_crc_kernel():
    result = run_fresh("""
        import json, sys, zlib
        from repro.checkpoint import serializer
        small = serializer.serialize({"progress_mips": 1.5})
        before = ("ctypes" in sys.modules,
                  serializer._kernel is serializer._UNLOADED)
        envelope = serializer.serialize({"blob": bytes(range(256)) * 512})
        print(json.dumps({
            "before": before,
            "after": "ctypes" in sys.modules,
            "kernel": callable(serializer._kernel),
            "library": serializer._open_library() is not None,
            "crc": int.from_bytes(envelope[-4:], "little")
                   == zlib.crc32(envelope[:-4]),
        }))
    """)
    assert result["before"] == [False, True]
    assert result["crc"] is True
    # Where the library is installed, the kernel loaded with ctypes;
    # where it is not, zlib answered and the kernel is None.
    assert result["kernel"] is result["library"]
    assert result["after"] is True
