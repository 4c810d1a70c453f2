"""Golden determinism test.

Replays a mixed-profile scenario (three office workers, a student lab,
two night owls; three checkpointed jobs) and compares a sha256 over
every write of ``EventLoop.now``, plus job outcomes and GRM protocol counters,
against ``tests/data/golden_determinism.json``.  Any reordering, extra
event or dropped event changes the digest, so an optimisation that
claims to preserve behaviour (the event core, the indexed trader,
compiled constraints, vectorised usage grids, direct dispatch) must
leave this file alone.

Re-baselining
-------------
The file hashes every write of ``EventLoop.now``, so a change to *when things
happen* cannot keep it — and must not pretend to.  Regenerating it is
legitimate only when the issue being implemented names the semantic
change beforehand (what moves, in which direction, by how much); "the
digest changed and the tests pass otherwise" is not a reason.  The
procedure:

1. In a clone of the parent commit, run ``run_golden_scenario()`` and
   keep its output and each golden job's task history.
2. ``PYTHONPATH=src python tests/test_determinism_golden.py --write``
   on the change.
3. Compare the two per job — state, ``completed_at``, placements,
   evictions, completions — and check every difference is the one the
   issue named.  ``sequence_sha256`` / ``advance_calls`` /
   ``events_fired`` are expected to move; a job outcome that moves
   needs its own explanation.  A change to *how often* the clock is
   advanced for the same instants moves the first two only: compare
   the sequence of distinct instants (consecutive repeats collapsed)
   on both sides.
4. Record old-vs-new in ``CHANGES.md`` with the commit.

History: captured from the unoptimised seed; re-baselined once, when
analytic task progress replaced the LRM's tick (events 68,283 ->
38,049, the three jobs' outcomes unchanged); once when the GRM
began debiting its own offers on launch (negotiation rounds 6 -> 3:
the three refusals were nodes it had just filled; clock sequence,
events and every job's placements and completion unchanged); and once
when same-instant periodic occurrences began sharing one heap entry
(a run advances the clock once for all its members: advance calls
38,049 -> 14,362 and a new ``sequence_sha256``; the 10,081 distinct
instants, their digest, events fired, every job and the GRM stats
unchanged).  ``advance_calls`` counts the writes of ``EventLoop.now``,
recorded through a ``now`` property swapped onto ``grid.loop``.
"""

import hashlib
import json
import os
import sys

from repro import ApplicationSpec, Grid
from repro.core.ncc import VACATE_POLICY
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.sim.usage import NIGHT_OWL, OFFICE_WORKER, STUDENT_LAB

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_determinism.json"
)


def run_golden_scenario():
    grid = Grid(seed=1234, policy="pattern_aware", lupa_enabled=True,
                lupa_min_history_days=2, update_interval=120.0)
    times = []

    class RecordingLoop(type(grid.loop)):
        @property
        def now(self):
            return self.__dict__["now"]

        @now.setter
        def now(self, when):
            times.append(when)
            self.__dict__["now"] = when

    grid.loop.__class__ = RecordingLoop
    grid.add_cluster("c0")
    profiles = [OFFICE_WORKER] * 3 + [STUDENT_LAB, NIGHT_OWL, NIGHT_OWL]
    for i, profile in enumerate(profiles):
        grid.add_node("c0", f"n{i:02}", profile=profile, sharing=VACATE_POLICY)
    grid.run_for(3 * SECONDS_PER_DAY)
    job_ids = [
        grid.submit(ApplicationSpec(
            name=f"job{j}", work_mips=1.8e6,
            metadata={"checkpoint_interval_s": 900.0},
        ))
        for j in range(3)
    ]
    grid.run_for(12 * SECONDS_PER_HOUR)
    digest = hashlib.sha256(
        ",".join(f"{t:.9g}" for t in times).encode()
    ).hexdigest()
    grm = grid.clusters["c0"].grm
    return {
        "sequence_sha256": digest,
        "advance_calls": len(times),
        "events_fired": grid.loop.events_fired,
        "final_now": grid.loop.now,
        "jobs": [
            {
                "job_id": j,
                "state": grid.job(j).state.value,
                "completed_at": grid.job(j).completed_at,
                "progress": grid.job(j).progress_fraction(),
            }
            for j in job_ids
        ],
        "stats": {
            "updates_received": grm.stats.updates_received,
            "negotiation_rounds": grm.stats.negotiation_rounds,
            "placements": grm.stats.placements,
            "evictions_handled": grm.stats.evictions_handled,
            "completions": grm.stats.completions,
        },
    }


def test_golden_determinism():
    with open(GOLDEN_PATH) as f:
        golden = json.load(f)
    assert run_golden_scenario() == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_determinism_golden.py --write   "
                 "(read the module docstring first)")
    with open(GOLDEN_PATH, "w") as f:
        json.dump(run_golden_scenario(), f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN_PATH}")
