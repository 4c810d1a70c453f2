"""Direct dispatch against the wire: the equivalence oracle and the
aliasing audit.

A default ``Grid`` dispatches every call directly (arguments and results
cross by reference); ``Grid(auth_secret=...)`` envelopes every request,
which forces the same calls through CDR.  The two must be
indistinguishable from the outside — the first cell of the
configuration-matrix invariant (ROADMAP item 3) — and, because nothing
is copied on the direct path, nobody may mutate an object once it has
crossed the ORB.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ApplicationSpec, Grid
from repro.core.ncc import BlackoutWindow, SharingPolicy
from repro.core.protocols import (
    GRM_INTERFACE,
    GUPA_INTERFACE,
    LRM_INTERFACE,
    PARENT_GRM_INTERFACE,
)
from repro.orb import cdr
from repro.orb.core import Orb
from repro.orb.exceptions import RemoteInvocationError
from repro.sim.clock import SECONDS_PER_HOUR
from repro.sim.usage import OFFICE_WORKER

HOUR = SECONDS_PER_HOUR
#: Evicts whatever runs on the node at 02:00, whatever the seed.
NIGHTLY_BLACKOUT = SharingPolicy(blackouts=(BlackoutWindow(2.0, 3.0),))


def build_grid(**grid_kwargs):
    """Two clusters under a parent.  ``alpha`` (3 nodes, the first with a
    nightly blackout) cannot host a 4-task gang; ``beta`` (4 nodes) can."""
    grid = Grid(seed=11, policy="first_fit", lupa_min_history_days=1,
                lupa_upload_interval=6 * HOUR, **grid_kwargs)
    grid.add_cluster("alpha")
    grid.add_node("alpha", "a-blackout", sharing=NIGHTLY_BLACKOUT)
    grid.add_node("alpha", "a-office", profile=OFFICE_WORKER)
    grid.add_node("alpha", "a-leaving", dedicated=True)
    grid.add_cluster("beta")
    for i in range(4):
        grid.add_node("beta", f"b{i}", dedicated=True)
    parent, _uplinks = grid.connect_clusters_to_parent()
    return grid, parent


def run_scenario(**grid_kwargs):
    """Sequential + BSP + checkpointed jobs, one blackout eviction, one
    ``remove_node``, 30 simulated hours.  Returns ``(grid, job ids)``."""
    grid, _parent = build_grid(**grid_kwargs)
    grid.run_for(600)
    asct = grid.make_asct("alpha")
    jobs = [
        # First fit puts it on a-blackout; evicted at 02:00, it waits in
        # alpha and resumes from its last checkpoint.
        grid.submit(ApplicationSpec(
            name="ckpt", work_mips=1.8e7,
            metadata={"checkpoint_interval_s": 900.0, "no_forward": True},
        ), cluster="alpha"),
        asct.submit(ApplicationSpec(name="seq", tasks=2, work_mips=9e6)),
        # Needs four distinct nodes: forwarded to the parent, run on beta.
        grid.submit(ApplicationSpec(
            name="gang", kind="bsp", tasks=4, program="p", work_mips=2e6,
            checkpoint_every_supersteps=2,
            metadata={"supersteps": 4, "superstep_comm_bytes": 50_000},
        ), cluster="alpha"),
    ]
    grid.run_for(HOUR)
    grid.remove_node("alpha", "a-leaving")
    jobs.append(grid.submit(
        ApplicationSpec(name="late", work_mips=3.6e6), cluster="beta"))
    grid.run_for(29 * HOUR)
    return grid, jobs


def outcomes(grid, job_ids):
    """Per-job state, completion time and placement history, following
    wide-area forwarding, plus the counters that would expose a call
    that went missing or happened twice."""
    jobs = []
    for job_id in job_ids:
        job = grid.job(job_id)
        hops = [job.job_id]
        while job.forwarded_to:
            job = grid.job(job.forwarded_to)
            hops.append(job.job_id)
        jobs.append((
            hops, job.state.value, job.completed_at,
            [(t.task_id, t.state.value, t.node, t.evictions,
              [(e.time, e.state, e.detail) for e in t.history])
             for t in job.tasks],
        ))
    stats = grid.protocol_stats()
    return {
        "jobs": jobs,
        "events_fired": grid.loop.events_fired,
        "requests": {k: v for k, v in stats.items()
                     if not k.startswith("bytes_")},
        "grm": {name: vars(handle.grm.stats)
                for name, handle in grid.clusters.items()},
        "lrm_evictions": sum(node.lrm.evicted_count
                             for handle in grid.clusters.values()
                             for node in handle.nodes.values()),
    }


class TestDirectEqualsWire:
    def test_default_grid_matches_the_auth_enveloped_grid(self):
        direct_grid, direct_jobs = run_scenario()
        wire_grid, wire_jobs = run_scenario(auth_secret=b"campus-key")
        direct = outcomes(direct_grid, direct_jobs)
        wire = outcomes(wire_grid, wire_jobs)
        assert direct == wire

        # The two grids really took different paths ...
        assert direct_grid.protocol_stats()["bytes_sent"] == 0
        assert wire_grid.protocol_stats()["bytes_sent"] > 100_000
        # ... and the scenario exercised what it claims to.
        by_name = dict(zip(("ckpt", "seq", "gang", "late"), direct["jobs"]))
        assert all(job[1] == "completed" for job in direct["jobs"])
        assert len(by_name["gang"][0]) == 2           # forwarded to beta
        ckpt_task = by_name["ckpt"][3][0]
        assert ckpt_task[3] >= 1                      # evicted by blackout
        assert any(e[2] == "from a-blackout" for e in ckpt_task[4])
        assert direct["lrm_evictions"] >= 1


# -- aliasing -----------------------------------------------------------------


@pytest.fixture
def crossings(monkeypatch):
    """Every object that crosses a direct dispatch, with a deep copy
    taken at the moment it crossed: ``[(label, live, snapshot)]``.

    Recorded around the servant method ``Orb._servant_method`` hands
    out, the seam every dispatch passes: a bound stub call looks the
    method up once and keeps it, an unbound one looks it up per call."""
    crossed = []
    lookup = Orb._servant_method

    def recording_lookup(self, key, op_name):
        method, operation = lookup(self, key, op_name)
        label = f"{key}.{op_name}"

        def recording(*args):
            crossed.append((f"{label} args", args, copy.deepcopy(args)))
            result = method(*args)
            crossed.append((f"{label} result", result, copy.deepcopy(result)))
            return result

        return recording, operation

    monkeypatch.setattr(Orb, "_servant_method", recording_lookup)
    return crossed


def test_nothing_that_crossed_the_orb_is_mutated_later(crossings):
    """Callers (LRM, GRM, uplinks, ASCT, BSP coordinator) and servants
    alike: once an argument or result has crossed, it stays as it was."""
    grid, _jobs = run_scenario()
    assert len(crossings) > 10_000
    seen = {label.split(".", 1)[1] for label, _, _ in crossings}
    assert {"send_update args", "heartbeat args",
            "request_reservation result", "send_summary args",
            "submit_remote args", "upload_pattern args",
            "register_cluster args"} <= seen
    for label, live, snapshot in crossings:
        assert live == snapshot, f"{label} was mutated after crossing"


TEXT = st.text(alphabet="abcxyz-/.0123456789", max_size=12)
FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)
VARIANTS = st.recursive(
    st.none() | st.booleans() | st.integers(-2**31, 2**31 - 1) | FLOATS
    | TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)


def values_of(idl_type, names):
    """A strategy for values an IDL type accepts; strings favour names
    the live grid knows, so servants take their real paths."""
    if isinstance(idl_type, cdr.Struct):
        return st.fixed_dictionaries({
            field: values_of(field_type, names)
            for field, field_type in idl_type.fields
        })
    if idl_type is cdr.String:
        return st.sampled_from(names) | TEXT
    if idl_type is cdr.Double:
        return FLOATS
    if idl_type is cdr.Long:
        return st.integers(-2**31, 2**31 - 1)
    if idl_type is cdr.Boolean:
        return st.booleans()
    assert idl_type is cdr.VARIANT, idl_type
    return VARIANTS


def live_world():
    """A small running grid with one job placed, one forwarded; returns
    the servants by interface and the names worth drawing."""
    grid, parent = build_grid()
    grid.run_for(120)
    local = grid.submit(ApplicationSpec(
        name="held", tasks=2, work_mips=1e9,
        metadata={"checkpoint_interval_s": 60.0}), cluster="alpha")
    grid.submit(ApplicationSpec(
        name="wide", kind="bsp", tasks=4, program="p", work_mips=1e9,
        metadata={"supersteps": 4}), cluster="alpha")
    grid.run_for(120)
    alpha = grid.clusters["alpha"]
    node = alpha.nodes["a-blackout"]
    names = sorted(alpha.nodes) + sorted(grid.clusters) + [
        local, f"{local}.0", f"{local}.1", node.lrm_ior, alpha.grm_ior,
    ]
    targets = {
        LRM_INTERFACE.name: (LRM_INTERFACE, node.lrm_ior),
        GRM_INTERFACE.name: (GRM_INTERFACE, alpha.grm_ior),
        GUPA_INTERFACE.name: (GUPA_INTERFACE, alpha.gupa_ior),
        PARENT_GRM_INTERFACE.name: (
            PARENT_GRM_INTERFACE,
            grid.domain.lookup("parent-orb").activate(
                parent, PARENT_GRM_INTERFACE, key="audit").to_string()),
    }
    return grid, targets, names


#: Arguments a servant is likeliest to keep or unpack: well-formed ones.
WELL_FORMED = {
    "spec": st.builds(
        lambda tasks, meta: ApplicationSpec(
            name="generated", tasks=tasks, work_mips=1e6,
            metadata=meta).to_dict(),
        st.integers(1, 5),
        st.dictionaries(TEXT, VARIANTS, max_size=2),
    ),
    "pattern": st.fixed_dictionaries({
        "node": TEXT, "bins_per_day": st.just(2), "history_days": st.just(7),
        "weekly": st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
            min_size=7, max_size=7),
    }),
}

ALL_OPERATIONS = [
    pytest.param(interface.name, op_name, id=f"{interface.name}.{op_name}")
    for interface in (LRM_INTERFACE, GRM_INTERFACE, GUPA_INTERFACE,
                      PARENT_GRM_INTERFACE)
    for op_name in interface.operations
]


@pytest.mark.parametrize("interface_name, op_name", ALL_OPERATIONS)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_servants_never_mutate_what_they_are_handed(interface_name, op_name,
                                                    data):
    """For every operation: the arguments are untouched when the call
    returns, and neither they nor the result change while the servant
    keeps running (a retained alias must stay read-only)."""
    grid, targets, names = live_world()
    interface, ior = targets[interface_name]
    operation = interface.operation(op_name)
    args = tuple(
        data.draw(
            WELL_FORMED[param.name] | values_of(param.idl_type, names)
            if param.name in WELL_FORMED
            else values_of(param.idl_type, names),
            label=param.name,
        )
        for param in operation.params
    )
    snapshot = copy.deepcopy(args)
    client = Orb("audit-client", domain=grid.domain)
    stub = client.stub(ior, interface)
    try:
        result = getattr(stub, op_name)(*args)
    except RemoteInvocationError:
        result = None     # the servant rejected the arguments: fine
    assert args == snapshot, "mutated during the call"
    assert client.stats()["bytes_sent"] == 0      # it was a direct call
    result_snapshot = copy.deepcopy(result)

    # Keep the servants busy: a fresh status for every node (rewriting
    # the Trader's offers), then updates, scheduling and summaries.
    alpha = grid.clusters["alpha"]
    for node in alpha.nodes.values():
        alpha.grm.send_update(dict(node.lrm.status(), cpu_free=0.25))
    grid.run_for(360)
    assert args == snapshot, "mutated after the call, through an alias"
    assert result == result_snapshot, "result mutated after it was returned"
