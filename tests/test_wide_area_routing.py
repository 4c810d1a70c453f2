"""The wide-area plane does each of its two jobs one way.

Upward, every child — a cluster's GRM or a sub-parent — joins its parent
through one :class:`ClusterUplink`, and ``Grid.build_hierarchy`` builds
one uplink per edge.  Downward, every job a parent places — through the
GRM facade's ``submit``, through ``submit_remote``, or escalated to its
own parent — is recorded in one table, and ``job_status``,
``cancel_job`` and ``register_asct`` reach the job where it runs,
directly or over a marshalled call.
"""

import pytest

from repro import ApplicationSpec, Grid, JobState
from repro.core.hierarchy import ClusterUplink, HierarchyError, ParentGrm
from repro.core.protocols import PARENT_GRM_INTERFACE
from repro.orb.exceptions import OrbError
from tests.test_hierarchy_scaling import GANG_OF_THREE, build_scaled_three_tier

OPERATIONS = ["job_status", "cancel_job", "register_asct"]


def home_of(job_id: str) -> str:
    """The cluster a job id was issued by: ``<cluster>-job<n>``."""
    return job_id.rsplit("-job", 1)[0]


def place(grid, parents, path: str):
    """Place one job along ``path``; returns ``(parent, job_id)``, the
    parent whose table must answer for it."""
    if path == "submit":
        parent = parents["campus_b"]
        return parent, parent.submit(
            ApplicationSpec(name="direct", work_mips=2e5).to_dict())
    if path == "submit_remote":
        parent = parents["campus_a"]
        return parent, parent.submit_remote(
            ApplicationSpec(name="remote", tasks=2, work_mips=2e5).to_dict(),
            "a1")
    assert path == "escalated"
    local = grid.submit(GANG_OF_THREE, cluster="a1")
    grid.run_for(60)
    return parents["campus_a"], grid.job(local).forwarded_to


def ask(parent, operation: str, job_id: str, asct_ior: str = ""):
    if operation == "register_asct":
        return parent.register_asct(job_id, asct_ior)
    return getattr(parent, operation)(job_id)


# -- one table, every path ----------------------------------------------------


@pytest.mark.parametrize("path", ["submit", "submit_remote", "escalated"])
@pytest.mark.parametrize("operation", OPERATIONS)
def test_every_placement_answers_from_where_it_runs(operation, path):
    grid, parents, _ = build_scaled_three_tier()
    parent, job_id = place(grid, parents, path)
    assert job_id and job_id in parent._delegated_jobs
    home = grid.clusters[home_of(job_id)].grm
    if operation == "job_status":
        assert parent.job_status(job_id) == home.job_status(job_id)
        return
    if operation == "cancel_job":
        assert parent.cancel_job(job_id) is None
        assert home.job(job_id).state is JobState.CANCELLED
        return
    asct = grid.make_asct("a1")
    parent.register_asct(job_id, asct.ior)
    home.cancel_job(job_id)
    assert [(e.job_id, e.event) for e in asct.events] == [
        (job_id, "cancelled")]


@pytest.mark.parametrize("operation", OPERATIONS)
def test_a_job_the_parent_never_placed_raises_key_error(operation):
    grid, parents, _ = build_scaled_three_tier()
    # A job submitted straight to a cluster never passed a parent.
    local = grid.submit(ApplicationSpec(name="local", work_mips=2e5),
                        cluster="b1")
    for parent in parents.values():
        with pytest.raises(KeyError):
            ask(parent, operation, local)
        with pytest.raises(KeyError):
            ask(parent, operation, "ghost")


@pytest.mark.parametrize("path, holder", [
    ("submit", "b1|b2"), ("escalated", "parent")])
@pytest.mark.parametrize("operation", OPERATIONS)
def test_an_unreachable_holder_raises_hierarchy_error(operation, path,
                                                      holder):
    grid, parents, _ = build_scaled_three_tier()
    parent, job_id = place(grid, parents, path)
    name, _stub = parent._delegated_jobs[job_id]
    assert name in holder.split("|")
    if name == "parent":
        parents["root"]._orb.shutdown()
    else:
        grid.clusters[name].orb.shutdown()
    with pytest.raises(HierarchyError) as excinfo:
        ask(parent, operation, job_id, "")
    assert excinfo.value.cluster == name
    assert isinstance(excinfo.value.cause, OrbError)


@pytest.mark.parametrize("operation", OPERATIONS)
def test_each_operation_answers_over_a_marshalled_call(operation):
    grid, parents, _ = build_scaled_three_tier()
    parent, job_id = place(grid, parents, "escalated")
    home = grid.clusters[home_of(job_id)].grm
    ior = parent._orb.activate(
        parent, PARENT_GRM_INTERFACE, key="audit").to_string()
    peer = grid._make_orb("peer")
    ref = peer.stub(ior, PARENT_GRM_INTERFACE)._ref
    asct = grid.make_asct("a1")
    args = (job_id, asct.ior) if operation == "register_asct" else (job_id,)
    reply = peer.invoke(
        ref, PARENT_GRM_INTERFACE.operation(operation), args)
    assert peer.stats()["bytes_sent"] > 0          # it really marshalled
    if operation == "job_status":
        assert reply == home.job_status(job_id)
    elif operation == "cancel_job":
        assert reply is None
        assert home.job(job_id).state is JobState.CANCELLED
    else:
        home.cancel_job(job_id)
        assert (job_id, "cancelled", "") in [
            (e.job_id, e.event, e.detail) for e in asct.events]


def test_the_origin_never_answers_for_a_forwarded_job_itself():
    """With its parent gone, the origin GRM raises rather than report
    the copy it cancelled when it forwarded the job."""
    grid, parents, _ = build_scaled_three_tier()
    local = grid.submit(GANG_OF_THREE, cluster="a1")
    grid.run_for(60)
    origin = grid.clusters["a1"].grm
    assert origin.job(local).forwarded_to
    parents["campus_a"]._orb.shutdown()
    with pytest.raises(OrbError):
        origin.job_status(local)
    with pytest.raises(OrbError):
        origin.cancel_job(local)


# -- one upward edge ----------------------------------------------------------


def child_under_parent(kind: str):
    """One child of ``kind`` under a parent ``top``, joined by hand
    through a ClusterUplink; returns ``(grid, top, child, uplink)``."""
    grid = Grid(seed=5, policy="first_fit", lupa_enabled=False,
                summary_interval=120.0)
    grid.add_cluster("c0")
    grid.add_node("c0", "c0-n0", dedicated=True)
    top, top_orb, top_ior, _ = grid._make_parent("top")
    handle = grid.clusters["c0"]
    if kind == "cluster":
        child, orb, child_ior = handle.grm, handle.orb, handle.grm_ior
    else:
        # A sub-parent offers its GRM facade, like one big cluster.
        child, orb, mid_ior, child_ior = grid._make_parent("mid")
        grid._make_uplink(handle.grm, handle.orb, handle.grm_ior, mid_ior)
    stub = orb.stub(top_ior, PARENT_GRM_INTERFACE)
    uplink = ClusterUplink(grid.loop, child, stub, child_ior, interval=120.0)
    return grid, top, child, uplink


KINDS = ["cluster", "sub_parent"]


@pytest.mark.parametrize("kind", KINDS)
def test_an_uplink_registers_its_child_at_once(kind):
    grid, top, child, _uplink = child_under_parent(kind)
    name = child.cluster_summary()["cluster"]
    assert top.clusters == [name]
    assert top.summary_of(name)["nodes"] == 1
    assert grid.loop.now == 0.0


@pytest.mark.parametrize("kind", KINDS)
def test_an_uplink_sends_one_summary_per_interval(kind):
    grid, top, child, uplink = child_under_parent(kind)
    grid.run_until(600.0)
    assert uplink.summaries_sent == 5
    assert top.summaries_received == 5
    name = child.cluster_summary()["cluster"]
    assert top.summary_of(name) == child.cluster_summary()


@pytest.mark.parametrize("kind", KINDS)
def test_an_uplink_hands_its_child_the_parent_for_escalation(kind):
    _grid, _top, child, uplink = child_under_parent(kind)
    assert child._parent is uplink._parent


@pytest.mark.parametrize("kind", KINDS)
def test_a_stopped_uplink_sends_nothing_more(kind):
    grid, top, _child, uplink = child_under_parent(kind)
    grid.run_until(240.0)
    uplink.stop()
    grid.run_until(1200.0)
    assert uplink.summaries_sent == 2
    assert top.summaries_received == 2


# -- build_hierarchy: one uplink per edge ----------------------------------------


def edges(tree: dict) -> list:
    """Every (parent, child) edge of a nested description, in build order."""
    out = []
    (name, children), = tree.items()
    for child in children:
        if isinstance(child, dict):
            out.append((name, next(iter(child))))
            out.extend(edges(child))
        else:
            out.append((name, child))
    return out


TREES = [
    {"p": ["c0"]},
    {"p": ["c0", "c1", "c2"]},
    {"p": [{"q": ["c0"]}]},
    {"p": [{"q": ["c0", "c1"]}, "c2"]},
    {"p": ["c2", {"q": ["c1"]}, "c0"]},
    {"p": [{"q": [{"r": ["c0"]}]}, {"s": ["c1", "c2"]}]},
]


@pytest.mark.parametrize("tree", TREES, ids=lambda tree: "-".join(
    f"{top}>{child}" for top, child in edges(tree)))
def test_build_hierarchy_builds_one_uplink_per_edge(tree):
    grid = Grid(seed=2, lupa_enabled=False)
    for cluster in ("c0", "c1", "c2"):
        grid.add_cluster(cluster)
    parents, uplinks = grid.build_hierarchy(tree)
    assert len(uplinks) == len(edges(tree))
    for name, parent in parents.items():
        assert isinstance(parent, ParentGrm)
        # Children register in the order the description lists them; a
        # sub-parent joins once its own subtree is built.
        assert list(parent._children) == [
            child for top, child in edges(tree) if top == name]


def test_connect_clusters_to_parent_is_a_one_level_build_hierarchy():
    built = []
    for connect in (
            lambda grid: grid.connect_clusters_to_parent("p"),
            lambda grid: grid.build_hierarchy({"p": ["z", "a", "m"]})):
        grid = Grid(seed=2, lupa_enabled=False, summary_interval=120.0)
        for cluster in ("z", "a", "m"):
            grid.add_cluster(cluster)
        parent, uplinks = connect(grid)
        if isinstance(parent, dict):
            parent = parent["p"]
        grid.run_until(600.0)
        built.append((list(parent._children), len(uplinks),
                      parent.summaries_received))
    # The clusters join in insertion order, one uplink each.
    assert built[0] == built[1] == (["z", "a", "m"], 3, 3 * 5)
