"""``job_status`` answers one typed ``JobStatus`` struct on every path.

The reply is declared in IDL (``repro.core.protocols.JOB_STATUS``), so a
collocated call hands the caller the GRM's dict by reference while a
TCP call and an auth-enveloped call marshal it field by field.  The
three must read the same for a job in every state, and a servant that
answers something the struct cannot carry fails that one call — as a
``MarshalError`` — not the connection.
"""

import pytest

from repro import ApplicationSpec, Grid
from repro.core.protocols import GRM_INTERFACE, JOB_STATUS
from repro.orb.core import Orb
from repro.orb.exceptions import RemoteInvocationError
from repro.orb.transport import InProcDomain

#: One completed job per Variant kind a task result can take.
RESULTS = {
    "none": "None", "bool": "True", "int": "-42", "float": "2.5",
    "str": "'téxt'", "bytes": "b'\\x00\\xff'", "list": "[1, 'two', None]",
    "dict": "{'k': [1.5, {'deep': False}]}",
}


def build(auth_secret=None):
    """``(grid, {label: (cluster, job id)})``: a job in each state the
    reply reports, read while the running one is part done."""
    grid = Grid(seed=5, policy="first_fit", lupa_enabled=False,
                auth_secret=auth_secret)
    grid.add_cluster("work")
    for i in range(4):
        grid.add_node("work", f"w{i}", dedicated=True)
    grid.add_cluster("idle")            # no node: hands every job on
    grid.connect_clusters_to_parent()
    grid.run_for(120)

    def submit(name, cluster="work", **kwargs):
        return cluster, grid.submit(ApplicationSpec(name=name, **kwargs),
                                    cluster)

    jobs = {f"completed/{kind}": submit(
        kind, work_mips=1e4, metadata={"payload": f"result = {source}"})
        for kind, source in RESULTS.items()}
    jobs["failed"] = submit("boom", work_mips=1e4,
                            metadata={"payload": "raise ValueError('no')"})
    jobs["cancelled"] = submit("stop", tasks=2, work_mips=1e9)
    jobs["pending"] = submit("held", cluster="idle", work_mips=1e4,
                             metadata={"no_forward": True})
    jobs["forwarded"] = submit("away", cluster="idle", tasks=2,
                               work_mips=1e4)
    grid.run_for(600)
    grid.clusters["work"].grm.cancel_job(jobs["cancelled"][1])
    jobs["running"] = submit("long", work_mips=1.2e6)
    grid.run_for(300)
    return grid, jobs


def read_collocated(grid, jobs):
    """Through an ASCT of each cluster, on the grid's own ORBs."""
    ascts = {name: grid.make_asct(name) for name in grid.clusters}
    return {label: ascts[cluster].status(job_id)
            for label, (cluster, job_id) in jobs.items()}


def read_over_tcp(grid, jobs):
    """The same GRM servants, activated on a TCP ORB and read from a
    client in another domain."""
    server = Orb("tcp-grms", domain=InProcDomain(), tcp=True)
    client = Orb("tcp-reader", domain=InProcDomain(), tcp=True)
    try:
        stubs = {name: client.stub(server.activate(handle.grm, GRM_INTERFACE),
                                   GRM_INTERFACE)
                 for name, handle in grid.clusters.items()}
        return {label: stubs[cluster].job_status(job_id)
                for label, (cluster, job_id) in jobs.items()}
    finally:
        client.shutdown()
        server.shutdown()


@pytest.fixture(scope="module")
def replies():
    grid, jobs = build()
    auth_grid, auth_jobs = build(auth_secret=b"pin")
    assert auth_jobs == jobs
    return (jobs, read_collocated(grid, jobs), read_over_tcp(grid, jobs),
            read_collocated(auth_grid, jobs),
            auth_grid.protocol_stats()["bytes_sent"])


def test_the_scenario_holds_a_job_in_every_state(replies):
    _jobs, collocated, _tcp, _auth, auth_bytes = replies
    states = {label: reply["state"] for label, reply in collocated.items()}
    assert states == {
        **{f"completed/{kind}": "completed" for kind in RESULTS},
        "failed": "failed", "cancelled": "cancelled", "pending": "pending",
        "forwarded": "completed", "running": "running",
    }
    assert [t["result"] for kind in RESULTS
            for t in collocated[f"completed/{kind}"]["tasks"]] == [
        None, True, -42, 2.5, "téxt", b"\x00\xff", [1, "two", None],
        {"k": [1.5, {"deep": False}]}]
    running = collocated["running"]
    assert 0.0 < running["progress"] < 1.0
    assert running["tasks"][0]["progress_mips"] > 0.0
    assert collocated["forwarded"]["job_id"] != _jobs["forwarded"][1]
    assert auth_bytes > 0                   # the enveloped grid marshals


@pytest.mark.parametrize("label", [
    *(f"completed/{kind}" for kind in RESULTS),
    "failed", "cancelled", "pending", "forwarded", "running"])
def test_collocated_tcp_and_enveloped_replies_are_equal(replies, label):
    _jobs, collocated, tcp, auth, _bytes = replies
    assert tcp[label] == collocated[label]
    assert auth[label] == collocated[label]
    assert list(tcp[label]) == [fname for fname, _ in JOB_STATUS.fields]


class PartialGrm:
    """A GRM servant whose reply for one job lacks a field."""

    def __init__(self, reply):
        self.reply = reply

    def job_status(self, job_id):
        if job_id == "partial":
            return {k: v for k, v in self.reply.items() if k != "progress"}
        return self.reply

    def __getattr__(self, name):    # every other operation: unused
        return lambda *args: None


def test_a_reply_lacking_a_field_fails_the_call_not_the_connection():
    grid, jobs = build()
    reply = grid.clusters["work"].grm.job_status(jobs["completed/dict"][1])
    server = Orb("partial", domain=InProcDomain(), tcp=True)
    client = Orb("partial-reader", domain=InProcDomain(), tcp=True)
    try:
        stub = client.stub(server.activate(PartialGrm(reply), GRM_INTERFACE),
                           GRM_INTERFACE)
        assert stub.job_status("whole") == reply
        connection = client._tcp._client_socks[server._tcp.address]
        with pytest.raises(RemoteInvocationError) as excinfo:
            stub.job_status("partial")
        assert excinfo.value.remote_type == "MarshalError"
        assert "JobStatus missing field 'progress'" in \
            excinfo.value.remote_message
        assert stub.job_status("whole") == reply       # still serving
        assert client._tcp._client_socks[server._tcp.address] is connection
        assert len(server._tcp._server_conns) == 1
    finally:
        client.shutdown()
        server.shutdown()
