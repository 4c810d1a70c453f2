"""Wire-shape conformance: every dict a component emits must marshal
under its declared protocol struct, exactly.

These tests catch field drift — adding a field to ``Lrm.status()``
without extending ``NODE_STATUS`` (or vice versa) fails here before it
fails deep inside an integration run.
"""

import random

import pytest

from repro.apps.spec import (
    ApplicationSpec,
    NodeGroupRequest,
    ResourceRequirements,
    VirtualTopologyRequest,
)
from repro.core.lrm import Lrm
from repro.core.ncc import NodeControlCenter
from repro.core.protocols import (
    CLUSTER_SUMMARY,
    GRM_INTERFACE,
    NODE_STATUS,
    PARENT_GRM_INTERFACE,
    RESERVATION_REPLY,
    RESERVATION_REQUEST,
    TASK_LAUNCH,
)
from repro.orb.cdr import Boolean, CdrDecoder, CdrEncoder, String, Struct
from repro.sim.events import EventLoop
from repro.sim.machine import MachineSpec
from repro.sim.workstation import Workstation


def roundtrip(struct, value):
    enc = CdrEncoder()
    struct.encode(enc, value)
    return struct.decode(CdrDecoder(enc.getvalue()))


def struct_fields(struct):
    return {name for name, _ in struct.fields}


class TestNodeStatusConformance:
    def make_lrm(self):
        loop = EventLoop()
        ws = Workstation(loop, "n0", spec=MachineSpec(),
                         rng=random.Random(1))
        return Lrm(loop, ws, NodeControlCenter(loop))

    def test_lrm_status_marshals_exactly(self):
        status = self.make_lrm().status()
        assert roundtrip(NODE_STATUS, status) == pytest.approx(status)

    def test_no_extra_fields(self):
        # A field in status() missing from NODE_STATUS silently vanishes
        # on the wire; flag it.
        status = self.make_lrm().status()
        assert set(status) == struct_fields(NODE_STATUS)


class TestHeartbeatConformance:
    def test_heartbeat_is_a_oneway_that_names_the_node(self):
        operation = GRM_INTERFACE.operation("heartbeat")
        assert operation.oneway
        assert [(p.name, p.idl_type) for p in operation.params] \
            == [("node", String)]

    def test_every_grm_servant_answers_it(self):
        from repro.core.grm import Grm
        from repro.core.hierarchy import ParentGrm

        for servant in (Grm, ParentGrm):   # the facade ignores it
            assert callable(getattr(servant, "heartbeat"))

    def test_heartbeat_marshals_over_cdr(self):
        # auth_secret envelopes every request, so the heartbeat really
        # crosses as bytes — and means to the GRM what the direct call does.
        from repro import Grid

        seen = {}
        for label, kwargs in (("direct", {}), ("wire", {"auth_secret": b"k"})):
            grid = Grid(seed=1, lupa_enabled=False, **kwargs)
            grid.add_cluster("c0")
            grid.add_node("c0", "d0", dedicated=True)
            grid.run_for(3600)
            grm = grid.clusters["c0"].grm
            seen[label] = (
                grm.stats.updates_received, grm.stats.heartbeats_received,
                grm._nodes["d0"].last_seen, grm._nodes["d0"].last_status,
            )
            marshalled = grid.protocol_stats()["bytes_sent"]
            assert (marshalled > 0) == (label == "wire")
        assert seen["direct"] == seen["wire"]
        assert seen["wire"][:3] == (60, 54, 3600.0)


class TestOneOperationPerMessageKind:
    def test_the_update_protocol_has_exactly_these_receiver_operations(self):
        def updates(interface):
            return [name for name in interface.operations
                    if name.startswith(("send_", "heartbeat"))]

        assert updates(GRM_INTERFACE) == ["send_update", "heartbeat"]
        assert updates(PARENT_GRM_INTERFACE) == ["send_summary"]

    def test_a_frame_naming_an_undeclared_update_form_is_refused(self):
        from repro import Grid

        grid = Grid(seed=1, lupa_enabled=False)
        handle = grid.add_cluster("c0")
        grid.add_node("c0", "d0", dedicated=True)
        received = handle.grm.stats.updates_received
        frame = CdrEncoder()
        frame.write_string("c0/grm")
        frame.write_string("send_patch")
        frame.write_string("d0")
        reply = CdrDecoder(handle.orb.handle_request_bytes(frame.getvalue()))
        assert reply.read_octet() != 0           # an exception reply
        assert reply.read_string() == "BadOperation"
        assert handle.grm.stats.updates_received == received


class TestClusterSummaryConformance:
    def test_grm_summary_marshals_exactly(self):
        from repro import Grid

        grid = Grid(seed=1, lupa_enabled=False)
        grid.add_cluster("c0")
        grid.add_node("c0", "d0", dedicated=True)
        grid.run_for(120)
        summary = grid.clusters["c0"].grm.cluster_summary()
        assert roundtrip(CLUSTER_SUMMARY, summary) == pytest.approx(summary)
        assert set(summary) == struct_fields(CLUSTER_SUMMARY)

    def test_parent_aggregate_marshals_exactly(self):
        from repro import Grid

        grid = Grid(seed=1, lupa_enabled=False)
        grid.add_cluster("c0")
        grid.add_node("c0", "d0", dedicated=True)
        parent, _ = grid.connect_clusters_to_parent()
        grid.run_for(120)
        aggregate = parent.cluster_summary()
        assert roundtrip(CLUSTER_SUMMARY, aggregate) == \
            pytest.approx(aggregate)
        assert set(aggregate) == struct_fields(CLUSTER_SUMMARY)


class TestRequestShapes:
    def test_grm_reservation_request_matches_struct(self):
        # The exact dict Grm._reserve_on builds, field for field.
        request = {
            "task_id": "j.0", "cpu_fraction": 1.0, "mem_mb": 16.0,
            "disk_mb": 0.0, "lease_seconds": 120.0,
        }
        assert set(request) == struct_fields(RESERVATION_REQUEST)
        assert roundtrip(RESERVATION_REQUEST, request) == request

    @staticmethod
    def reply_fields(accepted):
        """The discriminator plus the fields of the arm it selects."""
        name, _ = RESERVATION_REPLY.discriminator
        return {name} | struct_fields(RESERVATION_REPLY.arms[accepted])

    def test_lrm_reply_matches_struct(self):
        loop = EventLoop()
        ws = Workstation(loop, "n0", spec=MachineSpec(),
                         rng=random.Random(1))
        lrm = Lrm(loop, ws, NodeControlCenter(loop))
        request = {
            "task_id": "t", "cpu_fraction": 0.5, "mem_mb": 8.0,
            "disk_mb": 0.0, "lease_seconds": 60.0,
        }
        granted = lrm.request_reservation(request)
        assert set(granted) == self.reply_fields(True)
        assert roundtrip(RESERVATION_REPLY, granted) == granted
        # The same request again: the first holds half the CPU, and a
        # second half plus a little is more than the node has left.
        refused = lrm.request_reservation(
            dict(request, task_id="u", cpu_fraction=0.75))
        assert set(refused) == self.reply_fields(False)
        assert refused["cpu_free"] == pytest.approx(0.5)
        assert refused["mem_free_mb"] == lrm.status()["mem_free_mb"]
        assert roundtrip(RESERVATION_REPLY, refused) == refused

    def test_a_grant_encodes_as_it_did_before_refusals_carried_capacity(self):
        # Only the refusal arm grew: a grant's bytes are the two-field
        # struct's, so peers and recorded traffic see no change.
        two_fields = Struct("ReservationReply",
                            [("accepted", Boolean), ("reason", String)])
        grant = {"accepted": True, "reason": "ok"}
        old, new = CdrEncoder(), CdrEncoder()
        two_fields.encode(old, grant)
        RESERVATION_REPLY.encode(new, grant)
        assert new.getvalue() == old.getvalue()

    def test_grm_launch_matches_struct(self):
        launch = {
            "task_id": "j.0", "job_id": "j", "work_mips": 1e6,
            "initial_progress_mips": 0.0, "checkpoint_interval_s": 0.0,
            "payload": "",
        }
        assert set(launch) == struct_fields(TASK_LAUNCH)
        assert roundtrip(TASK_LAUNCH, launch) == launch


class TestSpecDictRoundtrip:
    @pytest.mark.parametrize("spec", [
        ApplicationSpec(name="plain"),
        ApplicationSpec(name="reqs", tasks=3, work_mips=5e6,
                        requirements=ResourceRequirements(
                            min_mips=500, min_ram_mb=16, os="linux",
                            min_net_mbps=10.0, extra="cpu_free >= 0.5",
                        ),
                        preference="mips",
                        metadata={"checkpoint_interval_s": 600.0}),
        ApplicationSpec(name="bsp", kind="bsp", tasks=4, program="p",
                        checkpoint_every_supersteps=2,
                        metadata={"supersteps": 8}),
        ApplicationSpec(
            name="topo", kind="bsp", tasks=4, program="p",
            topology=VirtualTopologyRequest(
                groups=(NodeGroupRequest(2, 100.0),
                        NodeGroupRequest(2, 100.0)),
                inter_bandwidth_mbps=10.0,
            ),
        ),
    ])
    def test_to_dict_from_dict_identity(self, spec):
        assert ApplicationSpec.from_dict(spec.to_dict()) == spec

    def test_dict_form_is_variant_marshallable(self):
        from repro.orb.cdr import VARIANT

        spec = ApplicationSpec(
            name="x", kind="bsp", tasks=2, program="p",
            topology=VirtualTopologyRequest(
                groups=(NodeGroupRequest(1, 100.0),
                        NodeGroupRequest(1, 100.0)),
                inter_bandwidth_mbps=10.0,
            ),
        )
        enc = CdrEncoder()
        VARIANT.encode(enc, spec.to_dict())
        decoded = VARIANT.decode(CdrDecoder(enc.getvalue()))
        assert ApplicationSpec.from_dict(decoded) == spec
