"""Property tests for the delta-compressed Information Update Protocol.

The delta path must be *state-identical* to the full-snapshot oracle:
for any sequence of status mutations, delta-encode → delta-apply leaves
the receiver with exactly the dict a full snapshot would have delivered
— including resynchronisation via the periodic full refresh after a
dropped update.  The full-snapshot path is retained in production code
precisely so these tests can compare against it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.grm import Grm
from repro.core.protocols import LRM_INTERFACE
from repro.core.update_protocol import (
    DELTA,
    DeltaSender,
    FULL,
    HEARTBEAT,
    apply_delta,
)
from repro.orb.core import Orb
from repro.orb.transport import InProcDomain
from repro.sim.events import EventLoop

# -- strategies --------------------------------------------------------------

_FLOAT_KEYS = (
    "cpu_free", "mem_free_mb", "disk_free_mb", "net_free_mbps",
)
_finite = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


def base_status():
    return {
        "node": "n0", "time": 0.0, "mips": 1000.0, "ram_mb": 256.0,
        "disk_mb": 10_000.0, "os": "linux", "arch": "x86",
        "cpu_free": 1.0, "mem_free_mb": 200.0, "disk_free_mb": 10_000.0,
        "net_mbps": 100.0, "net_free_mbps": 100.0, "owner_active": False,
        "sharing": True, "grid_tasks": 0,
    }


mutations = st.lists(
    st.fixed_dictionaries(
        {},
        optional={
            "cpu_free": _finite,
            "mem_free_mb": _finite,
            "disk_free_mb": _finite,
            "net_free_mbps": _finite,
            "owner_active": st.booleans(),
            "sharing": st.booleans(),
            "grid_tasks": st.integers(min_value=0, max_value=50),
        },
    ),
    min_size=1,
    max_size=40,
)


def replay(sender, receiver_state, status):
    """One protocol step: encode on the sender, apply on the receiver."""
    kind, payload = sender.encode(status)
    if kind == FULL:
        return kind, dict(payload)
    return kind, apply_delta(receiver_state, payload)


class TestExactReconstruction:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(steps=mutations, refresh=st.integers(min_value=1, max_value=7))
    def test_receiver_tracks_sender_exactly(self, steps, refresh):
        """With epsilon=0 every send leaves receiver == sender status."""
        status = base_status()
        sender = DeltaSender(60.0, full_refresh_every=refresh)
        sender.register(status)
        state = dict(status)
        for i, mutation in enumerate(steps):
            status = dict(status, time=float(i + 1) * 60.0, **mutation)
            _kind, state = replay(sender, state, status)
            assert state == status

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        steps=mutations,
        refresh=st.integers(min_value=2, max_value=6),
        drop_at=st.integers(min_value=0, max_value=39),
    )
    def test_full_refresh_resyncs_after_dropped_update(
        self, steps, refresh, drop_at
    ):
        """Losing one delta desynchronises for at most ``refresh`` sends."""
        status = base_status()
        sender = DeltaSender(60.0, full_refresh_every=refresh)
        sender.register(status)
        state = dict(status)
        sends_since_drop = None
        for i, mutation in enumerate(steps):
            status = dict(status, time=float(i + 1) * 60.0, **mutation)
            kind, payload = sender.encode(status)
            dropped = i == drop_at and kind != FULL
            if dropped:
                sends_since_drop = 0   # receiver never sees this message
            else:
                state = dict(payload) if kind == FULL \
                    else apply_delta(state, payload)
            if sends_since_drop is not None:
                sends_since_drop += 1
                if kind == FULL:
                    assert state == status   # resynchronised exactly
                    assert sends_since_drop <= refresh
                    sends_since_drop = None
        # Whatever happened, a long enough run of heartbeats ends in a
        # full refresh; force the tail to prove the bound holds.
        if sends_since_drop is not None:
            for j in range(refresh):
                status = dict(status, time=status["time"] + 60.0)
                kind, payload = sender.encode(status)
                if kind == FULL:
                    state = dict(payload)
                    break
            assert state == status

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(steps=mutations)
    def test_epsilon_bounds_float_divergence(self, steps):
        """With epsilon > 0, unsent drift never exceeds epsilon."""
        epsilon = 0.5
        status = base_status()
        sender = DeltaSender(60.0, full_refresh_every=10, epsilon=epsilon)
        sender.register(status)
        state = dict(status)
        for i, mutation in enumerate(steps):
            status = dict(status, time=float(i + 1) * 60.0, **mutation)
            _kind, state = replay(sender, state, status)
            for key, value in status.items():
                if key == "time":
                    continue
                if key in _FLOAT_KEYS:
                    assert abs(state[key] - value) <= epsilon
                else:
                    assert state[key] == value   # non-floats always exact


class TestThrottle:
    def test_idle_interval_stretches_to_cap_and_snaps_back(self):
        sender = DeltaSender(60.0, full_refresh_every=100,
                             max_interval=480.0)
        status = base_status()
        sender.register(status)
        seen = []
        for i in range(6):
            status = dict(status, time=float(i + 1) * 60.0)
            kind, _ = sender.encode(status)
            assert kind == HEARTBEAT
            seen.append(sender.current_interval)
        assert seen == [120.0, 240.0, 480.0, 480.0, 480.0, 480.0]
        status = dict(status, time=status["time"] + 60.0, cpu_free=0.25)
        kind, _ = sender.encode(status)
        assert kind == DELTA
        assert sender.current_interval == 60.0   # change snaps back

    def test_no_cap_means_no_throttle(self):
        sender = DeltaSender(60.0, full_refresh_every=100)
        sender.register(base_status())
        for i in range(5):
            sender.encode(dict(base_status(), time=float(i + 1)))
            assert sender.current_interval == 60.0

    def test_full_refresh_cadence(self):
        sender = DeltaSender(60.0, full_refresh_every=4)
        status = base_status()
        sender.register(status)
        kinds = []
        for i in range(12):
            status = dict(status, time=float(i + 1) * 60.0)
            kind, _ = sender.encode(status)
            kinds.append(kind)
        assert kinds == [HEARTBEAT, HEARTBEAT, HEARTBEAT, FULL] * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            DeltaSender(0.0)
        with pytest.raises(ValueError):
            DeltaSender(60.0, full_refresh_every=0)
        with pytest.raises(ValueError):
            DeltaSender(60.0, epsilon=-1.0)
        with pytest.raises(ValueError):
            DeltaSender(60.0, max_interval=30.0)
        with pytest.raises(RuntimeError):
            DeltaSender(60.0).encode(base_status())


# -- GRM-level equivalence: delta path vs the full-snapshot oracle ----------


class TestGrmEquivalence:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(steps=mutations, batched=st.booleans())
    def test_delta_ingest_matches_full_snapshot_oracle(self, steps, batched):
        loop = EventLoop()
        domain = InProcDomain()
        oracle = Grm(EventLoop(), Orb(domain=domain), cluster="oracle")
        subject = Grm(loop, Orb(domain=domain), cluster="subject",
                      batched_ingest=batched)

        from tests.test_core_grm_unit import ScriptedLrm
        servant = ScriptedLrm("n0")
        node_orb = Orb(domain=domain)
        ref = node_orb.activate(servant, LRM_INTERFACE, key="n0/lrm")
        ior = ref.to_string()
        status = servant.status()
        oracle.register_node(dict(status), ior)
        subject.register_node(dict(status), ior)

        sender = DeltaSender(60.0, full_refresh_every=5)
        sender.register(status)
        for i, mutation in enumerate(steps):
            status = dict(status, time=float(i + 1) * 60.0, **mutation)
            oracle.send_update(dict(status))
            kind, payload = sender.encode(status)
            if kind == FULL:
                subject.send_update(dict(payload))
            elif kind == DELTA:
                subject.send_delta("n0", dict(payload))
            else:   # as the LRM delivers it
                subject.heartbeat("n0")

        subject.flush_updates()
        o_rec = oracle._nodes["n0"]
        s_rec = subject._nodes["n0"]

        def sans_time(props):
            # A heartbeat refreshes last_seen, not the stored "time".
            return {k: v for k, v in props.items() if k != "time"}

        assert sans_time(s_rec.last_status) == sans_time(o_rec.last_status)
        assert s_rec.last_seen == o_rec.last_seen
        assert subject.stats.updates_received == len(steps)
        assert (sans_time(subject.trader.offer(s_rec.offer_id).properties)
                == sans_time(oracle.trader.offer(o_rec.offer_id).properties))

        oracle.stop()
        subject.stop()
