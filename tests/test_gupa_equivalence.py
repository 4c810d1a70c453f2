"""Equivalence suite: vectorized GUPA/policy paths vs the seed oracles.

The vectorized prediction pipeline claims *bit-identical* results — the
optimized `idle_probability`, the batch `idle_probabilities`, and the
argsort-based policy orderings must reproduce the seed implementations
in ``tests/oracles/gupa.py`` and ``tests/oracles/scheduler.py``, which
read the uploaded pattern dicts.  These tests drive randomized patterns,
spans (sub-bin, bin-aligned, multi-day, negative), and node churn
through both paths and assert exact ``==`` equality.
"""

from array import array

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps.spec import ApplicationSpec
from repro.core.gupa import Gupa, UNKNOWN
from repro.core.scheduler import PatternAwarePolicy, ScheduleContext
from repro.sim.clock import SECONDS_PER_DAY

from tests.oracles import gupa as gupa_oracle
from tests.oracles import scheduler as scheduler_oracle

#: Bin widths worth exercising: 1 bin/day up to 5-minute bins, all
#: dividing the 86400-second day evenly.
BIN_COUNTS = [1, 2, 3, 24, 48, 96, 288]

# Timestamps at millisecond resolution: denormal-magnitude negative
# starts make ``start % SECONDS_PER_DAY`` round to exactly 86400.0 and
# index out of range — identically in the seed scalar code and the
# vectorized path, so they carry no equivalence signal.
starts = st.one_of(
    st.floats(min_value=-2.0 * SECONDS_PER_DAY, max_value=9.0 * SECONDS_PER_DAY,
              allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=7 * SECONDS_PER_DAY).map(float),
).map(lambda s: round(s, 3))

durations = st.one_of(
    st.floats(min_value=-3600.0, max_value=0.0,
              allow_nan=False, allow_infinity=False),      # nonpositive
    st.floats(min_value=1e-3, max_value=600.0,
              allow_nan=False, allow_infinity=False),      # sub-bin
    st.integers(min_value=1, max_value=96).map(
        lambda n: n * 900.0),                              # bin-aligned
    st.floats(min_value=SECONDS_PER_DAY, max_value=3.0 * SECONDS_PER_DAY,
              allow_nan=False, allow_infinity=False),      # multi-day
)


@st.composite
def patterns(draw):
    # Element-wise float draws are prohibitively slow for 7 x 288 grids;
    # draw a numpy seed instead and synthesize the weekly profile, with
    # a slice snapped to exact 0.0/1.0 to exercise saturated bins.
    bins_per_day = draw(st.sampled_from(BIN_COUNTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weekly = rng.random((7, bins_per_day))
    if draw(st.booleans()):
        weekly[weekly < 0.2] = 0.0
        weekly[weekly > 0.8] = 1.0
    return {"bins_per_day": bins_per_day, "weekly": weekly.tolist()}


@st.composite
def gupas(draw, min_nodes=1, max_nodes=6):
    """A GUPA and the pattern dict uploaded for each of its nodes."""
    gupa = Gupa()
    uploaded = {}
    count = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    for i in range(count):
        uploaded[f"n{i}"] = draw(patterns())
        gupa.upload_pattern(f"n{i}", uploaded[f"n{i}"])
    return gupa, uploaded


class TestScalarEquivalence:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pattern=patterns(), when=starts)
    def test_busy_probability_matches_oracle(self, pattern, when):
        gupa = Gupa()
        gupa.upload_pattern("n0", pattern)
        assert gupa.busy_probability("n0", when) \
            == gupa_oracle.busy_probability(pattern, when)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pattern=patterns(), start=starts, duration=durations)
    def test_idle_probability_matches_oracle(self, pattern, start, duration):
        gupa = Gupa()
        gupa.upload_pattern("n0", pattern)
        fast = gupa.idle_probability("n0", start, duration)
        oracle = gupa_oracle.idle_probability(pattern, start, duration)
        assert fast == oracle   # exact: same factors, same order


class TestBatchEquivalence:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(gupa=gupas(), start=starts, duration=durations)
    def test_scalar_duration_batch(self, gupa, start, duration):
        gupa, uploaded = gupa
        nodes = gupa.known_nodes + ["ghost"]
        batch = gupa.idle_probabilities(nodes, start, duration)
        for node, value in zip(nodes, batch):
            assert value == gupa_oracle.idle_probability(
                uploaded.get(node), start, duration
            )

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        gupa=gupas(),
        start=starts,
        data=st.data(),
    )
    def test_per_node_duration_batch(self, gupa, start, data):
        gupa, uploaded = gupa
        nodes = gupa.known_nodes
        per_node = np.array(
            [data.draw(durations, label=f"duration[{i}]")
             for i in range(len(nodes))]
        )
        batch = gupa.idle_probabilities(nodes, start, per_node)
        for node, duration, value in zip(nodes, per_node, batch):
            assert value == gupa_oracle.idle_probability(
                uploaded[node], start, float(duration)
            )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        gupa=gupas(min_nodes=3),
        replacement=patterns(),
        start=starts,
        duration=durations,
    )
    def test_churn_keeps_equivalence(self, gupa, replacement, start, duration):
        # Forget one node, re-upload another with a fresh pattern: the
        # lazily rebuilt stacks must still match the oracle per node.
        gupa, uploaded = gupa
        nodes = gupa.known_nodes
        gupa.forget(nodes[0])
        del uploaded[nodes[0]]
        gupa.upload_pattern(nodes[1], replacement)
        uploaded[nodes[1]] = replacement
        queried = nodes   # includes the forgotten node -> UNKNOWN
        batch = gupa.idle_probabilities(queried, start, duration)
        assert batch[0] == UNKNOWN
        for node, value in zip(queried, batch):
            assert value == gupa_oracle.idle_probability(
                uploaded.get(node), start, duration
            )

    def test_duration_shape_rejected(self):
        gupa = Gupa()
        gupa.upload_pattern(
            "n0", {"bins_per_day": 24, "weekly": [[0.5] * 24] * 7}
        )
        try:
            gupa.idle_probabilities(["n0"], 0.0, np.zeros(3))
        except ValueError:
            pass
        else:
            raise AssertionError("mismatched duration shape must raise")

    def test_empty_nodes(self):
        gupa = Gupa()
        assert gupa.idle_probabilities([], 0.0, 100.0) == array("d")


def make_offer(node, mips, cpu_free):
    return {
        "node": node, "mips": mips, "cpu_free": cpu_free,
        "mem_free_mb": 512.0, "sharing": True,
    }


@st.composite
def offer_lists(draw, max_offers=12):
    count = draw(st.integers(min_value=0, max_value=max_offers))
    offers = []
    for i in range(count):
        mips = draw(st.sampled_from([0.0, 500.0, 1000.0, 2000.0]))
        cpu_free = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        offers.append(make_offer(f"n{i}", mips, cpu_free))
    return offers


class TestPolicyOrderEquivalence:
    def make_ctx(self, gupa, work=1e6, now=0.0):
        return ScheduleContext(
            spec=ApplicationSpec(name="x", work_mips=work),
            remaining_mips=work,
            now=now,
            gupa=gupa,
        )

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(offers=offer_lists(), data=st.data())
    def test_pattern_aware_identical_order(self, offers, data):
        # Give a pattern to some offers only, so UNKNOWN fallbacks and
        # ties (equal speeds) are exercised alongside scored nodes.
        gupa = Gupa()
        uploaded = {}
        for offer in offers:
            node = offer["node"]
            if data.draw(st.booleans(), label=f"pattern for {node}"):
                uploaded[node] = data.draw(patterns(), label="pattern")
                gupa.upload_pattern(node, uploaded[node])
        now = data.draw(starts, label="now")
        policy = PatternAwarePolicy()
        ctx = self.make_ctx(gupa, now=now)
        vectorized = [o["node"] for o in policy.order(offers, ctx)]
        oracle = [o["node"] for o in
                  scheduler_oracle.order(policy, offers, ctx, uploaded)]
        assert vectorized == oracle

    def test_no_gupa_matches_oracle(self):
        offers = [make_offer(f"n{i}", 1000.0, 1.0) for i in range(5)]
        policy = PatternAwarePolicy()
        ctx = self.make_ctx(gupa=None)
        assert [o["node"] for o in policy.order(offers, ctx)] \
            == [o["node"] for o in
                scheduler_oracle.order(policy, offers, ctx, {})]
