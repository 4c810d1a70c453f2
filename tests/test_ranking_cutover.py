"""Both GUPA scoring paths and both ranking paths, across the cutover.

``Gupa.idle_probabilities`` scores inputs of at most
``SCALAR_MAX_CELLS`` nodes x chunk columns in a per-node loop and larger
ones in a numpy batch; ``PatternAwarePolicy.order`` ranks pools of at
most ``SCALAR_MAX_CELLS`` offers in a per-offer loop and larger ones in
numpy columns.  These tests draw inputs one cell below, at and one cell
above the constant, so each side of the choice is taken, and run every
input on both paths (the constant patched to 0 or to infinity): each
path must reproduce ``tests/oracles/gupa.py`` and
``tests/oracles/scheduler.py`` bit for bit, with unknown nodes,
durations <= 0, mixed bin widths and zero-rate offers in the draw.
Offers with an infinite or NaN ``mips`` / ``cpu_free`` have no seed
answer to match (the seed's ``min`` and numpy's disagree on NaN); for
them the two paths must give the same order, NaN scores last.
"""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.spec import ApplicationSpec
from repro.core import gupa as gupa_module
from repro.core import scheduler as scheduler_module
from repro.core.gupa import Gupa, SCALAR_MAX_CELLS
from repro.core.scheduler import PatternAwarePolicy, ScheduleContext
from repro.sim.clock import SECONDS_PER_DAY

from tests.oracles import gupa as gupa_oracle
from tests.oracles import scheduler as scheduler_oracle

# numpy warns on the inf * 0 of non-finite offers; the loop does not.
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning")

FINEST_BINS = 48
BIN_SECONDS = SECONDS_PER_DAY / FINEST_BINS
SIDES = (-1, 0, 1)   # one cell below, at and above the cutover


@contextlib.contextmanager
def forced(cells):
    """Both modules' cutover set to ``cells`` (0: numpy; inf: loops)."""
    with mock.patch.object(gupa_module, "SCALAR_MAX_CELLS", cells), \
            mock.patch.object(scheduler_module, "SCALAR_MAX_CELLS", cells):
        yield


PATHS = {"loop": math.inf, "numpy": 0}


def weekly(rng, bins_per_day, saturate):
    grid = rng.random((7, bins_per_day))
    if saturate:
        grid[grid < 0.2] = 0.0
        grid[grid > 0.8] = 1.0
    return {"bins_per_day": bins_per_day, "weekly": grid.tolist()}


def build_gupa(rng, nodes, mixed, unknown_share=0.15):
    """Upload a pattern for most ``nodes`` (some stay unknown), at the
    finest width unless ``mixed`` also draws coarser ones; the first
    node always has a finest-width pattern, which sets the columns."""
    gupa = Gupa()
    uploaded = {}
    for node in nodes:
        if rng.random() < unknown_share:
            continue
        width = FINEST_BINS
        if mixed and rng.random() < 0.5:
            width = int(rng.choice([1, 3, 24]))
        uploaded[node] = weekly(rng, width, saturate=rng.random() < 0.3)
        gupa.upload_pattern(node, uploaded[node])
    if nodes:
        node = nodes[0]
        uploaded[node] = weekly(rng, FINEST_BINS, saturate=False)
        gupa.upload_pattern(node, uploaded[node])
    return gupa, uploaded


#: Pool sizes for the scoring test, all at most the cutover.
POOLS = tuple(2 ** k for k in range(8) if 2 ** k <= SCALAR_MAX_CELLS)


def scored_path():
    """A spy on the numpy batch: ``.called`` tells which path ran."""
    return mock.patch.object(
        Gupa, "_score_group", autospec=True,
        side_effect=Gupa._score_group,
    )


class TestScoringAcrossTheCutover:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(side=st.sampled_from(SIDES), data=st.data(),
           seed=st.integers(0, 2**32 - 1), mixed=st.booleans())
    def test_both_paths_match_the_oracle(self, side, data, seed, mixed):
        cells = SCALAR_MAX_CELLS + side
        # A power-of-two pool makes cells / n an exact binary fraction
        # of a bin, so the input measures exactly ``cells``.
        n = data.draw(st.sampled_from(POOLS), label="n")
        columns = cells / n
        rng = np.random.default_rng(seed)
        nodes = [f"n{i}" for i in range(n)]
        gupa, uploaded = build_gupa(rng, nodes, mixed)
        # Start on a finest-width boundary; the longest span ends
        # ``columns`` bins later.
        start = float(rng.integers(-7, 60)) * BIN_SECONDS
        longest = columns * BIN_SECONDS
        durations = [
            round(float(d), 3) for d in
            rng.uniform(-2 * BIN_SECONDS, longest, size=n)
        ]
        if rng.random() < 0.5:
            durations[int(rng.integers(n))] = 0.0
        durations[int(rng.integers(n))] = longest
        expected = [
            gupa_oracle.idle_probability(uploaded.get(node), start, d)
            for node, d in zip(nodes, durations)
        ]
        with scored_path() as batch:
            natural = gupa.idle_probabilities(nodes, start, durations)
        assert batch.called == (side > 0)
        assert natural.tolist() == expected
        for cutover in PATHS.values():
            with forced(cutover):
                assert gupa.idle_probabilities(
                    nodes, start, np.array(durations)).tolist() == expected

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           start=st.integers(-SECONDS_PER_DAY, 9 * SECONDS_PER_DAY),
           duration=st.one_of(
               st.floats(-3600.0, 0.0), st.floats(1e-3, 3 * SECONDS_PER_DAY),
           ))
    def test_scalar_duration_and_one_node_queries(self, seed, n, start,
                                                  duration):
        rng = np.random.default_rng(seed)
        nodes = [f"n{i}" for i in range(n)]
        gupa, uploaded = build_gupa(rng, nodes, mixed=True)
        start = float(start)
        expected = [
            gupa_oracle.idle_probability(uploaded.get(node), start, duration)
            for node in nodes
        ]
        for cutover in PATHS.values():
            with forced(cutover):
                assert gupa.idle_probabilities(
                    nodes, start, duration).tolist() == expected
        assert [gupa.idle_probability(node, start, duration)
                for node in nodes] == expected


def make_offers(rng, n, mips_choices, cpu_choices):
    return [
        {"node": f"n{i}", "mips": float(rng.choice(mips_choices)),
         "cpu_free": float(rng.choice(cpu_choices)),
         "mem_free_mb": 512.0, "sharing": True}
        for i in range(n)
    ]


def make_ctx(gupa, now, remaining):
    return ScheduleContext(
        spec=ApplicationSpec(name="x", work_mips=1e6),
        remaining_mips=remaining, now=now, gupa=gupa,
    )


def names(offers):
    return [o["node"] for o in offers]


FINITE_MIPS = (0.0, 500.0, 1000.0, 2000.0, 4000.0)
FINITE_CPU = (0.0, 0.25, 0.5, 1.0)


class TestRankingAcrossTheCutover:
    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(side=st.sampled_from(SIDES), seed=st.integers(0, 2**32 - 1),
           work=st.sampled_from([0.0, 1e5, 1e6, 3.6e6]),
           now=st.integers(0, 7 * SECONDS_PER_DAY))
    def test_both_paths_match_the_oracle(self, side, seed, work, now):
        rng = np.random.default_rng(seed)
        n = SCALAR_MAX_CELLS + side
        offers = make_offers(rng, n, FINITE_MIPS, FINITE_CPU)
        gupa, uploaded = build_gupa(rng, names(offers), mixed=seed % 2 == 0)
        policy = PatternAwarePolicy()
        ctx = make_ctx(gupa, float(now), work)
        expected = names(
            scheduler_oracle.order(policy, offers, ctx, uploaded))
        with mock.patch.object(
            PatternAwarePolicy, "_order_batch", autospec=True,
            side_effect=PatternAwarePolicy._order_batch,
        ) as batch:
            assert names(policy.order(offers, ctx)) == expected
        assert batch.called == (side > 0)
        for cutover in PATHS.values():
            with forced(cutover):
                assert names(policy.order(offers, ctx)) == expected

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 14),
           nonfinite=st.booleans(), with_gupa=st.booleans(),
           work=st.sampled_from([1e4, 1e6, 3.6e6]),
           now=st.integers(-SECONDS_PER_DAY, 9 * SECONDS_PER_DAY))
    def test_small_pools_on_both_paths(self, seed, n, nonfinite, with_gupa,
                                       work, now):
        rng = np.random.default_rng(seed)
        extra = (math.inf, -math.inf, math.nan) if nonfinite else ()
        offers = make_offers(rng, n, FINITE_MIPS + extra, FINITE_CPU + extra)
        gupa, uploaded = build_gupa(rng, names(offers), mixed=True)
        policy = PatternAwarePolicy()
        ctx = make_ctx(gupa if with_gupa else None, float(now), work)
        orders = {}
        for path, cutover in PATHS.items():
            with forced(cutover):
                orders[path] = names(policy.order(offers, ctx))
        assert orders["loop"] == orders["numpy"]
        if not nonfinite:
            assert orders["loop"] == names(
                scheduler_oracle.order(policy, offers, ctx, uploaded))


class TestNanScoresRankLast:
    def test_list_and_array_orders_agree(self):
        offers = list("abcdefg")
        scores = [1.0, math.nan, 3.0, -math.inf, math.nan, 3.0, math.inf]
        ranked = scheduler_module._order_by_scores(offers, scores)
        assert ranked == ["g", "c", "f", "a", "d", "b", "e"]
        assert ranked == scheduler_module._order_by_scores(
            offers, np.array(scores))

    def test_infinite_mips_on_a_surely_busy_node_scores_nan(self):
        gupa = Gupa()
        gupa.upload_pattern("busy", {"bins_per_day": 1, "weekly": [[1.0]] * 7})
        gupa.upload_pattern("idle", {"bins_per_day": 1, "weekly": [[0.0]] * 7})
        offers = [
            {"node": "busy", "mips": math.inf, "cpu_free": 1.0},
            {"node": "idle", "mips": 100.0, "cpu_free": 1.0},
            {"node": "broke", "mips": 0.0, "cpu_free": 1.0},
        ]
        ctx = make_ctx(gupa, 0.0, 1e6)
        for cutover in PATHS.values():
            with forced(cutover):
                assert names(PatternAwarePolicy().order(offers, ctx)) \
                    == ["idle", "broke", "busy"]


def outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc).__name__


class TestSpansTheLoopCannotStep:
    """The loop steps bin by bin, so it takes only spans it can step:
    a start whose bin number is past 2**52 (a bin boundary plus one bin
    rounds back onto itself) or a span that is huge, infinite or NaN
    goes to the batch, which answers — or raises — as it always did,
    instead of stepping forever (``idle_probability`` is an ORB
    operation)."""

    def test_degenerate_spans_take_the_batch(self):
        gupa = Gupa()
        gupa.upload_pattern(
            "n0", {"bins_per_day": 48, "weekly": [[0.5] * 48] * 7})
        loop = mock.patch.object(
            gupa_module._PatternGrid, "idle_through",
            side_effect=AssertionError("the loop took a span it cannot step"))
        for start, duration in ((1e20, 1e5), (-1e20, 1e5), (0.0, 1e300),
                                (0.0, math.inf), (0.0, math.nan),
                                (math.nan, 5.0)):
            with loop:
                natural = outcome(
                    lambda: gupa.idle_probability("n0", start, duration))
            with forced(0):
                assert natural == outcome(
                    lambda: gupa.idle_probability("n0", start, duration))
