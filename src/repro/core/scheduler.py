"""Scheduling policies and virtual-topology planning.

The GRM delegates candidate ranking to a pluggable policy.  The paper's
headline policy is the usage-pattern-aware one: prefer nodes whose LUPA
profile predicts a long idle span (Section 3: "the scheduler can place
parallel applications on idle nodes with lower probability of becoming
busy before the computation is completed").

Pattern-aware ranking picks its path from the pool's size, as
:meth:`Gupa.idle_probabilities` does: up to ``SCALAR_MAX_CELLS`` offers
(a GRM's usual few dozen) are scored in one per-offer Python loop and
ordered with ``sorted(..., reverse=True)``; a larger pool is scored in
numpy columns and ordered with a stable argsort on the negated scores
(the only place this module imports numpy).
Both reproduce the seed per-offer ranking's order exactly, ties included
(the test tree's oracle), and rank NaN scores last.
Fastest-first is a one-key sort and needs no arrays.
"""

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from repro.apps.spec import ApplicationSpec, VirtualTopologyRequest
from repro.core.gupa import Gupa, SCALAR_MAX_CELLS, UNKNOWN
from repro.sim.network import NetworkTopology


@dataclass
class ScheduleContext:
    """What a policy may consult when ranking candidate offers."""

    spec: ApplicationSpec
    remaining_mips: float
    now: float
    gupa: Optional[Gupa] = None

    def estimated_duration(self, offer: dict) -> float:
        """Rough runtime of the task on the offered node, in seconds."""
        mips = offer.get("mips", 0.0)
        share = min(
            self.spec.requirements.cpu_fraction, offer.get("cpu_free", 0.0)
        )
        rate = mips * share
        if rate <= 0:
            return float("inf")
        return self.remaining_mips / rate


def _order_by_scores(offers: list, scores) -> list:
    """Best-score-first with ties keeping input order, NaN scores last.

    ``sorted`` with ``reverse=True`` on a list and ``np.argsort``
    (stable) on a numpy array's negated scores both give exactly
    ``sorted(offers, key=score, reverse=True)``: descending by score,
    original order among equal scores.
    """
    if not isinstance(scores, list):   # a numpy array
        ranked = (-scores).argsort(kind="stable").tolist()
        return [offers[i] for i in ranked]
    key = scores.__getitem__
    if sum(scores) != sum(scores):   # a NaN score: last, as in argsort
        def key(i):
            score = scores[i]
            return (score == score, score if score == score else 0.0)
    ranked = sorted(range(len(scores)), key=key, reverse=True)
    return [offers[i] for i in ranked]


class SchedulingPolicy:
    """Orders candidate offers, best first."""

    name = "abstract"

    def order(self, offers: list, ctx: ScheduleContext) -> list:
        raise NotImplementedError


class FirstFitPolicy(SchedulingPolicy):
    """Take candidates in the Trader's (deterministic) order."""

    name = "first_fit"

    def order(self, offers: list, ctx: ScheduleContext) -> list:
        return list(offers)


class RandomPolicy(SchedulingPolicy):
    """Uniformly random order — the no-information baseline."""

    name = "random"

    def __init__(self, rng: Optional[random.Random] = None):
        self._rng = rng if rng is not None else random.Random(0)

    def order(self, offers: list, ctx: ScheduleContext) -> list:
        shuffled = list(offers)
        self._rng.shuffle(shuffled)
        return shuffled


class FastestFirstPolicy(SchedulingPolicy):
    """Greedy on effective speed (MIPS x free CPU share)."""

    name = "fastest_first"

    def order(self, offers: list, ctx: ScheduleContext) -> list:
        return sorted(
            offers,
            key=lambda o: o.get("mips", 0.0) * o.get("cpu_free", 0.0),
            reverse=True,
        )


class PatternAwarePolicy(SchedulingPolicy):
    """The paper's contribution: rank by predicted idle span.

    Score = P(node idle for the task's estimated duration) x effective
    speed.  Nodes without an uploaded pattern get a neutral probability,
    so the policy degrades gracefully to fastest-first while LUPA is
    still learning.
    """

    name = "pattern_aware"

    def __init__(self, unknown_probability: float = 0.5):
        self.unknown_probability = unknown_probability

    def order(self, offers: list, ctx: ScheduleContext) -> list:
        n = len(offers)
        if n <= 1:
            return list(offers)
        if n > SCALAR_MAX_CELLS or ctx.gupa is None:
            return self._order_batch(offers, ctx)
        fraction = ctx.spec.requirements.cpu_fraction
        remaining = ctx.remaining_mips
        speeds, feasible, nodes, durations = [], [], [], []
        for i, offer in enumerate(offers):
            mips = offer.get("mips", 0.0)
            cpu = offer.get("cpu_free", 0.0)
            speeds.append(mips * cpu)
            # As np.minimum: a NaN cpu_free is the share.
            rate = mips * (fraction if cpu >= fraction else cpu)
            if rate > 0.0:   # else an infinite duration: score 0
                feasible.append(i)
                nodes.append(offer.get("node"))
                durations.append(remaining / rate)
        p_idle = ctx.gupa.idle_probabilities(nodes, ctx.now, durations)
        unknown = self.unknown_probability
        scores = [0.0] * n
        for i, p in zip(feasible, p_idle.tolist()):
            scores[i] = speeds[i] * (unknown if p == UNKNOWN else p)
        return _order_by_scores(offers, scores)

    def _order_batch(self, offers: list, ctx: ScheduleContext) -> list:
        import numpy as np
        try:   # every GRM status offer carries both keys
            mips = [o["mips"] for o in offers]
            cpu_free = [o["cpu_free"] for o in offers]
        except KeyError:   # hand-built sparse offers: the seed's defaults
            mips = [o.get("mips", 0.0) for o in offers]
            cpu_free = [o.get("cpu_free", 0.0) for o in offers]
        mips = np.array(mips, dtype=float)
        cpu_free = np.array(cpu_free, dtype=float)
        speed = mips * cpu_free
        if ctx.gupa is None:
            return _order_by_scores(offers, speed * self.unknown_probability)
        rate = mips * np.minimum(ctx.spec.requirements.cpu_fraction, cpu_free)
        feasible = rate > 0.0   # rate <= 0 means infinite duration: score 0
        nodes = [o.get("node") for o in offers]
        if not feasible.all():
            nodes = list(itertools.compress(nodes, feasible))
        p_idle = np.frombuffer(ctx.gupa.idle_probabilities(
            nodes, ctx.now, ctx.remaining_mips / rate[feasible]
        ))
        scores = np.zeros(len(offers))
        scores[feasible] = speed[feasible] * np.where(
            p_idle == UNKNOWN, self.unknown_probability, p_idle
        )
        return _order_by_scores(offers, scores)


POLICIES = {
    policy.name: policy
    for policy in (
        FirstFitPolicy(),
        RandomPolicy(),
        FastestFirstPolicy(),
        PatternAwarePolicy(),
    )
}


def plan_virtual_topology(
    offers: list,
    request: VirtualTopologyRequest,
    network: NetworkTopology,
    ctx: Optional[ScheduleContext] = None,
    policy: Optional[SchedulingPolicy] = None,
) -> Optional[list]:
    """Assign offers to the requested node groups, or None if unsatisfiable.

    Greedy plan: for each group (largest first) pick a distinct LAN
    segment whose internal bandwidth meets the group's requirement and
    which still has enough eligible nodes; then check every inter-group
    segment pair against the requested inter-group bandwidth.  Returns a
    list of offer-lists, one per group, in the request's group order.
    """
    by_segment: dict[str, list] = {}
    for offer in offers:
        try:
            segment = network.segment_of(offer["node"])
        except KeyError:
            continue
        by_segment.setdefault(segment, []).append(offer)

    if policy is not None and ctx is not None:
        for segment in by_segment:
            by_segment[segment] = policy.order(by_segment[segment], ctx)

    group_order = sorted(
        range(len(request.groups)),
        key=lambda i: request.groups[i].count,
        reverse=True,
    )
    assignment: dict[int, tuple] = {}
    used_segments: set = set()
    for index in group_order:
        group = request.groups[index]
        chosen = None
        for segment, segment_offers in sorted(by_segment.items()):
            if segment in used_segments:
                continue
            internal = network.segment_internal(segment)
            if internal.bandwidth_mbps < group.intra_bandwidth_mbps:
                continue
            eligible = [
                o for o in segment_offers
                if group.requirements.satisfied_by(o)
            ]
            if len(eligible) >= group.count:
                chosen = (segment, eligible[:group.count])
                break
        if chosen is None:
            return None
        used_segments.add(chosen[0])
        assignment[index] = chosen

    # Validate inter-group connectivity.
    segments = [assignment[i][0] for i in range(len(request.groups))]
    for i in range(len(segments)):
        for j in range(i + 1, len(segments)):
            node_i = assignment[i][1][0]["node"]
            node_j = assignment[j][1][0]["node"]
            link = network.link_between(node_i, node_j)
            if link is None or link.bandwidth_mbps < request.inter_bandwidth_mbps:
                return None
    return [assignment[i][1] for i in range(len(request.groups))]
