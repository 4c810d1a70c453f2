"""Scheduling policies and virtual-topology planning.

The GRM delegates candidate ranking to a pluggable policy.  The paper's
headline policy is the usage-pattern-aware one: prefer nodes whose LUPA
profile predicts a long idle span (Section 3: "the scheduler can place
parallel applications on idle nodes with lower probability of becoming
busy before the computation is completed").

Pattern-aware ranking is array-native: the policy extracts per-offer
numeric columns once (cached on the :class:`ScheduleContext`), scores
every candidate in one numpy pass through
:meth:`Gupa.idle_probabilities`, and orders with a stable argsort on
the negated scores, which reproduces ``sorted(..., reverse=True)``
exactly, ties included; its seed implementation is retained as the
``order_scalar`` reference oracle for the equivalence suite.
Fastest-first is a one-key sort and needs no arrays.
"""

import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.apps.spec import ApplicationSpec, VirtualTopologyRequest
from repro.core.gupa import Gupa, UNKNOWN
from repro.sim.network import NetworkTopology


@dataclass
class ScheduleContext:
    """What a policy may consult when ranking candidate offers."""

    spec: ApplicationSpec
    remaining_mips: float
    now: float
    gupa: Optional[Gupa] = None
    _arrays_cache: dict = field(default_factory=dict, repr=False, compare=False)

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

    def arrays(self, offers: list) -> dict:
        """Per-offer numeric columns for vectorized scoring.

        Cached per offers-list identity so repeated orderings of the
        same candidate set (policy ranking, preference re-ranking, gang
        passes) extract the dict fields once.  The cached entry keeps a
        reference to the list, so ``id`` reuse cannot alias a stale hit.
        """
        key = id(offers)
        hit = self._arrays_cache.get(key)
        if hit is not None and hit[0] is offers:
            return hit[1]
        try:
            # Direct subscripts: every GRM status offer carries these
            # keys; the fallback keeps the seed's .get(..., 0.0) default
            # for hand-built sparse offers.
            mips_list = [o["mips"] for o in offers]
            cpu_list = [o["cpu_free"] for o in offers]
        except KeyError:
            mips_list = [o.get("mips", 0.0) for o in offers]
            cpu_list = [o.get("cpu_free", 0.0) for o in offers]
        node_list = [o.get("node") for o in offers]
        mips = np.array(mips_list, dtype=float)
        cpu_free = np.array(cpu_list, dtype=float)
        share = np.minimum(self.spec.requirements.cpu_fraction, cpu_free)
        arrays = {
            "mips": mips,
            "cpu_free": cpu_free,
            "speed": mips * cpu_free,
            "rate": mips * share,
            "nodes": node_list,
        }
        if len(self._arrays_cache) >= 8:
            self._arrays_cache.clear()
        self._arrays_cache[key] = (offers, arrays)
        return arrays


def _order_by_scores(offers: list, scores: np.ndarray) -> list:
    """Best-score-first with ties keeping input order.

    ``np.argsort`` (stable) on the negated scores is exactly
    ``sorted(offers, key=score, reverse=True)``: descending by score,
    original order among equal scores.
    """
    return [offers[i] for i in np.argsort(-scores, kind="stable")]


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
        if len(offers) <= 1:
            return list(offers)
        arrays = ctx.arrays(offers)
        speed = arrays["speed"]
        if ctx.gupa is None:
            return _order_by_scores(offers, speed * self.unknown_probability)
        rate = arrays["rate"]
        feasible = rate > 0.0   # rate <= 0 means infinite duration: score 0
        if feasible.all():
            durations = ctx.remaining_mips / rate
            p_idle = ctx.gupa.idle_probabilities(
                arrays["nodes"], ctx.now, durations
            )
            p_idle = np.where(
                p_idle == UNKNOWN, self.unknown_probability, p_idle
            )
            return _order_by_scores(offers, speed * p_idle)
        scores = np.zeros(len(offers))
        if feasible.any():
            indices = np.nonzero(feasible)[0]
            node_list = arrays["nodes"]
            durations = ctx.remaining_mips / rate[indices]
            p_idle = ctx.gupa.idle_probabilities(
                [node_list[i] for i in indices], ctx.now, durations
            )
            p_idle = np.where(
                p_idle == UNKNOWN, self.unknown_probability, p_idle
            )
            scores[indices] = speed[indices] * p_idle
        return _order_by_scores(offers, scores)

    # -- seed implementation (oracle for the equivalence suite) --------------

    def _score_scalar(self, offer: dict, ctx: ScheduleContext) -> float:
        speed = offer.get("mips", 0.0) * offer.get("cpu_free", 0.0)
        if ctx.gupa is None:
            return speed * self.unknown_probability
        duration = ctx.estimated_duration(offer)
        if duration == float("inf"):
            return 0.0
        idle_probability = getattr(
            ctx.gupa, "idle_probability_scalar", ctx.gupa.idle_probability
        )
        p_idle = idle_probability(offer["node"], ctx.now, duration)
        if p_idle == UNKNOWN:
            p_idle = self.unknown_probability
        return speed * p_idle

    def order_scalar(self, offers: list, ctx: ScheduleContext) -> list:
        return sorted(
            offers, key=lambda o: self._score_scalar(o, ctx), reverse=True
        )


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
