"""The seed pattern-aware ranking: score each offer alone, stable sort.

``PatternAwarePolicy.order`` scores every offer in one numpy pass;
``tests/test_gupa_equivalence.py`` and
``benchmarks/bench_s2_scheduler_throughput.py`` hold it to this order,
ties included.  ``patterns`` maps each node to the dict uploaded to
``ctx.gupa`` (a node missing from it has no pattern).
"""

from repro.core.gupa import UNKNOWN
from repro.core.scheduler import PatternAwarePolicy, ScheduleContext

from tests.oracles import gupa as gupa_oracle


def score(policy: PatternAwarePolicy, offer: dict, ctx: ScheduleContext,
          patterns: dict) -> float:
    """P(idle for the estimated duration) x effective speed."""
    speed = offer.get("mips", 0.0) * offer.get("cpu_free", 0.0)
    if ctx.gupa is None:
        return speed * policy.unknown_probability
    duration = ctx.estimated_duration(offer)
    if duration == float("inf"):
        return 0.0
    p_idle = gupa_oracle.idle_probability(
        patterns.get(offer["node"]), ctx.now, duration
    )
    if p_idle == UNKNOWN:
        p_idle = policy.unknown_probability
    return speed * p_idle


def order(policy: PatternAwarePolicy, offers: list, ctx: ScheduleContext,
          patterns: dict) -> list:
    """Best score first, input order among equal scores."""
    return sorted(
        offers, key=lambda o: score(policy, o, ctx, patterns), reverse=True
    )
