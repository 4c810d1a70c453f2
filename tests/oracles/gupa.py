"""The seed GUPA queries: read the uploaded pattern dict, one bin at a time.

``Gupa`` scores from normalized numpy grids, in batches;
``tests/test_gupa_equivalence.py`` holds ``busy_probability``,
``idle_probability`` and ``idle_probabilities`` to these, bit for bit.
``pattern`` is the dict that was uploaded for the node, or None when
none was (the answer is then ``UNKNOWN``).
"""

from typing import Optional

from repro.core.gupa import UNKNOWN
from repro.sim.clock import SECONDS_PER_DAY


def busy_probability(pattern: Optional[dict], when: float) -> float:
    """P(owner active at ``when``)."""
    if pattern is None:
        return UNKNOWN
    bin_seconds = SECONDS_PER_DAY / pattern["bins_per_day"]
    dow = int(when // SECONDS_PER_DAY) % 7
    bin_index = int((when % SECONDS_PER_DAY) // bin_seconds)
    return float(pattern["weekly"][dow][bin_index])


def idle_probability(
    pattern: Optional[dict], start: float, duration: float
) -> float:
    """P(node stays idle through the span): independent bins, partial
    bins weighted by coverage."""
    if pattern is None:
        return UNKNOWN
    bin_seconds = SECONDS_PER_DAY / pattern["bins_per_day"]
    if duration <= 0:
        return 1.0 - busy_probability(pattern, start)
    probability = 1.0
    t = start
    end = start + duration
    while t < end:
        bin_end = (t // bin_seconds + 1) * bin_seconds
        chunk = min(bin_end, end) - t
        weight = chunk / bin_seconds
        probability *= (1.0 - busy_probability(pattern, t)) ** weight
        t = min(bin_end, end)
    return probability
