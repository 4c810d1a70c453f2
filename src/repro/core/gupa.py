"""Global Usage Pattern Analyzer (GUPA).

Receives each node's weekly usage profile from its LUPA and answers the
GRM's question: "how likely is this node to stay idle long enough for
this task?"  (Paper, Section 4: "This information is made available to
the GRM, which can make better scheduling decisions due to the
possibility of predicting a node's idle periods.")

Profiles are validated at upload and kept as a flat ``array('d')`` of
busy values per node (row-major, 7 x bins_per_day); a bin's idle factor
``1 - busy`` is taken where it is multiplied in.
:meth:`Gupa.idle_probabilities` picks its path from the input's size,
nodes x chunk columns: up to ``SCALAR_MAX_CELLS`` a per-node Python loop
(a GRM's pool of a few dozen offers over a bin or two), above it one
numpy batch per bin width, the only code here that imports numpy; a
one-node query is the loop.  Both return an ``array('d')`` and multiply
the *exact same factor sequence* the seed's per-node, bin-by-bin loop
multiplies — whole bins as plain grid factors (``pow(x, 1.0) == x``
bit-exactly), fractional edge bins raised to their coverage weight with
``math.pow`` — left to right from 1.0, so results are bit-identical to
that loop, which the test tree keeps as its oracle over the uploaded
pattern dicts.
"""

import math
import operator
from array import array
from itertools import chain
from typing import Optional

from repro.sim.clock import SECONDS_PER_DAY

UNKNOWN = -1.0

#: Factor-matrix columns per block in the batch product (memory guard
#: for very long spans; the running product is prepended to each block
#: so left-to-right association is preserved exactly).
_CHUNK_COLUMNS = 2048

#: Largest input, in nodes x chunk columns, that the per-node loop
#: scores; larger ones take the numpy batch.  Set from the measured
#: crossover of whole ranking calls (docs/performance.md §5).
SCALAR_MAX_CELLS = 192

_NUMBER_TYPES = frozenset((int, float))

class _PatternGrid:
    """One node's profile, normalized for scoring."""

    __slots__ = ("bins_per_day", "bin_seconds", "busy")

    def __init__(self, bins_per_day: int, busy: array) -> None:
        self.bins_per_day = bins_per_day
        self.bin_seconds = SECONDS_PER_DAY / bins_per_day
        self.busy = busy

    def idle_through(self, start: float, duration: float) -> float:
        """P(idle through the span): the seed's bin-by-bin loop.  Chunks
        after the first start on bin boundaries: the next column."""
        busy = self.busy
        bin_seconds = self.bin_seconds
        column = (int(start // SECONDS_PER_DAY) % 7 * self.bins_per_day
                  + int((start % SECONDS_PER_DAY) // bin_seconds))
        if duration <= 0:
            return 1.0 - busy[column]
        probability = 1.0
        t = start
        end = start + duration
        while t < end:
            bin_end = (t // bin_seconds + 1) * bin_seconds
            stop = bin_end if bin_end < end else end
            weight = (stop - t) / bin_seconds
            factor = 1.0 - busy[column]
            probability *= (
                factor if weight == 1.0 else math.pow(factor, weight))
            t = stop
            column = (column + 1) % len(busy)
        return probability


class Gupa:
    """Cluster-wide store of per-node usage patterns."""

    def __init__(self):
        self._grids: dict[str, _PatternGrid] = {}
        # Per-bins_per_day stacked grids for batch scoring, rebuilt
        # lazily after upload/forget churn.  ``_width_counts`` tracks how
        # many grids use each bin width: the batch makes one pass per
        # width (one, unless LUPAs are configured differently), and the
        # size test reads the finest.
        self._stacks: dict[int, tuple] = {}
        self._stacks_dirty = True
        self._width_counts: dict[int, int] = {}
        self.uploads = 0

    def _count_width(self, bins_per_day: int, delta: int) -> None:
        count = self._width_counts.get(bins_per_day, 0) + delta
        if count:
            self._width_counts[bins_per_day] = count
        else:
            self._width_counts.pop(bins_per_day, None)

    def upload_pattern(self, node: str, pattern: Optional[dict]) -> None:
        """Store (or refresh) a node's weekly profile.

        Reachable over the ORB, so everything is checked before anything
        is stored: shape, bin width, and every busy value an ``int`` or
        ``float`` (not a ``bool``) that is a probability (finite, in
        [0, 1]) — one out-of-range value would turn the node's idle
        probabilities into UNKNOWN, NaN or a domain error inside the
        GRM's schedule pass.
        """
        if pattern is None:
            return
        if "weekly" not in pattern or "bins_per_day" not in pattern:
            raise ValueError(f"malformed pattern for node {node!r}")
        weekly = pattern["weekly"]
        if len(weekly) != 7:
            raise ValueError("weekly profile must have 7 rows")
        bins_per_day = pattern["bins_per_day"]
        try:
            if isinstance(bins_per_day, bool):
                raise TypeError
            bins_per_day = operator.index(bins_per_day)
        except TypeError:
            raise ValueError(
                f"bins_per_day must be an integer, got {bins_per_day!r}"
            ) from None
        if bins_per_day <= 0 or SECONDS_PER_DAY % bins_per_day:
            raise ValueError(
                f"bins_per_day must divide the {SECONDS_PER_DAY}-second "
                f"day evenly, got {bins_per_day}"
            )
        if any(len(row) != bins_per_day for row in weekly):
            raise ValueError(
                f"every weekly row must have bins_per_day={bins_per_day} "
                "entries"
            )
        values = list(chain.from_iterable(weekly))
        # C-level passes: the types (an int or float, never a bool), then
        # the sum and the range.  A NaN fails min's or max's comparison
        # only where it comes first; the sum is NaN wherever one is.
        numbers = _NUMBER_TYPES.issuperset(map(type, values)) or all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in values)
        total = sum(values) if numbers else math.nan
        if not (total == total and 0.0 <= min(values)
                and max(values) <= 1.0):
            raise ValueError(
                f"busy values for node {node!r} must be finite "
                "probabilities in [0, 1]"
            )
        previous = self._grids.get(node)
        if previous is not None:
            self._count_width(previous.bins_per_day, -1)
        self._grids[node] = _PatternGrid(bins_per_day, array("d", values))
        self._count_width(bins_per_day, +1)
        self._stacks_dirty = True
        self.uploads += 1

    def has_pattern(self, node: str) -> bool:
        return node in self._grids

    def forget(self, node: str) -> None:
        """Drop a node's pattern (node left the cluster)."""
        dropped = self._grids.pop(node, None)
        if dropped is not None:
            self._count_width(dropped.bins_per_day, -1)
            self._stacks_dirty = True

    @property
    def known_nodes(self) -> list:
        return sorted(self._grids)

    # -- scalar queries ----------------------------------------------------------

    def busy_probability(self, node: str, when: float) -> float:
        """P(owner active at ``when``), or UNKNOWN without a pattern."""
        grid = self._grids.get(node)
        if grid is None:
            return UNKNOWN
        dow = int(when // SECONDS_PER_DAY) % 7
        bin_index = int((when % SECONDS_PER_DAY) // grid.bin_seconds)
        return grid.busy[dow * grid.bins_per_day + bin_index]

    def idle_probability(self, node: str, start: float, duration: float) -> float:
        """P(node stays idle through the span), or UNKNOWN.

        Same independent-bins model as the LUPA side, computed from the
        uploaded profile so the GRM never needs to call back to nodes.
        One node's entry of :meth:`idle_probabilities`.
        """
        return self.idle_probabilities((node,), start, duration)[0]

    # -- batch scoring -----------------------------------------------------------

    def idle_probabilities(self, nodes, start: float, duration) -> array:
        """P(node stays idle through the span) for many nodes at once.

        ``duration`` is a scalar or a per-node sequence (a numpy array
        too).  Returns a float64 ``array('d')`` aligned with ``nodes``;
        entries for nodes without an uploaded pattern are ``UNKNOWN``.
        Inputs of at most ``SCALAR_MAX_CELLS`` nodes x chunk columns take
        the per-node loop, larger ones the numpy batch; both give the
        same bits.
        """
        nodes = list(nodes)
        n = len(nodes)
        if hasattr(duration, "tolist"):   # numpy or array('d')
            duration = duration.tolist()   # a float when 0-d
        try:
            durations = duration if len(duration) == n else None
        except TypeError:   # a scalar
            durations = [duration] * n
        if durations is None:
            raise ValueError(f"duration must be a scalar or shape ({n},)")
        if not n or not self._grids:
            return array("d", [UNKNOWN]) * n
        if n <= SCALAR_MAX_CELLS:
            bin_seconds = SECONDS_PER_DAY / max(self._width_counts)  # finest
            first = start // bin_seconds
            columns = (start + max(durations)) / bin_seconds - first
            # The loop steps bin by bin: its bin numbers must be exact.
            if (n * max(columns, 1.0) <= SCALAR_MAX_CELLS
                    and abs(first) < 2.0 ** 52):
                grids = map(self._grids.get, nodes)
                return array("d", [
                    UNKNOWN if grid is None else grid.idle_through(start, d)
                    for grid, d in zip(grids, durations)
                ])
        import numpy as np
        durations = np.asarray(durations, dtype=float)
        scores = array("d", [UNKNOWN]) * n
        out = np.frombuffer(scores)   # a writable view
        for bins_per_day in self._width_counts:   # one, unless mixed
            index_get = self._stack(bins_per_day)[0].get
            rows = np.fromiter(
                (index_get(node, -1) for node in nodes),
                dtype=np.int64, count=n,
            )
            idxs = np.nonzero(rows >= 0)[0]
            if idxs.size:
                self._score_group(
                    rows[idxs], idxs, bins_per_day, start, durations, out
                )
        return scores

    def _stack(self, bins_per_day: int) -> tuple:
        """(node -> row, flat idle grid) for one bin width.

        The idle factors are kept raveled (row-major, one 7*bins_per_day
        slab per node) so batch scoring can gather factors with a single
        flat ``np.take``.
        """
        if self._stacks_dirty:
            self._stacks = {}
            self._stacks_dirty = False
        cached = self._stacks.get(bins_per_day)
        if cached is None:
            import numpy as np
            members = [
                (node, grid) for node, grid in self._grids.items()
                if grid.bins_per_day == bins_per_day
            ]
            index = {node: row for row, (node, _) in enumerate(members)}
            idle_flat = 1.0 - np.concatenate(
                [np.frombuffer(grid.busy) for _, grid in members]
            )
            cached = (index, idle_flat)
            self._stacks[bins_per_day] = cached
        return cached

    def _score_group(
        self, rows, idxs, bins_per_day, start, durations, out
    ) -> None:
        """Score one same-bin-width group (stack rows ``rows``) into ``out``."""
        import numpy as np
        idle_flat = self._stack(bins_per_day)[1]
        bin_seconds = SECONDS_PER_DAY / bins_per_day
        group_durations = durations[idxs]

        nonpositive = group_durations <= 0.0
        if nonpositive.any():
            dow = int(start // SECONDS_PER_DAY) % 7
            bin_index = int((start % SECONDS_PER_DAY) // bin_seconds)
            out[idxs[nonpositive]] = idle_flat[
                rows[nonpositive] * (7 * bins_per_day)
                + dow * bins_per_day + bin_index
            ]
        positive = ~nonpositive
        if not positive.any():
            return
        out_idx = idxs[positive]
        rows_p = rows[positive]
        ends = start + group_durations[positive]

        # Shared chunk grid: chunk 0 starts at ``start``; chunk j >= 1
        # starts at boundary B_j = (start // bin_seconds + j) * bin_seconds,
        # exactly the values the seed loop steps through.  A node's
        # span has 1 + #{B_j < end} chunks (strict, matching ``t < end``).
        q = start // bin_seconds
        first_boundary = (q + 1.0) * bin_seconds
        max_end = float(ends.max())
        overshoot = (max_end - first_boundary) / bin_seconds
        j_hi = max(int(overshoot), 0) + 2
        boundaries = (q + np.arange(1, j_hi + 1)) * bin_seconds
        n_chunks = 1 + np.searchsorted(boundaries, ends, side="left")
        m = int(n_chunks.max())

        chunk_starts = np.empty(m)
        chunk_starts[0] = start
        chunk_starts[1:] = boundaries[: m - 1]
        dows = (chunk_starts // SECONDS_PER_DAY).astype(np.int64) % 7
        bins = ((chunk_starts % SECONDS_PER_DAY) // bin_seconds).astype(
            np.int64
        )
        # Column offsets into each node's raveled (7 x bins_per_day) slab.
        flat_cols = dows * bins_per_day + bins
        row_base = rows_p * (7 * bins_per_day)

        # Fractional edge weights (first and last chunk); interior
        # chunks have weight exactly 1.0 because bin_seconds is an
        # integer-valued float, so the seed loop's ``x ** 1.0`` is the
        # identity and the grid factor is used as-is.
        first_weight = (np.minimum(first_boundary, ends) - start) / bin_seconds
        last_chunk = n_chunks - 1
        last_start = chunk_starts[last_chunk]
        last_weight = (ends - last_start) / bin_seconds

        g = len(rows_p)
        product = np.ones(g)
        columns = np.arange(m)
        for j0 in range(0, m, _CHUNK_COLUMNS):
            j1 = min(j0 + _CHUNK_COLUMNS, m)
            factors = np.take(
                idle_flat, row_base[:, None] + flat_cols[None, j0:j1]
            )
            # Chunks past a node's span multiply by exactly 1.0.
            factors[columns[None, j0:j1] >= n_chunks[:, None]] = 1.0
            # Fractional edge factors use ``math.pow`` (libm pow, the
            # same routine Python's ``float ** float`` calls in the
            # seed loop) — np.power would be 1 ulp off on SIMD builds.
            if j0 == 0:
                fractional = np.nonzero(first_weight != 1.0)[0]
                if fractional.size:
                    factors[fractional, 0] = [
                        math.pow(base, weight) for base, weight in zip(
                            factors[fractional, 0].tolist(),
                            first_weight[fractional].tolist(),
                        )
                    ]
            needs_pow = (
                (last_chunk >= max(j0, 1))
                & (last_chunk < j1)
                & (last_weight != 1.0)
            )
            edge_rows = np.nonzero(needs_pow)[0]
            if edge_rows.size:
                edge_cols = last_chunk[edge_rows] - j0
                factors[edge_rows, edge_cols] = [
                    math.pow(base, weight) for base, weight in zip(
                        factors[edge_rows, edge_cols].tolist(),
                        last_weight[edge_rows].tolist(),
                    )
                ]
            # Prepending the carry keeps strict left-to-right
            # association: ((carry * f_j0) * f_j0+1) * ...  On the first
            # block the carry is all-ones, and 1.0 * x == x bit-exactly,
            # so the plain reduce is identical and skips the concat.
            if j0 == 0:
                product = np.multiply.reduce(factors, axis=1)
            else:
                product = np.multiply.reduce(
                    np.concatenate([product[:, None], factors], axis=1),
                    axis=1,
                )
        out[out_idx] = product
