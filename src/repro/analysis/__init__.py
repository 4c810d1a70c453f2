"""Statistical analysis: clustering for usage patterns, and experiment metrics.

``repro.analysis.clustering`` (k-means, on numpy) is imported by what
clusters, not here, so that running a grid does not load numpy.
"""

from repro.analysis.metrics import Table, describe, percentile

__all__ = ["Table", "describe", "percentile"]
