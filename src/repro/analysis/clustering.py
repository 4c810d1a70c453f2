"""K-means clustering over usage periods.

The paper (Section 3) prescribes "clustering algorithms [JW83] ... to
extract behavioral categories" from node-usage periods.  This module
implements k-means with deterministic k-means++-style seeding, plus a
silhouette score for choosing k.

Distance computations are chunked so memory stays O(chunk x dims)
instead of the O(n x k x dims) / O(n x n x dims) broadcast blow-ups the
naive forms materialize.  The k-means path (seeding, assignment) keeps
the *exact* subtract/square/sum/sqrt sequence per output element that
``np.linalg.norm(data[:, None, :] - centroids[None, :, :], axis=2)``
performs, so labels and centroids are bit-identical to the reference
code — LUPA profiles built from them feed deterministic scheduling
replays.  The silhouette score, which never feeds a deterministic
path, uses the cheaper ``x**2 + y**2 - 2xy`` form with ``np.bincount``
aggregation.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Rows per block in chunked distance computations.
_CHUNK_ROWS = 2048

#: Iteration stops once the centroids move less than this in total.
_TOLERANCE = 1e-6


@dataclass
class ClusteringResult:
    """Centroids, per-sample labels, and the within-cluster inertia."""

    centroids: np.ndarray     # shape (k, dims)
    labels: np.ndarray        # shape (n,)
    inertia: float
    iterations: int

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def predict(self, sample: np.ndarray) -> int:
        """Index of the centroid nearest to ``sample``."""
        distances = np.linalg.norm(self.centroids - sample, axis=1)
        return int(np.argmin(distances))

    def cluster_sizes(self) -> list:
        """Number of samples assigned to each cluster."""
        return [int(np.sum(self.labels == i)) for i in range(self.k)]


def _distances_to(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Euclidean distances (n, k) without the (n, k, dims) broadcast.

    Per centroid and per row block, the summand sequence of each output
    element (subtract, elementwise square, ``add.reduce`` over the
    contiguous last axis, sqrt) is exactly what the broadcast
    ``np.linalg.norm(..., axis=2)`` performs, so the result is
    bit-identical while peak temporary memory is O(chunk x dims).
    """
    n = data.shape[0]
    k = centroids.shape[0]
    out = np.empty((n, k))
    for j in range(k):
        for start in range(0, n, _CHUNK_ROWS):
            block = data[start:start + _CHUNK_ROWS] - centroids[j]
            np.multiply(block, block, out=block)
            out[start:start + _CHUNK_ROWS, j] = np.sqrt(
                np.add.reduce(block, axis=1)
            )
    return out


def _seed_centroids(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids apart."""
    n = data.shape[0]
    centroids = [data[rng.integers(n)]]
    for _ in range(1, k):
        distances = np.min(_distances_to(data, np.array(centroids)), axis=1)
        total = float(np.sum(distances ** 2))
        if total <= 0:
            centroids.append(data[rng.integers(n)])
            continue
        probs = distances ** 2 / total
        centroids.append(data[rng.choice(n, p=probs)])
    return np.array(centroids)


def kmeans(
    data: np.ndarray,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
) -> ClusteringResult:
    """Cluster ``data`` (n_samples x dims) into ``k`` groups.

    Deterministic for a given seed (k-means++ seeding, then Lloyd
    iterations until the centroids stop moving).  Raises ValueError
    when there are fewer samples than clusters.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {data.shape}")
    n = data.shape[0]
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if n < k:
        raise ValueError(f"cannot form {k} clusters from {n} samples")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    centroids = _seed_centroids(data, k, np.random.default_rng(seed))
    labels = np.zeros(n, dtype=int)
    for iteration in range(1, max_iter + 1):
        distances = _distances_to(data, centroids)
        labels = np.argmin(distances, axis=1)
        new_centroids = centroids.copy()
        for i in range(k):
            members = data[labels == i]
            if len(members):
                new_centroids[i] = members.mean(axis=0)
        shift = float(np.linalg.norm(new_centroids - centroids))
        centroids = new_centroids
        if shift < _TOLERANCE:
            break
    inertia = float(
        np.sum((data - centroids[labels]) ** 2)
    )
    return ClusteringResult(centroids, labels, inertia, iteration)


def silhouette_score(data: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient in [-1, 1]; higher = better separated.

    Returns 0.0 when every sample is in one cluster (undefined case).
    Pairwise distances are computed a row block at a time in the
    ``x**2 + y**2 - 2xy`` form and aggregated per cluster with
    ``np.bincount``, so memory stays O(chunk x n) instead of the full
    O(n**2 x dims) broadcast.  Numerically equivalent (not bit-equal) to
    that broadcast, the seed implementation the test tree keeps as its
    oracle.
    """
    data = np.asarray(data, dtype=float)
    labels = np.asarray(labels)
    unique = np.unique(labels)
    if len(unique) < 2:
        return 0.0
    n = data.shape[0]
    k = len(unique)
    label_index = np.searchsorted(unique, labels)
    counts = np.bincount(label_index, minlength=k)
    sq = np.add.reduce(data * data, axis=1)
    scores = np.zeros(n)
    rows_arange = np.arange(n)
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        block = data[start:stop]
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (block @ data.T)
        np.maximum(d2, 0.0, out=d2)
        dist = np.sqrt(d2)
        b = stop - start
        # Per-cluster distance sums for every row in the block, in one
        # flat bincount: bucket (row, cluster) pairs.
        flat_buckets = (
            np.repeat(np.arange(b) * k, n) + np.tile(label_index, b)
        )
        sums = np.bincount(
            flat_buckets, weights=dist.ravel(), minlength=b * k
        ).reshape(b, k)
        own = label_index[start:stop]
        own_counts = counts[own]
        block_rows = np.arange(b)
        with np.errstate(invalid="ignore", divide="ignore"):
            a = sums[block_rows, own] / (own_counts - 1)
            mean_other = sums / counts[None, :]
        mean_other[block_rows, own] = np.inf
        bvals = mean_other.min(axis=1)
        denom = np.maximum(a, bvals)
        with np.errstate(invalid="ignore"):
            s = np.where(denom == 0, 0.0, (bvals - a) / denom)
        s = np.where(own_counts <= 1, 0.0, s)
        scores[rows_arange[start:stop]] = s
    return float(np.mean(scores))


def best_k(
    data: np.ndarray,
    k_range: range,
    seed: int = 0,
) -> tuple:
    """Pick k from ``k_range`` by silhouette; returns (k, result)."""
    best: Optional[tuple] = None
    for k in k_range:
        if k >= len(data) or k < 2:
            continue
        result = kmeans(data, k, seed=seed)
        score = silhouette_score(data, result.labels)
        if best is None or score > best[0]:
            best = (score, k, result)
    if best is None:
        raise ValueError("k_range produced no valid clustering")
    return best[1], best[2]
