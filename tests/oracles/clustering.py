"""The seed silhouette score: the full O(n**2 x dims) pairwise broadcast.

``silhouette_score`` computes distances a row block at a time in the
``x**2 + y**2 - 2xy`` form; ``tests/test_analysis.py`` holds it to this
(numerically, not bit for bit).
"""

import numpy as np


def silhouette_score(data: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient; 0.0 when every sample is in one
    cluster."""
    data = np.asarray(data, dtype=float)
    labels = np.asarray(labels)
    unique = np.unique(labels)
    if len(unique) < 2:
        return 0.0
    n = data.shape[0]
    distances = np.linalg.norm(data[:, None, :] - data[None, :, :], axis=2)
    scores = np.zeros(n)
    for i in range(n):
        own = labels[i]
        own_mask = labels == own
        own_count = int(np.sum(own_mask))
        if own_count <= 1:
            scores[i] = 0.0
            continue
        a = float(np.sum(distances[i][own_mask])) / (own_count - 1)
        b = min(
            float(np.mean(distances[i][labels == other]))
            for other in unique
            if other != own
        )
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(np.mean(scores))
