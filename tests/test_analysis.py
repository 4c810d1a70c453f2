"""Unit tests for clustering and metrics."""

import numpy as np
import pytest

from repro.analysis.clustering import best_k, kmeans, silhouette_score
from repro.analysis.metrics import Table, describe, percentile

from tests.oracles import clustering as clustering_oracle


def three_blobs(n_per=20, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    data = np.vstack([
        center + rng.normal(0, 0.5, size=(n_per, 2)) for center in centers
    ])
    return data


class TestKmeans:
    def test_recovers_separated_blobs(self):
        data = three_blobs()
        result = kmeans(data, 3, seed=1)
        assert result.k == 3
        # Each blob's 20 points should share one label.
        for start in (0, 20, 40):
            labels = set(result.labels[start:start + 20])
            assert len(labels) == 1
        assert sorted(result.cluster_sizes()) == [20, 20, 20]

    def test_deterministic_per_seed(self):
        data = three_blobs()
        r1 = kmeans(data, 3, seed=7)
        r2 = kmeans(data, 3, seed=7)
        assert np.array_equal(r1.labels, r2.labels)
        assert np.allclose(r1.centroids, r2.centroids)

    def test_predict_assigns_nearest(self):
        data = three_blobs()
        result = kmeans(data, 3, seed=1)
        label_near_origin = result.predict(np.array([0.2, -0.1]))
        assert label_near_origin == result.labels[0]

    def test_k_one(self):
        data = three_blobs()
        result = kmeans(data, 1)
        assert np.allclose(result.centroids[0], data.mean(axis=0))

    def test_more_clusters_than_samples(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 3)), 5)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((5, 2)), 0)

    def test_non_2d_data(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros(5), 2)

    def test_identical_points(self):
        data = np.ones((10, 3))
        result = kmeans(data, 2, seed=0)
        assert result.inertia == pytest.approx(0.0)

    def test_inertia_decreases_with_k(self):
        data = three_blobs()
        inertia_1 = kmeans(data, 1, seed=0).inertia
        inertia_3 = kmeans(data, 3, seed=0).inertia
        assert inertia_3 < inertia_1

    def test_nonpositive_max_iter_rejected(self):
        # Previously an UnboundLocalError (``iteration`` never bound).
        with pytest.raises(ValueError, match="max_iter"):
            kmeans(three_blobs(), 3, max_iter=0)
        with pytest.raises(ValueError, match="max_iter"):
            kmeans(three_blobs(), 3, max_iter=-5)


class TestSilhouette:
    def test_well_separated_scores_high(self):
        data = three_blobs()
        result = kmeans(data, 3, seed=1)
        assert silhouette_score(data, result.labels) > 0.7

    def test_single_cluster_scores_zero(self):
        data = three_blobs()
        assert silhouette_score(data, np.zeros(len(data), dtype=int)) == 0.0

    def test_wrong_k_scores_lower(self):
        data = three_blobs()
        good = silhouette_score(data, kmeans(data, 3, seed=1).labels)
        bad = silhouette_score(data, kmeans(data, 6, seed=1).labels)
        assert good > bad

    def test_best_k_finds_three(self):
        data = three_blobs()
        k, result = best_k(data, range(2, 7), seed=1)
        assert k == 3

    def test_best_k_empty_range(self):
        with pytest.raises(ValueError):
            best_k(three_blobs(), range(100, 101))

    def test_chunked_matches_reference(self):
        # The chunked x^2+y^2-2xy form is numerically equivalent (not
        # bit-equal) to the seed's full pairwise broadcast.
        rng = np.random.default_rng(11)
        for k in (2, 3, 5):
            data = rng.random((60, 8))
            labels = kmeans(data, k, seed=2).labels
            assert silhouette_score(data, labels) == pytest.approx(
                clustering_oracle.silhouette_score(data, labels), abs=1e-6
            )

    def test_chunked_matches_reference_with_singletons(self):
        data = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [50.0, 50.0]])
        labels = np.array([0, 0, 1, 2])   # two singleton clusters
        assert silhouette_score(data, labels) == pytest.approx(
            clustering_oracle.silhouette_score(data, labels), abs=1e-9
        )


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_interpolation(self):
        assert percentile([0, 10], 25) == 2.5

    def test_extremes(self):
        values = [5, 1, 9]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_single_value(self):
        assert percentile([7], 95) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1], 150)


class TestDescribe:
    def test_summary(self):
        stats = describe([1.0, 2.0, 3.0, 4.0])
        assert stats["count"] == 4
        assert stats["mean"] == 2.5
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0
        assert stats["p50"] == 2.5

    def test_empty(self):
        assert describe([])["count"] == 0

    def test_p99_and_stddev(self):
        values = [float(v) for v in range(1, 101)]
        stats = describe(values)
        assert stats["p99"] == pytest.approx(percentile(values, 99))
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        assert stats["stddev"] == pytest.approx(variance ** 0.5)

    def test_empty_sample_yields_zero_for_every_statistic(self):
        stats = describe([])
        assert stats == {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                         "p50": 0.0, "p95": 0.0, "p99": 0.0, "stddev": 0.0}

    def test_single_value_has_zero_stddev(self):
        stats = describe([5.0])
        assert stats["stddev"] == 0.0
        assert stats["p99"] == 5.0


class TestTable:
    def test_render(self):
        table = Table(["policy", "makespan"], title="E4")
        table.add_row("random", 123.456)
        table.add_row("pattern_aware", 99.0)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "E4"
        assert "policy" in lines[1]
        assert "random" in text
        assert "123.46" in text

    def test_column_count_enforced(self):
        with pytest.raises(ValueError):
            Table(["a", "b"]).add_row(1)

    def test_bool_formatting(self):
        text = Table(["x"]).add_row(True).render()
        assert "yes" in text

    def test_large_and_small_floats(self):
        text = Table(["v"]).add_row(123456.0).add_row(0.00012).render()
        assert "1.23e+05" in text
        assert "0.00012" in text

    def test_empty_table_renders_headers(self):
        text = Table(["alpha", "beta"]).render()
        assert "alpha" in text
