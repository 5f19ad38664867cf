"""Unit tests for the Gaussian-kernel and kNN density variants."""

import numpy as np
import pytest

from repro.core.decision import select_centers_auto, select_centers_top_k
from repro.core.assignment import assign_labels
from repro.core.quantities import NO_NEIGHBOR
from repro.extras.variants import gaussian_density, knn_density, variant_quantities
from repro.geometry.distance import pairwise_distances
from repro.indexes.kdtree import KDTreeIndex
from repro.indexes.list_index import ListIndex
from repro.indexes.rn_list import RNCHIndex, RNListIndex
from repro.indexes.rtree import RTreeIndex
from repro.metrics.external import adjusted_rand_index


class TestGaussianDensity:
    def test_matches_brute_force(self, blobs):
        dc = 0.5
        rho = gaussian_density(blobs, dc)
        d = pairwise_distances(blobs)
        expected = np.exp(-((d / dc) ** 2)).sum(axis=1) - 1.0
        np.testing.assert_allclose(rho, expected, rtol=1e-12)

    def test_block_invariance(self, blobs):
        a = gaussian_density(blobs, 0.5, block_rows=13)
        b = gaussian_density(blobs, 0.5, block_rows=4096)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_densities_rarely_tied(self, blobs):
        rho = gaussian_density(blobs, 0.5)
        assert len(np.unique(rho)) == len(rho)

    def test_monotone_in_dc(self, blobs):
        """A wider kernel accumulates more mass for every object."""
        small = gaussian_density(blobs, 0.2)
        large = gaussian_density(blobs, 2.0)
        assert (large > small).all()

    def test_validation(self, blobs):
        with pytest.raises(ValueError, match="dc must be positive"):
            gaussian_density(blobs, 0.0)
        with pytest.raises(ValueError, match="non-empty"):
            gaussian_density(np.empty((0, 2)), 1.0)


class TestKnnDensity:
    def test_mean_mode_matches_nlist(self, blobs):
        index = ListIndex().fit(blobs)
        rho = knn_density(index, k=5, mode="mean")
        expected = 1.0 / index.neighbor_dists[:, :5].mean(axis=1)
        np.testing.assert_allclose(rho, expected)

    def test_max_mode_is_knn_radius(self, blobs):
        index = ListIndex().fit(blobs)
        rho = knn_density(index, k=7, mode="max")
        np.testing.assert_allclose(rho, 1.0 / index.neighbor_dists[:, 6])

    def test_dense_regions_have_higher_density(self, blobs):
        index = ListIndex().fit(blobs)
        rho = knn_density(index, k=10)
        # The blobs fixture: first 110 points form the tightest blob (σ=0.3
        # vs uniform noise in the last 20 rows).
        assert rho[:110].mean() > rho[-20:].mean()

    def test_coincident_points_capped_not_inf(self):
        pts = np.concatenate([np.zeros((3, 2)), [[1.0, 0.0], [0.0, 1.0]]])
        index = ListIndex().fit(pts)
        rho = knn_density(index, k=2)
        assert np.isfinite(rho).all()
        assert rho[0] > rho[3]

    def test_validation(self, blobs):
        index = ListIndex().fit(blobs)
        with pytest.raises(ValueError, match="k must be"):
            knn_density(index, k=0)
        with pytest.raises(ValueError, match="k must be"):
            knn_density(index, k=len(blobs))
        with pytest.raises(ValueError, match="mode"):
            knn_density(index, k=3, mode="median")
        with pytest.raises(TypeError, match="ListIndex"):
            knn_density(KDTreeIndex().fit(blobs), k=3)

    @pytest.mark.parametrize("cls", [RNListIndex, RNCHIndex], ids=["rn-list", "rn-ch"])
    def test_truncated_lists_rejected(self, blobs, cls):
        """The RN-Lists share the N-List layout, but their rows are ragged:
        the k nearest neighbours of an object need not be stored."""
        with pytest.raises(TypeError, match="ListIndex"):
            knn_density(cls(tau=1.0).fit(blobs), k=3)


class TestVariantQuantities:
    def test_delta_is_nearest_denser_under_float_rho(self, blobs):
        rho = gaussian_density(blobs, 0.5)
        q = variant_quantities(RTreeIndex().fit(blobs), rho, dc=0.5)
        d = pairwise_distances(blobs)
        order = q.density_order
        for p in range(0, len(blobs), 41):
            denser = [j for j in range(len(blobs)) if order.is_denser(j, p)]
            if not denser:
                assert q.mu[p] == NO_NEIGHBOR
                assert q.delta[p] == d[p].max()
            else:
                assert q.delta[p] == pytest.approx(d[p, denser].min())

    def test_indexes_agree_on_variant_delta(self, blobs):
        rho = gaussian_density(blobs, 0.5)
        reference = None
        for factory in (
            lambda: ListIndex(),
            lambda: RTreeIndex(),
            lambda: KDTreeIndex(),
        ):
            q = variant_quantities(factory().fit(blobs), rho, dc=0.5)
            if reference is None:
                reference = q
            else:
                np.testing.assert_array_equal(reference.delta, q.delta)
                np.testing.assert_array_equal(reference.mu, q.mu)

    def test_variant_clustering_recovers_blobs(self, blobs):
        index = ListIndex().fit(blobs)
        rho = knn_density(index, k=12)
        q = variant_quantities(index, rho, dc=0.5)
        centers = select_centers_top_k(q, 3)
        labels = assign_labels(q, centers, points=blobs)
        truth = np.concatenate(
            [np.zeros(110), np.ones(130), np.full(60, 2), np.full(20, 3)]
        )
        core = truth < 3
        assert adjusted_rand_index(truth[core], labels[core]) > 0.9

    def test_length_mismatch(self, blobs):
        index = RTreeIndex().fit(blobs)
        with pytest.raises(ValueError, match="entries"):
            variant_quantities(index, np.ones(3), dc=0.5)

    def test_auto_centers_on_gaussian_density(self, blobs):
        rho = gaussian_density(blobs, 0.5)
        q = variant_quantities(KDTreeIndex().fit(blobs), rho, dc=0.5)
        centers = select_centers_auto(q, min_centers=2)
        assert 2 <= len(centers) <= 6
