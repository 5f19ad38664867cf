"""Unit tests for μ-chain cluster assignment."""

import numpy as np
import pytest

from repro.core.assignment import assign_labels
from repro.core.baseline import naive_quantities
from repro.core.quantities import NO_NEIGHBOR, DensityOrder, DPCQuantities


def make_quantities(rho, mu, delta=None, dc=1.0):
    rho = np.asarray(rho)
    if delta is None:
        delta = np.ones(len(rho), dtype=np.float64)
    return DPCQuantities(
        dc=dc,
        rho=rho,
        delta=np.asarray(delta, dtype=np.float64),
        mu=np.asarray(mu, dtype=np.int64),
        density_order=DensityOrder(rho),
    )


class TestChainPropagation:
    def test_two_chains(self):
        # 0 is the peak of cluster A (1, 2 hang off it); 3 is the peak of
        # cluster B (4 hangs off it) but mu[3] points at 0 (nearest denser).
        q = make_quantities(
            rho=[9, 5, 3, 8, 2],
            mu=[NO_NEIGHBOR, 0, 1, 0, 3],
        )
        labels = assign_labels(q, centers=np.array([0, 3]))
        np.testing.assert_array_equal(labels, [0, 0, 0, 1, 1])

    def test_single_cluster(self):
        q = make_quantities(rho=[5, 4, 3], mu=[NO_NEIGHBOR, 0, 1])
        labels = assign_labels(q, centers=np.array([0]))
        np.testing.assert_array_equal(labels, [0, 0, 0])

    def test_deep_chain(self):
        n = 50
        rho = np.arange(n)[::-1]  # densest first
        mu = np.array([NO_NEIGHBOR] + list(range(n - 1)))
        q = make_quantities(rho=rho, mu=mu)
        labels = assign_labels(q, centers=np.array([0]))
        assert (labels == 0).all()

    def test_center_order_defines_label_ids(self):
        q = make_quantities(rho=[9, 5, 8, 3], mu=[NO_NEIGHBOR, 0, 0, 2])
        labels = assign_labels(q, centers=np.array([2, 0]))
        # centers[0] = object 2 -> label 0; centers[1] = object 0 -> label 1.
        np.testing.assert_array_equal(labels, [1, 1, 0, 0])


def sequential_labels(q, centers, points):
    """The densest-first reference pass: a centre takes its label, an
    unselected peak its nearest centre (first on ties), every other object
    its μ's label, which the order has already set."""
    labels = np.full(len(q), -1, dtype=np.int64)
    labels[centers] = np.arange(len(centers))
    for p in q.density_order.order:
        if labels[p] != -1:
            continue
        if q.mu[p] == NO_NEIGHBOR:
            d = np.sqrt(((points[centers] - points[p]) ** 2).sum(axis=1))
            labels[p] = int(np.argmin(d))
        else:
            assert labels[q.mu[p]] != -1
            labels[p] = labels[q.mu[p]]
    return labels


class TestLongChains:
    def test_long_chain_with_centres_and_orphans(self, rng):
        """A μ-chain through 20,000 objects (thousands deep between its
        centres), branches to random denser objects, and unselected peaks
        part-way with objects hanging off them: the labels equal the
        sequential densest-first pass."""
        n = 20_000
        rho = rng.integers(0, 60, size=n)
        order = DensityOrder(rho).order
        center_at = [0, 3_000, 9_000, 15_000, 16_000]
        orphan_at = [700, 7_000, 13_500, 19_990]
        # Positions in density order: a third branch off to a random denser
        # object; the rest (centres and orphans among them) form one chain,
        # densest to sparsest, so a chain runs thousands of objects deep.
        branch = rng.random(n) < 1 / 3
        branch[center_at + orphan_at] = False
        chain = np.flatnonzero(~branch)
        mu = np.empty(n, dtype=np.int64)
        mu[order[chain[1:]]] = order[chain[:-1]]
        at = np.flatnonzero(branch)
        mu[order[at]] = order[rng.integers(0, at)]
        orphans = order[orphan_at]
        mu[order[0]] = NO_NEIGHBOR
        mu[orphans] = NO_NEIGHBOR
        hang = rng.choice(np.arange(13_501, n), size=50, replace=False)
        mu[order[hang]] = orphans[2]
        centers = order[center_at]
        rng.shuffle(centers)  # label ids follow the given order
        points = rng.uniform(0, 100, size=(n, 2))
        q = make_quantities(rho=rho, mu=mu)
        labels = assign_labels(q, centers, points=points)
        np.testing.assert_array_equal(labels, sequential_labels(q, centers, points))
        assert len(np.unique(labels)) == len(centers)


class TestPeakFallback:
    def test_unselected_peak_joins_nearest_center(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [9.0, 0.0]])
        # Object 3 is a strict-mode peak (mu = NO_NEIGHBOR) but not a centre.
        q = make_quantities(
            rho=[4, 2, 3, 4],
            mu=[NO_NEIGHBOR, 0, 0, NO_NEIGHBOR],
        )
        labels = assign_labels(q, centers=np.array([0, 2]), points=points)
        assert labels[3] == 1  # (9,0) is nearer to (5,5) (√41) than to (0,0) (9)

    def test_unselected_peak_without_points_raises(self):
        q = make_quantities(rho=[4, 2, 4], mu=[NO_NEIGHBOR, 0, NO_NEIGHBOR])
        with pytest.raises(ValueError, match="peak"):
            assign_labels(q, centers=np.array([0]))


class TestValidation:
    def test_empty_centers_rejected(self):
        q = make_quantities(rho=[2, 1], mu=[NO_NEIGHBOR, 0])
        with pytest.raises(ValueError, match="non-empty"):
            assign_labels(q, centers=np.array([], dtype=np.int64))

    def test_out_of_range_center(self):
        q = make_quantities(rho=[2, 1], mu=[NO_NEIGHBOR, 0])
        with pytest.raises(ValueError, match="out of range"):
            assign_labels(q, centers=np.array([5]))

    def test_duplicate_centers(self):
        q = make_quantities(rho=[2, 1], mu=[NO_NEIGHBOR, 0])
        with pytest.raises(ValueError, match="duplicate"):
            assign_labels(q, centers=np.array([0, 0]))

    def test_broken_chain_detected(self):
        # mu points to a *less* dense object: inconsistent quantities.
        q = make_quantities(rho=[5, 3, 1], mu=[NO_NEIGHBOR, 2, 0])
        with pytest.raises(ValueError, match="chain broken"):
            assign_labels(q, centers=np.array([0]))


class TestEndToEnd:
    def test_labels_follow_blob_structure(self, blobs):
        q = naive_quantities(blobs, 0.5)
        from repro.core.decision import select_centers_top_k

        centers = select_centers_top_k(q, 3)
        labels = assign_labels(q, centers, points=blobs)
        assert labels.min() == 0 and labels.max() == 2
        # The three dense blobs (known generator layout) dominate the labels.
        sizes = np.bincount(labels)
        assert sorted(sizes, reverse=True)[0] >= 100


class TestDepthGroupedPropagation:
    """The vectorized rounds must mirror the sequential densest-first pass."""

    def test_multiple_unselected_peaks_batched_fallback(self):
        points = np.array([[0.0, 0.0], [10.0, 0.0], [0.1, 0.0], [9.9, 0.0]])
        q = make_quantities(
            rho=[5, 5, 1, 1],
            mu=[NO_NEIGHBOR, NO_NEIGHBOR, 0, 1],
        )
        # Object 1 is a second peak under strict-style quantities; both it
        # and its chain land on the nearest centre.
        labels = assign_labels(q, centers=np.array([0]), points=points)
        np.testing.assert_array_equal(labels, [0, 0, 0, 0])

    def test_error_order_matches_density_order(self):
        # Object 1 (denser) is an unselected peak; object 2 has a broken
        # edge.  The sequential pass trips on object 1 first.
        q = make_quantities(rho=[9, 8, 7, 1], mu=[NO_NEIGHBOR, NO_NEIGHBOR, 3, 2])
        with pytest.raises(ValueError, match="object 1 is a peak"):
            assign_labels(q, centers=np.array([0]))

    def test_broken_edge_before_peak_in_density_order(self):
        # Object 1 has the broken edge and is denser than the peak at 2.
        q = make_quantities(rho=[9, 8, 7, 1], mu=[NO_NEIGHBOR, 3, NO_NEIGHBOR, 2])
        with pytest.raises(ValueError, match="mu chain broken at object 1"):
            assign_labels(q, centers=np.array([0]))

    def test_self_loop_mu_detected(self):
        q = make_quantities(rho=[5, 3], mu=[NO_NEIGHBOR, 1])
        with pytest.raises(ValueError, match="mu chain broken at object 1"):
            assign_labels(q, centers=np.array([0]))

    def test_matches_naive_end_to_end_order(self, blobs):
        from repro.core.decision import select_centers_top_k

        q = naive_quantities(blobs, 0.5)
        centers = select_centers_top_k(q, 3)
        labels = assign_labels(q, centers, points=blobs)
        # Sequential reference reimplemented inline for comparison.
        ref = np.full(len(blobs), -1, dtype=np.int64)
        ref[centers] = np.arange(len(centers))
        for p in q.density_order.order:
            if ref[p] != -1:
                continue
            ref[p] = ref[q.mu[p]]
        np.testing.assert_array_equal(labels, ref)

    def test_backward_mu_edge_to_center_is_valid(self):
        # mu may point at an equal-or-lower-density object when that object
        # is a centre (labelled from the start) — the sequential pass
        # assigned the label without error (code-review regression).
        q = make_quantities(rho=[5, 3], mu=[1, NO_NEIGHBOR])
        labels = assign_labels(q, centers=np.array([1]))
        np.testing.assert_array_equal(labels, [0, 0])

    def test_backward_mu_edge_to_non_center_still_raises(self):
        q = make_quantities(rho=[5, 3, 1], mu=[2, NO_NEIGHBOR, NO_NEIGHBOR])
        with pytest.raises(ValueError, match="mu chain broken at object 0"):
            assign_labels(q, centers=np.array([1]))
