"""Unit tests for the metrics' rectangle bounds (paper Table 1: dmin/dmax)."""

import numpy as np
import pytest

from repro.geometry.distance import get_metric, rect_bounds_many

#: The unit square [0, 1]², as the ``(lo, hi)`` corners the bounds take.
LO, HI = np.array([0.0, 0.0]), np.array([1.0, 1.0])


def mindist(q, metric="euclidean"):
    return get_metric(metric).rect_mindist(np.asarray(q, dtype=np.float64), LO, HI)


def maxdist(q, metric="euclidean"):
    return get_metric(metric).rect_maxdist(np.asarray(q, dtype=np.float64), LO, HI)


class TestMetricBounds:
    def test_mindist_inside_is_zero(self):
        assert mindist([0.3, 0.7]) == 0.0

    def test_mindist_outside(self):
        assert mindist([2.0, 0.5]) == pytest.approx(1.0)
        assert mindist([2.0, 2.0]) == pytest.approx(np.sqrt(2.0))

    def test_maxdist_from_corner(self):
        assert maxdist([0.0, 0.0]) == pytest.approx(np.sqrt(2.0))

    def test_bounds_bracket_true_distances(self, rng):
        """mindist ≤ dist(q, x) ≤ maxdist for every x in the box."""
        inside = rng.uniform(0.0, 1.0, size=(200, 2))
        for q in ([-0.5, 0.5], [0.5, 0.5], [3.0, -2.0]):
            q = np.asarray(q)
            d = np.sqrt(((inside - q) ** 2).sum(axis=1))
            assert mindist(q) <= d.min() + 1e-12
            assert maxdist(q) >= d.max() - 1e-12

    @pytest.mark.parametrize("metric", ["manhattan", "chebyshev", "sqeuclidean"])
    def test_bounds_other_metrics(self, rng, metric):
        m = get_metric(metric)
        inside = rng.uniform(0.0, 1.0, size=(100, 2))
        q = np.array([2.5, -0.5])
        d = m.distances_from(inside, q)
        assert mindist(q, metric) <= d.min() + 1e-12
        assert maxdist(q, metric) >= d.max() - 1e-12

    @pytest.mark.parametrize(
        "metric", ["euclidean", "sqeuclidean", "manhattan", "chebyshev", "minkowski[p=3]"]
    )
    def test_zero_extent_box_bounds_are_the_point_distance(self, rng, metric):
        """A box with lo == hi (a tree node over one point, or over
        coincident ones) holds one point: both bounds are its distance, in
        the scalar and the batched forms, and 0 from the point itself."""
        m = get_metric(metric)
        x = rng.uniform(-1.0, 1.0, size=2)
        qs = np.vstack([rng.uniform(-3.0, 3.0, size=(20, 2)), x])
        d = m.distances_from(qs, x)
        assert d[-1] == 0.0
        min_many, max_many = rect_bounds_many(m)
        for bounds in (
            [m.rect_mindist(q, x, x) for q in qs],
            [m.rect_maxdist(q, x, x) for q in qs],
            min_many(qs, x, x),
            max_many(qs, x, x),
        ):
            np.testing.assert_allclose(bounds, d, rtol=1e-12, atol=0.0)

    def test_haversine_bounds_rejected(self):
        assert not get_metric("haversine").supports_rect_bounds
        with pytest.raises(NotImplementedError, match="no exact rectangle bounds"):
            mindist([0.0, 0.0], "haversine")
        with pytest.raises(NotImplementedError, match="no exact rectangle bounds"):
            maxdist([0.0, 0.0], "haversine")
