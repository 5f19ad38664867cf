"""Hypothesis: metric axioms and rectangle-bound soundness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.geometry.distance import get_metric

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def point_arrays(n, d):
    return hnp.arrays(np.float64, (n, d), elements=finite_floats)


METRICS = ["euclidean", "manhattan", "chebyshev", "minkowski[p=3]"]


class TestMetricAxioms:
    @pytest.mark.parametrize("name", METRICS)
    @given(pts=point_arrays(8, 3))
    @settings(max_examples=30, deadline=None)
    def test_identity_and_nonnegativity(self, name, pts):
        m = get_metric(name)
        d = m.cross(pts, pts)
        assert (d >= 0).all()
        assert np.allclose(np.diag(d), 0.0, atol=1e-9)

    @pytest.mark.parametrize("name", METRICS)
    @given(pts=point_arrays(8, 3))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, name, pts):
        m = get_metric(name)
        d = m.cross(pts, pts)
        np.testing.assert_allclose(d, d.T, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("name", METRICS)
    @given(pts=point_arrays(6, 2))
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, name, pts):
        m = get_metric(name)
        d = m.cross(pts, pts)
        n = len(pts)
        slack = 1e-7 * (1.0 + d.max())
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= d[i, k] + d[k, j] + slack


class TestRectBounds:
    @pytest.mark.parametrize("name", METRICS)
    @given(
        corners=point_arrays(2, 2),
        inside=hnp.arrays(np.float64, (20,), elements=st.floats(0, 1)),
        q=point_arrays(1, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_mindist_maxdist_bracket_contents(self, name, corners, inside, q):
        lo = corners.min(axis=0)
        hi = corners.max(axis=0)
        # 10 points inside the box by convex interpolation of the corners.
        t = inside.reshape(10, 2)
        pts = lo + t * (hi - lo)
        m = get_metric(name)
        d = m.distances_from(pts, q[0])
        slack = 1e-9 * (1.0 + abs(d).max())
        assert m.rect_mindist(q[0], lo, hi) <= d.min() + slack
        assert m.rect_maxdist(q[0], lo, hi) >= d.max() - slack

    # Exclude subnormal coordinates: a gap below ~1e-154 underflows when
    # squared inside the Euclidean mindist, making "outside but mindist 0"
    # technically possible (and irrelevant at any realistic data scale).
    coarse = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False).filter(
        lambda v: v == 0.0 or abs(v) > 1e-9
    )

    @given(
        corners=hnp.arrays(np.float64, (2, 2), elements=coarse),
        q=hnp.arrays(np.float64, (1, 2), elements=coarse),
    )
    @settings(max_examples=40, deadline=None)
    def test_mindist_zero_iff_inside(self, corners, q):
        lo = corners.min(axis=0)
        hi = corners.max(axis=0)
        md = get_metric("euclidean").rect_mindist(q[0], lo, hi)
        if np.all(q[0] >= lo) and np.all(q[0] <= hi):
            assert md == 0.0
        else:
            assert md > 0.0
