"""Hypothesis: invariants of the extras — variants, streaming, persistence."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.baseline import naive_quantities
from repro.core.quantities import DensityOrder
from repro.extras.streaming import StreamingDPC
from repro.extras.variants import gaussian_density, knn_density, variant_quantities
from repro.geometry.distance import pairwise_distances
from repro.indexes.kdtree import KDTreeIndex
from repro.indexes.list_index import ListIndex

from tests.conftest import assert_quantities_equal

coords = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def point_sets(min_n=4, max_n=40):
    return st.integers(min_n, max_n).flatmap(
        lambda n: hnp.arrays(np.float64, (n, 2), elements=coords)
    )


@given(points=point_sets(), dc=st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_gaussian_density_bounds(points, dc):
    """0 ≤ ρ_gauss(p) ≤ n-1, and ρ of a point with a twin is ≥ 1's worth."""
    rho = gaussian_density(points, dc)
    n = len(points)
    assert (rho >= -1e-9).all()
    assert (rho <= n - 1 + 1e-9).all()


@given(points=point_sets(min_n=6), k=st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_knn_density_antitone_in_radius(points, k):
    """Objects with smaller kNN radii must have (weakly) larger density."""
    assume(len(np.unique(points, axis=0)) > 1)
    index = ListIndex().fit(points)
    rho = knn_density(index, k=k, mode="max")
    radius = index.neighbor_dists[:, k - 1]
    order = np.argsort(radius)
    assert (np.diff(rho[order]) <= 1e-9).all()


@given(points=point_sets(min_n=6), dc=st.floats(0.2, 5.0))
@settings(max_examples=20, deadline=None)
def test_variant_delta_is_true_nearest_denser(points, dc):
    assume(len(np.unique(points, axis=0)) > 1)
    rho = gaussian_density(points, dc)
    q = variant_quantities(KDTreeIndex(leaf_size=3).fit(points), rho, dc=dc)
    d = pairwise_distances(points)
    order = q.density_order
    for p in range(len(points)):
        denser = [j for j in range(len(points)) if order.is_denser(j, p)]
        if denser:
            assert np.isclose(q.delta[p], d[p, denser].min())
        else:
            assert np.isclose(q.delta[p], d[p].max())


@given(
    batches=st.lists(point_sets(min_n=3, max_n=15), min_size=1, max_size=4),
    dc=st.floats(0.3, 5.0),
)
@settings(max_examples=15, deadline=None)
def test_streaming_always_equals_batch(batches, dc):
    """StreamingDPC's quantities equal a from-scratch run at every prefix."""
    d = batches[0].shape[1]
    assume(all(b.shape[1] == d for b in batches))
    stream = StreamingDPC(index_factory=lambda: KDTreeIndex(leaf_size=4))
    for batch in batches:
        stream.add(batch)
        expected = naive_quantities(stream.points(), dc)
        got = stream.quantities(dc)
        assert_quantities_equal(expected, got)


@given(points=point_sets(min_n=5))
@settings(max_examples=15, deadline=None)
def test_persist_roundtrip_property(points, tmp_path_factory):
    from repro.indexes.persist import load_index, save_index

    path = str(tmp_path_factory.mktemp("persist") / "index.npz")
    index = KDTreeIndex(leaf_size=4).fit(points)
    save_index(index, path)
    restored = load_index(path)
    assert_quantities_equal(index.quantities(1.0), restored.quantities(1.0))
