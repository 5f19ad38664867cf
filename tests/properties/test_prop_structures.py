"""Hypothesis: structural invariants of the index data structures."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.quantities import DensityOrder
from repro.indexes.ch_index import CHIndex
from repro.indexes.kdtree import KDTreeIndex
from repro.indexes.list_index import ListIndex
from repro.indexes.quadtree import QuadtreeIndex
from repro.indexes.rtree import RTreeIndex

coords = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


def point_sets(min_n=5, max_n=50):
    return st.integers(min_n, max_n).flatmap(
        lambda n: hnp.arrays(np.float64, (n, 2), elements=coords)
    )


@given(points=point_sets())
@settings(max_examples=30, deadline=None)
def test_nlist_rows_are_permutations(points):
    index = ListIndex().fit(points)
    n = len(points)
    for p in range(0, n, max(1, n // 5)):
        row = set(index.neighbor_ids[p].tolist())
        assert row == set(range(n)) - {p}
        assert (np.diff(index.neighbor_dists[p]) >= 0).all()


@given(points=point_sets(min_n=6), bins=st.integers(2, 64))
@settings(max_examples=30, deadline=None)
def test_ch_histograms_cumulative(points, bins):
    index = CHIndex(default_bins=bins).fit(points)
    n = len(points)
    for p in range(0, n, max(1, n // 4)):
        start = index._hist_offsets[p]
        stop = index._hist_offsets[p + 1]
        values = index._hist_values[start:stop]
        assert (np.diff(values) >= 0).all()
        assert values[-1] == n - 1


@given(points=point_sets(), capacity=st.integers(1, 16))
@settings(max_examples=30, deadline=None)
def test_quadtree_partitions_points(points, capacity):
    index = QuadtreeIndex(capacity=capacity).fit(points)
    leaf_ids = np.concatenate(
        [n.ids for n in index.root.iter_nodes() if n.is_leaf]
    )
    assert sorted(leaf_ids.tolist()) == list(range(len(points)))
    assert index.root.nc == len(points)
    for node in index.root.iter_nodes():
        if node.children is not None:
            assert 1 <= len(node.children) <= 4


@given(points=point_sets(), fanout=st.integers(2, 12))
@settings(max_examples=30, deadline=None)
def test_str_rtree_balanced_and_complete(points, fanout):
    index = RTreeIndex(max_entries=fanout).fit(points)
    depths = []

    def walk(node, depth):
        if node.is_leaf:
            depths.append(depth)
        else:
            assert len(node.children) <= fanout
            for child in node.children:
                walk(child, depth + 1)

    walk(index.root, 0)
    assert max(depths) == min(depths)
    leaf_ids = np.concatenate(
        [n.ids for n in index.root.iter_nodes() if n.is_leaf]
    )
    assert sorted(leaf_ids.tolist()) == list(range(len(points)))


@given(points=point_sets(min_n=8), fanout=st.integers(4, 10))
@settings(max_examples=20, deadline=None)
def test_dynamic_rtree_mbr_containment(points, fanout):
    index = RTreeIndex(max_entries=fanout, packing="dynamic").fit(points)
    for node in index.root.iter_nodes():
        if node.is_leaf:
            if len(node.ids):
                pts = points[node.ids]
                assert (pts >= node.lo - 1e-9).all()
                assert (pts <= node.hi + 1e-9).all()
        else:
            for child in node.children:
                assert (child.lo >= node.lo - 1e-9).all()
                assert (child.hi <= node.hi + 1e-9).all()
    leaf_ids = np.concatenate(
        [n.ids for n in index.root.iter_nodes() if n.is_leaf]
    )
    assert sorted(leaf_ids.tolist()) == list(range(len(points)))


@given(points=point_sets(), leaf_size=st.integers(1, 12))
@settings(max_examples=30, deadline=None)
def test_kdtree_median_balance(points, leaf_size):
    index = KDTreeIndex(leaf_size=leaf_size).fit(points)
    for node in index.root.iter_nodes():
        if node.children is not None:
            left, right = node.children
            assert abs(left.nc - right.nc) <= 1
            assert left.nc + right.nc == node.nc


@given(rho=hnp.arrays(np.int64, st.integers(2, 50), elements=st.integers(0, 8)))
@settings(max_examples=50, deadline=None)
def test_density_order_total_order(rho):
    order = DensityOrder(rho)
    ids = order.order
    # Strictly decreasing in (rho, -id): a genuine total order.
    keys = [(int(rho[p]), -int(p)) for p in ids]
    assert keys == sorted(keys, reverse=True)
    # Exactly one global peak, and nothing is denser than it.
    peaks = order.global_peaks()
    assert len(peaks) == 1
    assert all(not order.is_denser(q, int(peaks[0])) for q in range(len(rho)))
