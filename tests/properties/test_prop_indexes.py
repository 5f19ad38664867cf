"""Hypothesis: the exactness contract holds on adversarial point sets.

Strategy notes: points are drawn from a small integer lattice scaled by an
irrational-ish factor, then dc is placed at the *midpoint of two consecutive
unique pairwise distances* — so no distance ever sits within float noise of
dc and strict-< comparisons cannot flip between code paths.  This makes
bit-exact assertions robust while still exercising heavy duplicate/tie
structure (lattice points collide frequently).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.baseline import naive_quantities
from repro.geometry.distance import pairwise_distances
from repro.indexes.ch_index import CHIndex
from repro.indexes.grid import GridIndex
from repro.indexes.kdtree import KDTreeIndex
from repro.indexes.list_index import ListIndex
from repro.indexes.quadtree import QuadtreeIndex
from repro.indexes.rn_list import RNListIndex
from repro.indexes.rtree import RTreeIndex

from tests.conftest import assert_quantities_equal


@st.composite
def lattice_points(draw, min_n=5, max_n=60):
    """2-D points on a lattice: many duplicate coordinates and tied distances."""
    n = draw(st.integers(min_n, max_n))
    coords = draw(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)),
            min_size=n,
            max_size=n,
        )
    )
    return np.asarray(coords, dtype=np.float64) * 0.7310585786300049


@st.composite
def points_and_dc(draw):
    points = draw(lattice_points())
    d = pairwise_distances(points)
    iu = np.triu_indices(len(points), k=1)
    uniq = np.unique(d[iu])
    uniq = uniq[uniq > 0.0]
    if len(uniq) < 2:
        dc = 1.0
    else:
        idx = draw(st.integers(0, len(uniq) - 2))
        dc = float((uniq[idx] + uniq[idx + 1]) / 2.0)
    return points, dc


FACTORIES = [
    ("list", lambda: ListIndex(scan_block=4)),
    ("ch", lambda: CHIndex(default_bins=16)),
    ("quadtree", lambda: QuadtreeIndex(capacity=4)),
    ("rtree", lambda: RTreeIndex(max_entries=4)),
    ("kdtree", lambda: KDTreeIndex(leaf_size=3)),
    ("grid", lambda: GridIndex(target_occupancy=4)),
]


@pytest.mark.parametrize("name,factory", FACTORIES, ids=[f[0] for f in FACTORIES])
@given(case=points_and_dc())
@settings(max_examples=25, deadline=None)
def test_exactness_contract_id_ties(name, factory, case):
    points, dc = case
    base = naive_quantities(points, dc)
    got = factory().fit(points).quantities(dc)
    assert_quantities_equal(base, got)


@pytest.mark.parametrize(
    "name,factory",
    [FACTORIES[0], FACTORIES[3], FACTORIES[5]],
    ids=["list", "rtree", "grid"],
)
@given(case=points_and_dc())
@settings(max_examples=15, deadline=None)
def test_exactness_contract_strict_ties(name, factory, case):
    points, dc = case
    base = naive_quantities(points, dc, tie_break="strict")
    got = factory().fit(points).quantities(dc, tie_break="strict")
    assert_quantities_equal(base, got)


@given(case=points_and_dc(), tau_factor=st.floats(0.1, 3.0))
@settings(max_examples=25, deadline=None)
def test_rnlist_rho_exact_below_tau(case, tau_factor):
    points, dc = case
    tau = dc * tau_factor
    index = RNListIndex(tau=tau).fit(points)
    rho = index.rho_all(dc)
    if dc <= tau:
        np.testing.assert_array_equal(rho, naive_quantities(points, dc).rho)
    else:
        # Truncation can only undercount.
        assert (rho <= naive_quantities(points, dc).rho).all()


@given(case=points_and_dc())
@settings(max_examples=20, deadline=None)
def test_rho_rank_invariant_under_index(case):
    """All indexes agree on the density ordering, hence on clusterings."""
    points, dc = case
    base = naive_quantities(points, dc)
    for _, factory in (FACTORIES[1], FACTORIES[4]):
        got = factory().fit(points).quantities(dc)
        np.testing.assert_array_equal(
            base.density_order.order, got.density_order.order
        )
