"""Property tests for the multi-dc sweep API.

Contract: for every registered index, ``rho_all_multi`` / ``quantities_multi``
agree **element-wise** with the per-``dc`` single calls — and, for exact
indexes, with ``naive_quantities`` — over random point sets and random ``dc``
grids.  This is what lets the harness swap a sequential sweep for the batched
pass without changing a single reported number.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.baseline import naive_quantities
from repro.geometry.distance import pairwise_distances
from repro.indexes.registry import INDEX_CLASSES, make_index

from tests.conftest import assert_quantities_equal

#: name -> constructor kwargs (approximate indexes need τ explicitly).
INDEX_PARAMS = {
    "list": {},
    "ch": {},
    "rn-list": {"tau": 4.0},
    "rn-ch": {"tau": 4.0},
    "quadtree": {},
    "rtree": {},
    "kdtree": {},
    "grid": {},
}


def test_every_registered_index_is_covered():
    """New registry entries must opt into the sweep property tests."""
    assert set(INDEX_PARAMS) == set(INDEX_CLASSES)


@st.composite
def points_and_dc_grid(draw):
    n = draw(st.integers(8, 40))
    coords = draw(
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 10)),
            min_size=n,
            max_size=n,
        )
    )
    points = np.asarray(coords, dtype=np.float64) * 0.7310585786300049
    d = pairwise_distances(points)
    iu = np.triu_indices(len(points), k=1)
    uniq = np.unique(d[iu])
    uniq = uniq[uniq > 0.0]
    if len(uniq) < 3:
        dcs = [0.5, 1.0, 2.0]
    else:
        # Midpoints of consecutive unique distances: no distance sits within
        # float noise of any dc, so strict-< comparisons cannot flip.  Only
        # len(uniq)-1 distinct gaps exist, so cap the draw there.
        k = draw(st.integers(2, min(6, len(uniq) - 1)))
        idx = draw(
            st.lists(
                st.integers(0, len(uniq) - 2), min_size=k, max_size=k, unique=True
            )
        )
        dcs = [float((uniq[i] + uniq[i + 1]) / 2.0) for i in idx]
    return points, dcs


@pytest.mark.parametrize("name", sorted(INDEX_PARAMS))
@settings(max_examples=25, deadline=None)
@given(data=points_and_dc_grid())
def test_multi_agrees_with_single_and_naive(name, data):
    points, dcs = data
    index = make_index(name, **INDEX_PARAMS[name]).fit(points)

    rhos = index.rho_all_multi(dcs)
    assert rhos.shape == (len(dcs), len(points))
    multi = index.quantities_multi(dcs)
    assert [q.dc for q in multi] == [float(dc) for dc in dcs]

    for dc, rho_row, q_multi in zip(dcs, rhos, multi):
        np.testing.assert_array_equal(
            rho_row, index.rho_all(float(dc)), err_msg=f"{name} rho_all dc={dc}"
        )
        single = index.quantities(float(dc))
        assert_quantities_equal(single, q_multi)
        if index.exact:
            assert_quantities_equal(naive_quantities(points, float(dc)), q_multi)


@pytest.mark.parametrize("name", sorted(INDEX_PARAMS))
def test_multi_rejects_bad_grids(name):
    rng = np.random.default_rng(3)
    index = make_index(name, **INDEX_PARAMS[name]).fit(rng.uniform(0, 5, (20, 2)))
    with pytest.raises(ValueError, match="positive"):
        index.quantities_multi([0.5, -1.0])
    with pytest.raises(ValueError, match="non-empty"):
        index.rho_all_multi([])


@pytest.mark.parametrize("tie_break", ["id", "strict"])
def test_multi_honours_tie_break(tie_break):
    """Lattice points (maximal density ties) under both conventions."""
    points = np.array([(x, y) for x in range(7) for y in range(7)], dtype=float)
    dcs = [1.2, 1.7, 3.3]
    for name in ("list", "ch", "rtree", "grid"):
        index = make_index(name, **INDEX_PARAMS[name]).fit(points)
        multi = index.quantities_multi(dcs, tie_break=tie_break)
        for dc, q in zip(dcs, multi):
            base = naive_quantities(points, dc, tie_break=tie_break)
            assert_quantities_equal(base, q)
