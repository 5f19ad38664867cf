"""The N-List build: sorted row passes against the per-row reference.

The list-family indexes sort each distance block in passes through
:func:`repro.indexes.kernels.argsort_rows` — a SIMD sort of unique integer
keys (a distance's bits with its lowest bits replaced by its column) and,
for the rows the keys cannot order, the stable argsort.  The rows must
equal the per-row stable-argsort build kept in
``tests/list_build_reference.py`` bit for bit, and the build's transient
memory must stay that of the reference.
"""

import tracemalloc

import numpy as np
import pytest

from repro.geometry.distance import get_metric
from repro.indexes import list_index
from repro.indexes.kernels import _key_sort, argsort_rows
from repro.indexes.registry import make_index

from tests.integration.test_cross_index_exactness import adversarial_corpus
from tests.list_build_reference import reference_fit

FAMILIES = ("list", "ch", "rn-list", "rn-ch")

#: τ as a share of the corpus diameter: the truncated rows keep about half
#: of their neighbours.
TAU_SHARE = 0.5


def diameter(points, metric="euclidean"):
    return float(get_metric(metric).cross(points, points).max())


def pair(family, points, metric="euclidean", **params):
    """``(fitted, reference)`` of one family on ``points``."""
    if family.startswith("rn-"):
        params.setdefault("tau", TAU_SHARE * diameter(points, metric))
    fitted = make_index(family, metric=metric, **params).fit(points)
    reference = reference_fit(make_index(family, metric=metric, **params), points)
    return fitted, reference


def assert_same_rows(got, want):
    np.testing.assert_array_equal(got._offsets, want._offsets)
    assert got._ids.dtype == want._ids.dtype == np.int32
    np.testing.assert_array_equal(got._ids, want._ids)
    # Bit for bit: -0.0 and 0.0 compare equal, their bytes do not.
    np.testing.assert_array_equal(got._dists.view(np.int64), want._dists.view(np.int64))
    assert got._big_delta == want._big_delta
    if hasattr(want, "_hist_values"):
        np.testing.assert_array_equal(got._hist_offsets, want._hist_offsets)
        np.testing.assert_array_equal(got._hist_values, want._hist_values)


class TestAgainstReference:
    @pytest.mark.parametrize(
        "metric", ["euclidean", "manhattan", "chebyshev", "minkowski[p=3]", "haversine"]
    )
    @pytest.mark.parametrize("family", FAMILIES)
    def test_metrics(self, family, metric):
        points = adversarial_corpus("mixed")
        assert_same_rows(*pair(family, points, metric))

    @pytest.mark.parametrize("corpus", ["stacked-duplicates", "rho-ties"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_tie_heavy_corpora(self, family, corpus):
        points = adversarial_corpus(corpus)
        fitted, reference = pair(family, points)
        assert_same_rows(fitted, reference)
        if family.startswith("rn-"):
            assert (np.diff(fitted._offsets) < len(points) - 1).any()  # truncated

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_tiny(self, family, n):
        # τ = 1.2 keeps the neighbours at distance 1 and drops the one at √2.
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])[:n]
        params = {"tau": 1.2} if family.startswith("rn-") else {}
        assert_same_rows(*pair(family, points, **params))

    @pytest.mark.parametrize("block_rows", [1, 7, 4096])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_build_block_rows(self, family, block_rows):
        points = adversarial_corpus("rho-ties")
        assert_same_rows(*pair(family, points, build_block_rows=block_rows))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_passes_split_a_block(self, family, monkeypatch):
        # Passes of 3 rows: every block of 7 rows ends in a short pass.
        points = adversarial_corpus("stacked-duplicates")
        monkeypatch.setattr(list_index, "_SORT_PASS_ELEMS", 3 * len(points))
        assert_same_rows(*pair(family, points, build_block_rows=7))

    @pytest.mark.parametrize("family", ["list", "rn-list"])
    def test_overflowing_distances_tie_by_id(self, family):
        # Finite coordinates whose distances overflow to +inf: the inf
        # entries of a row are one tie run, ordered by id.  (The histogram
        # indexes cannot bin an infinite row.)
        points = np.array([[-1e308, 0.0], [1e308, 0.0], [1e308, 1.0], [-1e308, 1.0], [0.0, 0.0]])
        params = {"tau": 1e308} if family == "rn-list" else {}
        with np.errstate(over="ignore"):
            assert_same_rows(*pair(family, points, **params))

    @pytest.mark.parametrize("family", ["list", "ch"])
    def test_append_equals_the_reference_fit(self, family):
        points = adversarial_corpus("rho-ties")
        index = make_index(family).fit(points[:50])
        index.add_points(points[50:])
        assert_same_rows(index, reference_fit(make_index(family), points))


def rows_with_tie_runs(rng, n_rows, width, signed=False):
    """Rows of floats with injected runs of equal values: distance-like
    (non-negative, with +inf) or signed (also with 0.0 and -0.0)."""
    values = rng.normal(size=(n_rows, width))
    fills = [0.0, -0.0, np.inf] if signed else [0.0, np.inf]
    if not signed:
        values = np.abs(values)
    for row in values:
        for _ in range(rng.integers(0, 4)):
            run = rng.choice(width, size=rng.integers(1, width + 1), replace=False)
            row[run] = rng.choice([row[run[0]]] + fills)
    return values


def stable(values):
    order = np.argsort(values, axis=1, kind="stable")
    return order, np.take_along_axis(values, order, axis=1)


def assert_bitwise(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1].view(np.int64), want[1].view(np.int64))


class TestArgsortRows:
    """Distance-like rows sort as integer keys; rows the keys cannot order
    (near ties, signed values, NaN) fall back to the stable argsort.
    Either way the answer is the stable argsort's, bit for bit."""

    @pytest.mark.parametrize("signed", [False, True], ids=["distances", "signed"])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_stable_argsort(self, seed, signed):
        rng = np.random.default_rng(seed)
        for width in range(1, 41):
            values = rows_with_tie_runs(rng, 9, width, signed)
            assert_bitwise(argsort_rows(values), stable(values))

    def test_distance_rows_need_no_fallback(self):
        # Exact ties share their bits, so the keys order them by column.
        rng = np.random.default_rng(9)
        values = rows_with_tie_runs(rng, 50, 300)
        values[np.arange(50), np.arange(50)] = -np.inf  # the build's own entry
        order, srt, unordered = _key_sort(values)
        assert len(unordered) == 0
        assert_bitwise((order, srt), stable(values))

    def test_near_ties_fall_back(self):
        # Values one ulp apart share every bit but the lowest, which the
        # keys replace by the column: the column order is then wrong.
        one = 1.0
        up = np.nextafter(one, 2.0)
        rows = np.array([
            [up, one, 3.0, one],
            [2.0, up, one, up],
            [0.0, -0.0, 5e-324, 0.0],
            [1.0, 0.0, -0.0, 1.0],  # -0.0 == 0.0, but its key sorts first
        ])
        np.testing.assert_array_equal(_key_sort(rows)[2], np.arange(len(rows)))
        assert_bitwise(argsort_rows(rows), stable(rows))

    def test_nan_runs_order_by_column(self):
        rng = np.random.default_rng(11)
        values = rows_with_tie_runs(rng, 20, 17, signed=True)
        values[:, [3, 8, 9]] = np.nan
        assert_bitwise(argsort_rows(values), stable(values))

    def test_empty_and_single_column(self):
        for shape in [(0, 5), (3, 0), (3, 1)]:
            values = np.zeros(shape)
            assert_bitwise(argsort_rows(values), stable(values))


class TestBuildMemory:
    """The build's transient memory is that of the per-row reference.

    ``build_block_rows`` promises ``O(block · n)`` transient memory; the
    sorted passes may add one pass of sorted values (the pass a consumer
    still holds while the next one is sorted), no more.  A pass that kept
    its distance block alive into the next block would add a block.
    """

    @staticmethod
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("block_rows", [64, 512])
    @pytest.mark.parametrize("family", ["list", "ch", "rn-list"])
    def test_peak_within_one_pass_of_the_reference(self, family, block_rows):
        points = np.random.default_rng(5).uniform(0.0, 1.0, (2000, 2))
        params = {"build_block_rows": block_rows}
        if family == "rn-list":
            params["tau"] = 0.3
        fitted = self.peak(lambda: make_index(family, **params).fit(points))
        reference = self.peak(lambda: reference_fit(make_index(family, **params), points))
        one_pass = list_index._SORT_PASS_ELEMS * 8
        assert fitted <= reference + one_pass, (fitted, reference)
