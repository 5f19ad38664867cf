"""Unit tests for the shared vectorized query kernels."""

import numpy as np
import pytest

from repro.core.quantities import NO_NEIGHBOR, DensityOrder
from repro.indexes.kernels import (
    bounded_searchsorted,
    build_row_histograms,
    ch_rho_from_histograms,
    prefetch_scan_block,
    resolve_bin,
    row_searchsorted,
    scan_first_denser,
)


def random_csr(rng, n_rows, max_len=40, allow_empty=True):
    lengths = rng.integers(0 if allow_empty else 1, max_len + 1, size=n_rows)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    # sorted within each row, not globally
    flat = rng.uniform(0, 10, size=int(offsets[-1]))
    for p in range(n_rows):
        flat[offsets[p] : offsets[p + 1]].sort()
    return offsets, flat


class TestBoundedSearchsorted:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_numpy_per_row(self, rng, side):
        offsets, flat = random_csr(rng, 60)
        needle = 5.0
        got = bounded_searchsorted(flat, offsets[:-1], offsets[1:], needle, side)
        for p in range(60):
            row = flat[offsets[p] : offsets[p + 1]]
            expected = offsets[p] + np.searchsorted(row, needle, side)
            assert got[p] == expected

    def test_needle_grid_broadcast(self, rng):
        offsets, flat = random_csr(rng, 25)
        needles = np.array([0.0, 2.5, 5.0, 9.9, 20.0])
        got = bounded_searchsorted(
            flat, offsets[:-1, None], offsets[1:, None], needles[None, :]
        )
        assert got.shape == (25, 5)
        for p in range(25):
            row = flat[offsets[p] : offsets[p + 1]]
            np.testing.assert_array_equal(
                got[p] - offsets[p], np.searchsorted(row, needles)
            )

    def test_duplicate_values_left_vs_right(self):
        flat = np.array([1.0, 2.0, 2.0, 2.0, 3.0])
        starts = np.array([0])
        stops = np.array([5])
        assert bounded_searchsorted(flat, starts, stops, 2.0, "left")[0] == 1
        assert bounded_searchsorted(flat, starts, stops, 2.0, "right")[0] == 4

    def test_empty_rows_return_start(self):
        flat = np.array([1.0, 2.0])
        starts = np.array([0, 1, 2])
        stops = np.array([1, 1, 2])  # middle row empty
        got = bounded_searchsorted(flat, starts, stops, 99.0)
        np.testing.assert_array_equal(got, [1, 1, 2])

    def test_invalid_side(self):
        with pytest.raises(ValueError, match="side"):
            bounded_searchsorted(np.arange(3.0), [0], [3], 1.0, side="middle")


class TestRowSearchsorted:
    def test_scalar_needle(self, rng):
        rows = np.sort(rng.uniform(0, 1, size=(30, 17)), axis=1)
        got = row_searchsorted(rows, 0.4)
        expected = [np.searchsorted(rows[p], 0.4) for p in range(30)]
        np.testing.assert_array_equal(got, expected)

    def test_per_row_needles(self, rng):
        rows = np.sort(rng.uniform(0, 1, size=(12, 9)), axis=1)
        needles = rng.uniform(0, 1, size=12)
        got = row_searchsorted(rows, needles)
        expected = [np.searchsorted(rows[p], needles[p]) for p in range(12)]
        np.testing.assert_array_equal(got, expected)

    def test_grid_needles(self, rng):
        rows = np.sort(rng.uniform(0, 1, size=(8, 21)), axis=1)
        dcs = np.linspace(0.0, 1.2, 5)
        got = row_searchsorted(rows, dcs[None, :])
        assert got.shape == (8, 5)
        for p in range(8):
            np.testing.assert_array_equal(got[p], np.searchsorted(rows[p], dcs))

    def test_grid_with_as_many_needles_as_rows(self, rng):
        """(1, n) grids must not be confused with per-row (n,) needles."""
        rows = np.sort(rng.uniform(0, 1, size=(6, 10)), axis=1)
        dcs = np.linspace(0.1, 0.9, 6)
        got = row_searchsorted(rows, dcs[None, :])
        assert got.shape == (6, 6)
        for p in range(6):
            np.testing.assert_array_equal(got[p], np.searchsorted(rows[p], dcs))


    @pytest.mark.parametrize("side", ["left", "right"])
    def test_every_row_length_with_ties(self, rng, side):
        """Row lengths on and off powers of two, tied values and needles
        equal to them, below the first and above the last entry."""
        for m in range(41):
            rows = np.sort(rng.integers(0, 5, size=(7, m)).astype(np.float64), axis=1)
            needles = rng.integers(-1, 6, size=(7, 9)).astype(np.float64)
            got = row_searchsorted(rows, needles, side=side)
            for p in range(7):
                np.testing.assert_array_equal(
                    got[p], np.searchsorted(rows[p], needles[p], side=side), err_msg=f"m={m}"
                )


class TestBuildRowHistograms:
    def test_matches_per_row_searchsorted(self, rng):
        offsets, flat = random_csr(rng, 40)
        w = 0.73
        n_bins = np.array(
            [
                int(np.floor((flat[offsets[p + 1] - 1] if offsets[p + 1] > offsets[p] else 0.0) / w)) + 1
                for p in range(40)
            ],
            dtype=np.int64,
        )
        edges = w * np.arange(1, int(n_bins.max()) + 1, dtype=np.float64)
        hist_offsets, values = build_row_histograms(flat, offsets, n_bins, edges)
        for p in range(40):
            row = flat[offsets[p] : offsets[p + 1]]
            expected = np.searchsorted(row, edges[: n_bins[p]], side="left")
            np.testing.assert_array_equal(
                values[hist_offsets[p] : hist_offsets[p + 1]], expected
            )

    def test_blocking_invariance(self, rng):
        offsets, flat = random_csr(rng, 50)
        n_bins = np.full(50, 7, dtype=np.int64)
        edges = 1.6 * np.arange(1, 8, dtype=np.float64)
        a = build_row_histograms(flat, offsets, n_bins, edges, block_elems=8)
        b = build_row_histograms(flat, offsets, n_bins, edges, block_elems=10**7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_too_few_edges_rejected(self):
        with pytest.raises(ValueError, match="edges"):
            build_row_histograms(
                np.arange(3.0), np.array([0, 3]), np.array([5]), np.arange(1.0, 3.0)
            )


class TestScanFirstDenser:
    def brute(self, offsets, ids, dists, key):
        n = len(offsets) - 1
        delta = np.full(n, np.nan)
        mu = np.full(n, NO_NEIGHBOR, dtype=np.int64)
        for p in range(n):
            for j in range(offsets[p], offsets[p + 1]):
                if key[ids[j]] < key[p]:
                    delta[p] = dists[j]
                    mu[p] = ids[j]
                    break
        return delta, mu

    @pytest.mark.parametrize("block", [1, 3, 32])
    def test_matches_bruteforce(self, rng, block):
        n = 50
        offsets, dists = random_csr(rng, n, max_len=12)
        ids = rng.integers(0, n, size=int(offsets[-1])).astype(np.int32)
        key = rng.permutation(n)
        delta, mu, resolved, scanned = scan_first_denser(offsets, ids, dists, key, block=block)
        b_delta, b_mu = self.brute(offsets, ids, dists, key)
        np.testing.assert_array_equal(mu, b_mu)
        found = b_mu != NO_NEIGHBOR
        np.testing.assert_array_equal(resolved, found)
        np.testing.assert_array_equal(delta[found], b_delta[found])
        assert scanned > 0

    def test_prefetch_gives_identical_results(self, rng):
        n = 60
        offsets, dists = random_csr(rng, n, max_len=20)
        ids = rng.integers(0, n, size=int(offsets[-1])).astype(np.int32)
        key = rng.permutation(n)
        plain = scan_first_denser(offsets, ids, dists, key, block=8)
        pre = prefetch_scan_block(offsets, ids, dists, 8)
        fetched = scan_first_denser(offsets, ids, dists, key, block=8, prefetch=pre)
        np.testing.assert_array_equal(plain[1], fetched[1])
        np.testing.assert_array_equal(plain[2], fetched[2])
        np.testing.assert_array_equal(plain[0][plain[2]], fetched[0][fetched[2]])
        assert plain[3] == fetched[3]  # identical scanned accounting


class TestResolveBin:
    def test_plain_cases(self):
        assert resolve_bin(1.0, 0.5) == 2
        assert resolve_bin(0.49, 0.5) == 0
        assert resolve_bin(0.51, 0.5) == 1

    def test_invariant_holds_on_random_pairs(self, rng):
        for _ in range(500):
            w = float(rng.uniform(0.01, 3.0))
            dc = float(rng.uniform(0.001, 50.0))
            t = resolve_bin(dc, w)
            assert w * t <= dc < w * (t + 1)


class TestChRhoFromHistograms:
    def test_matches_plain_searchsorted(self, rng):
        """The histogram-guided search equals a full binary search per row."""
        n = 45
        offsets, dists = random_csr(rng, n, max_len=30, allow_empty=False)
        w = 0.9
        lengths = np.diff(offsets)
        n_bins = np.array(
            [int(np.floor(dists[offsets[p + 1] - 1] / w)) + 1 for p in range(n)],
            dtype=np.int64,
        )
        edges = w * np.arange(1, int(n_bins.max()) + 1, dtype=np.float64)
        h_off, h_val = build_row_histograms(dists, offsets, n_bins, edges)
        h_val[h_off[1:] - 1] = lengths  # last bin covers the whole row
        for dc in (0.3, 0.9, 2.45, 7.0, 100.0):
            rho, scanned, searches = ch_rho_from_histograms(
                h_off, h_val, dists, offsets[:-1], dc, w
            )
            expected = [
                np.searchsorted(dists[offsets[p] : offsets[p + 1]], dc) for p in range(n)
            ]
            np.testing.assert_array_equal(rho, expected, err_msg=f"dc={dc}")
            assert scanned >= 0 and searches >= 0


class TestPeakDeltaSweep:
    def test_hand_computed_maxima(self):
        from repro.geometry.distance import get_metric
        from repro.indexes.base import IndexStats
        from repro.indexes.kernels import peak_delta_sweep

        points = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0], [0.0, 1.0]])
        stats = IndexStats()
        out = peak_delta_sweep(points, np.array([0, 2]), get_metric("euclidean"), stats)
        # Farthest from (0,0) is (6,8) at 10; farthest from (6,8) is (0,0).
        np.testing.assert_allclose(out, [10.0, 10.0])
        assert stats.distance_evals == 2 * 4

    def test_empty_and_blocked(self):
        from repro.geometry.distance import get_metric
        from repro.indexes.kernels import peak_delta_sweep

        points = np.arange(20, dtype=np.float64).reshape(10, 2)
        assert len(peak_delta_sweep(points, np.array([], dtype=np.int64),
                                    get_metric("euclidean"))) == 0
        # Tiny block size forces multiple cross slabs; same values.
        full = peak_delta_sweep(points, np.arange(10), get_metric("euclidean"))
        tiny = peak_delta_sweep(points, np.arange(10), get_metric("euclidean"),
                                block_elems=4)
        np.testing.assert_array_equal(full, tiny)


class TestFlatTree:
    def _two_leaf_tree(self):
        from repro.indexes.treebase import TreeNode

        left = TreeNode(np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                        ids=np.array([0, 1]))
        right = TreeNode(np.array([4.0, 0.0]), np.array([5.0, 1.0]),
                         ids=np.array([2, 3]))
        root = TreeNode(np.array([0.0, 0.0]), np.array([5.0, 1.0]),
                        children=[left, right])
        root.finalize_counts()
        return root

    def test_flatten_layout(self):
        from repro.indexes.kernels import flatten_tree

        flat = flatten_tree(self._two_leaf_tree())
        assert flat.n_nodes == 3
        assert flat.levels == [(0, 1), (1, 3)]
        np.testing.assert_array_equal(flat.child_count, [2, 0, 0])
        assert flat.child_start[0] == 1
        np.testing.assert_array_equal(flat.nc, [4, 2, 2])
        np.testing.assert_array_equal(flat.leaf_ids, [0, 1, 2, 3])
        np.testing.assert_array_equal(flat.leaf_node_of, [1, 1, 2, 2])

    def test_flat_maxrho_hand_computed(self):
        from repro.indexes.kernels import flat_tree_maxrho, flatten_tree

        flat = flatten_tree(self._two_leaf_tree())
        rho_rows = np.array([[5, 1, 7, 2], [1, 1, 1, 9]], dtype=np.int64)
        maxrho = flat_tree_maxrho(flat, rho_rows)
        np.testing.assert_array_equal(maxrho, [[7, 5, 7], [9, 1, 9]])


class TestTreeDeltaBatched:
    def test_hand_computed_two_leaf_tree(self):
        from repro.geometry.distance import get_metric
        from repro.indexes.base import IndexStats
        from repro.indexes.kernels import flatten_tree, tree_delta_batched

        from repro.indexes.treebase import TreeNode

        pts = np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0], [5.0, 0.0]])
        left = TreeNode(pts[0], pts[1], ids=np.array([0, 1]))
        right = TreeNode(pts[2], pts[3], ids=np.array([2, 3]))
        root = TreeNode(pts[0], pts[3], children=[left, right])
        root.finalize_counts()
        flat = flatten_tree(root)
        rho = np.array([4, 3, 2, 1])
        order = DensityOrder(rho)
        delta, mu = tree_delta_batched(
            flat, pts,
            np.array([1, 2, 3]), np.zeros(3, dtype=np.int64),
            rho[None, :], order.rank[None, :],
            get_metric("euclidean"), IndexStats(),
        )
        # 1 -> 0 (dist 1); 2 -> 1 (dist 3); 3 -> 2 (dist 1).
        np.testing.assert_array_equal(mu, [0, 1, 2])
        np.testing.assert_allclose(delta, [1.0, 3.0, 1.0])

    def test_distance_tie_resolves_to_smaller_id(self):
        from repro.geometry.distance import get_metric
        from repro.indexes.base import IndexStats
        from repro.indexes.kernels import flatten_tree, tree_delta_batched
        from repro.indexes.treebase import TreeNode

        # Object 2 sits exactly between denser objects 0 and 1, one per leaf.
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
        left = TreeNode(np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                        ids=np.array([0, 2]))
        right = TreeNode(np.array([2.0, 0.0]), np.array([2.0, 0.0]),
                         ids=np.array([1]))
        root = TreeNode(np.array([0.0, 0.0]), np.array([2.0, 0.0]),
                        children=[left, right])
        root.finalize_counts()
        rho = np.array([5, 5, 1])
        order = DensityOrder(rho)
        delta, mu = tree_delta_batched(
            flatten_tree(root), pts,
            np.array([1, 2]), np.zeros(2, dtype=np.int64),
            rho[None, :], order.rank[None, :],
            get_metric("euclidean"), IndexStats(),
        )
        # Results align with qid = [1, 2]: row 0 is object 1, row 1 object 2.
        assert mu[0] == 0 and delta[0] == 2.0   # tie on rho: smaller id denser
        assert mu[1] == 0 and delta[1] == 1.0   # equidistant: smaller id wins

    def test_multi_order_rows_are_independent(self):
        from repro.geometry.distance import get_metric
        from repro.indexes.base import IndexStats
        from repro.indexes.kernels import flatten_tree, tree_delta_batched
        from repro.indexes.treebase import TreeNode

        pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        leaf = TreeNode(pts[0], pts[2], ids=np.array([0, 1, 2]))
        leaf.finalize_counts()
        flat = flatten_tree(leaf)
        rho_rows = np.array([[3, 2, 1], [1, 2, 3]])
        orders = [DensityOrder(r) for r in rho_rows]
        key_rows = np.stack([o.rank for o in orders])
        delta, mu = tree_delta_batched(
            flat, pts,
            np.array([1, 2, 0, 1]), np.array([0, 0, 1, 1]),
            rho_rows, key_rows, get_metric("euclidean"), IndexStats(),
        )
        # Order 0 (densest first): 1 -> 0, 2 -> 1.  Order 1 (reversed):
        # 0 -> 1, 1 -> 2.
        np.testing.assert_array_equal(mu, [0, 1, 1, 2])
        np.testing.assert_allclose(delta, [1.0, 2.0, 1.0, 2.0])


class TestGridDeltaBatched:
    def test_matches_scalar_reference_on_blobs(self):
        from repro.core.baseline import naive_quantities
        from repro.indexes.grid import GridIndex

        rng = np.random.default_rng(3)
        pts = np.round(rng.uniform(0, 6, (150, 2)) * 3) / 3
        base = naive_quantities(pts, 0.8)
        got = GridIndex(cell_size=0.7).fit(pts).quantities(0.8)
        np.testing.assert_array_equal(base.delta, got.delta)
        np.testing.assert_array_equal(base.mu, got.mu)

    def test_single_occupied_cell(self):
        from repro.indexes.grid import GridIndex

        pts = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        q = GridIndex(cell_size=5.0).fit(pts).quantities(1.0)
        # Coincident ties all resolve to the smallest denser id.
        np.testing.assert_array_equal(q.mu, [NO_NEIGHBOR, 0, 0])


class TestTreeRhoBatched:
    def test_contained_node_adds_wholesale(self):
        from repro.geometry.distance import get_metric
        from repro.indexes.base import IndexStats
        from repro.indexes.kernels import flatten_tree, tree_rho_batched
        from repro.indexes.treebase import TreeNode

        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [9.0, 9.0]])
        left = TreeNode(np.array([0.0, 0.0]), np.array([0.1, 0.1]),
                        ids=np.array([0, 1, 2]))
        right = TreeNode(pts[3], pts[3], ids=np.array([3]))
        root = TreeNode(np.array([0.0, 0.0]), np.array([9.0, 9.0]),
                        children=[left, right])
        root.finalize_counts()
        stats = IndexStats()
        counts = tree_rho_batched(
            flatten_tree(root), pts, 1.0, get_metric("euclidean"), stats
        )
        np.testing.assert_array_equal(counts, [2, 2, 2, 0])
        # Objects 0-2 fully contain the left leaf in their query circle;
        # object 3 fully contains the (degenerate) right leaf.
        assert stats.nodes_contained == 4

    def test_oversized_leaf_spans_rows_with_bounded_memory(self):
        """3,000 copies of one point fill a single max-depth quadtree leaf.

        Leaf scans read fixed-width rows as wide as the median leaf, so the
        big leaf spans many rows instead of widening every row to its size
        (which peaked at 2.9 GB on this input).
        """
        import tracemalloc

        from repro.core.baseline import naive_quantities
        from repro.indexes.base import IndexStats
        from repro.indexes.quadtree import QuadtreeIndex

        from tests.tree_rho_reference import reference_tree_rho

        rng = np.random.default_rng(8)
        pts = np.concatenate([np.full((3000, 2), 0.3), rng.uniform(0, 1, (2000, 2))])
        index = QuadtreeIndex(capacity=8).fit(pts)
        flat = index._flat_tree()
        assert flat.leaf_size.max() == 3000
        dc = 0.05
        np.testing.assert_array_equal(index.rho_all(dc), naive_quantities(pts, dc).rho)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        grouped = peak(lambda: index.rho_all(dc))
        stats = IndexStats()
        reference = peak(
            lambda: reference_tree_rho(flat, index.points, dc, index.metric, stats)
        )
        assert grouped <= 2 * reference, (grouped, reference)
