"""Unit tests for the shared vectorized query kernels."""

import numpy as np
import pytest

from repro.core.quantities import NO_NEIGHBOR, DensityOrder
from repro.indexes.kernels import (
    bin_edges,
    bounded_searchsorted,
    histogram_sections,
    prefetch_scan_block,
    scan_first_denser,
    target_bins,
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

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_every_row_length_with_ties(self, rng, side):
        """Rows of every length 0-40 side by side in one CSR array (so the
        longest row sets the pass count for all), tied values and needles
        equal to them, below the first and above the last entry: a scalar
        needle, one needle per row, and a needle grid."""
        lengths = np.repeat(np.arange(41), 3)
        rng.shuffle(lengths)
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        flat = rng.integers(0, 5, size=int(offsets[-1])).astype(np.float64)
        for p in range(len(lengths)):
            flat[offsets[p] : offsets[p + 1]].sort()
        starts, stops = offsets[:-1], offsets[1:]
        grid = rng.integers(-1, 6, size=(len(lengths), 9)).astype(np.float64)
        got = bounded_searchsorted(flat, starts[:, None], stops[:, None], grid, side)
        per_row = bounded_searchsorted(flat, starts, stops, grid[:, 0], side)
        shared = bounded_searchsorted(flat, starts[:, None], stops[:, None], grid[:1], side)
        for needle in (-1.0, 2.0, 4.0, 5.0):
            scalar = bounded_searchsorted(flat, starts, stops, needle, side)
            for p in range(len(lengths)):
                row = flat[starts[p] : stops[p]]
                assert scalar[p] == starts[p] + np.searchsorted(row, needle, side)
        for p in range(len(lengths)):
            row = flat[starts[p] : stops[p]]
            msg = f"length {lengths[p]}"
            np.testing.assert_array_equal(
                got[p] - starts[p], np.searchsorted(row, grid[p], side), err_msg=msg
            )
            assert per_row[p] - starts[p] == np.searchsorted(row, grid[p, 0], side), msg
            np.testing.assert_array_equal(
                shared[p] - starts[p], np.searchsorted(row, grid[0], side), err_msg=msg
            )


class TestOneLengthRows:
    """:func:`bounded_searchsorted` over rows that all have one length (the
    complete N-Lists of the List and CH indexes), where it skips the
    per-pass check that a probe stays inside its row."""

    @staticmethod
    def padded_rows(rows):
        """The rows laid out with a gap of ±inf sentinels between them, so a
        probe that left its row would change the answer."""
        n, m = rows.shape
        flat = np.tile([-np.inf, -np.inf, np.inf], (n, 1))
        flat = np.concatenate([rows, flat], axis=1).reshape(-1)
        starts = np.arange(n, dtype=np.int64) * (m + 3)
        return flat, starts, starts + m

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_every_row_length_with_ties(self, rng, side):
        """Every row length 0-40, on and off powers of two, tied values and
        needles equal to them, below the first and above the last entry: a
        scalar needle, one needle per row, and a needle grid."""
        for m in range(41):
            rows = np.sort(rng.integers(0, 5, size=(7, m)).astype(np.float64), axis=1)
            flat, starts, stops = self.padded_rows(rows)
            col_starts, col_stops = starts[:, None], stops[:, None]
            grid = rng.integers(-1, 6, size=(7, 9)).astype(np.float64)
            got = bounded_searchsorted(flat, col_starts, col_stops, grid, side) - col_starts
            per_row = bounded_searchsorted(flat, starts, stops, grid[:, 0], side) - starts
            shared = bounded_searchsorted(flat, col_starts, col_stops, grid[:1], side)
            shared -= col_starts
            msg = f"m={m}"
            for p in range(7):
                np.testing.assert_array_equal(
                    got[p], np.searchsorted(rows[p], grid[p], side), err_msg=msg
                )
                assert per_row[p] == np.searchsorted(rows[p], grid[p, 0], side), msg
                np.testing.assert_array_equal(
                    shared[p], np.searchsorted(rows[p], grid[0], side), err_msg=msg
                )
            for needle in (-1.0, 2.0, 4.0, 5.0):
                scalar = bounded_searchsorted(flat, starts, stops, needle, side) - starts
                expected = [np.searchsorted(row, needle, side) for row in rows]
                np.testing.assert_array_equal(scalar, expected, err_msg=msg)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_the_bounds_checked_path(self, rng, side):
        """The same rows answer alike whether they all have one length (no
        bounds checks) or sit beside one longer row (bounds-checked)."""
        for m in range(41):
            rows = np.sort(rng.integers(0, 5, size=(7, m)).astype(np.float64), axis=1)
            flat, starts, stops = self.padded_rows(rows)
            grid = rng.integers(-1, 6, size=(7, 9)).astype(np.float64)
            one_length = bounded_searchsorted(flat, starts[:, None], stops[:, None], grid, side)
            ragged_flat = np.concatenate([flat, np.arange(m + 1, dtype=np.float64)])
            ragged_starts = np.append(starts, len(flat))[:, None]
            ragged_stops = np.append(stops, len(ragged_flat))[:, None]
            ragged = bounded_searchsorted(
                ragged_flat, ragged_starts, ragged_stops, np.vstack([grid, grid[:1]]), side
            )
            np.testing.assert_array_equal(one_length, ragged[:7], err_msg=f"m={m}")

    def test_continuous_values(self, rng):
        rows = np.sort(rng.uniform(0, 1, size=(30, 17)), axis=1)
        flat, starts, stops = self.padded_rows(rows)
        needles = rng.uniform(0, 1, size=30)
        got = bounded_searchsorted(flat, starts, stops, needles) - starts
        expected = [np.searchsorted(rows[p], needles[p]) for p in range(30)]
        np.testing.assert_array_equal(got, expected)

    def test_grid_with_as_many_needles_as_rows(self, rng):
        """A (1, n) grid against column offsets is a grid, not per-row needles."""
        rows = np.sort(rng.uniform(0, 1, size=(6, 10)), axis=1)
        flat, starts, stops = self.padded_rows(rows)
        dcs = np.linspace(0.1, 0.9, 6)
        got = bounded_searchsorted(flat, starts[:, None], stops[:, None], dcs[None, :])
        assert got.shape == (6, 6)
        for p in range(6):
            np.testing.assert_array_equal(got[p] - starts[p], np.searchsorted(rows[p], dcs))
        per_row = bounded_searchsorted(flat, starts, stops, dcs)
        assert per_row.shape == (6,)


def brute_first_denser(offsets, ids, dists, key):
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


class TestScanFirstDenser:

    @pytest.mark.parametrize("block", [1, 3, 32])
    def test_matches_bruteforce(self, rng, block):
        n = 50
        offsets, dists = random_csr(rng, n, max_len=12)
        ids = rng.integers(0, n, size=int(offsets[-1])).astype(np.int32)
        key = rng.permutation(n)
        delta, mu, resolved, scanned = scan_first_denser(offsets, ids, dists, key, block=block)
        b_delta, b_mu = brute_first_denser(offsets, ids, dists, key)
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


def long_rows(rng, n=120):
    """CSR rows of up to 2,500 entries where the first denser entry sits
    where the test wants it: most rows resolve in their first entries,
    some after hundreds or thousands of entries, some never (the global
    peak, and rows that hold no denser object at all).  Returns
    ``(offsets, ids, dists, key, resolve_at)`` with ``resolve_at[p]`` the
    row-local position of the first denser entry (-1: none)."""
    key = rng.permutation(n)
    lengths = rng.integers(0, 40, size=n)
    long = rng.choice(n, size=n // 4, replace=False)
    lengths[long] = rng.integers(1_000, 2_500, size=len(long))
    lengths[np.argmin(key)] = 2_400  # the global peak walks a long row
    resolve_at = np.where(rng.random(n) < 0.7, rng.integers(0, 8, size=n), -1)
    late = rng.choice(long, size=len(long) // 2, replace=False)
    resolve_at[late] = rng.integers(8, 2_500, size=len(late))
    ids_rows, dist_rows = [], []
    for p in range(n):
        no_denser = np.flatnonzero(key >= key[p])  # p itself and sparser
        denser = np.flatnonzero(key < key[p])
        if resolve_at[p] >= lengths[p] or len(denser) == 0:
            resolve_at[p] = -1
        row = no_denser[rng.integers(0, len(no_denser), size=lengths[p])]
        if resolve_at[p] >= 0:
            r = resolve_at[p]
            row[r] = rng.choice(denser)
            row[r + 1 :] = rng.integers(0, n, size=lengths[p] - r - 1)
        ids_rows.append(row)
        dist_rows.append(np.sort(rng.uniform(0, 10, size=lengths[p])))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    ids = np.concatenate(ids_rows).astype(np.int32)
    return offsets, ids, np.concatenate(dist_rows), key, resolve_at


def geometric_scanned(lengths, resolve_at, block, prefetch):
    """The documented slot count: every slot of every block a row takes
    part in, up to its end; blocks start at the prefetch width and are
    each as wide as the columns before them, at least ``block``."""
    total = 0
    for length, r in zip(lengths, resolve_at):
        stop = prefetch if prefetch else block
        while 0 <= stop <= r:
            stop += max(block, stop)
        total += min(length, stop) if r >= 0 else length
    return total


class TestScanFirstDenserLongRows:
    """Rows long enough that the geometric blocks grow far past ``block``."""

    @pytest.mark.parametrize("block", [1, 5, 32])
    @pytest.mark.parametrize("prefetch", [0, 8])
    def test_matches_bruteforce(self, rng, block, prefetch):
        offsets, ids, dists, key, resolve_at = long_rows(rng)
        pre = prefetch_scan_block(offsets, ids, dists, prefetch) if prefetch else None
        delta, mu, resolved, scanned = scan_first_denser(
            offsets, ids, dists, key, block=block, prefetch=pre
        )
        b_delta, b_mu = brute_first_denser(offsets, ids, dists, key)
        np.testing.assert_array_equal(mu, b_mu)
        np.testing.assert_array_equal(resolved, resolve_at >= 0)
        np.testing.assert_array_equal(delta[resolved], b_delta[resolved])
        assert (resolve_at >= 1_000).any()  # some rows resolve late
        assert scanned == geometric_scanned(np.diff(offsets), resolve_at, block, prefetch)

    @pytest.mark.parametrize("prefetch", [0, 8])
    def test_row_splits_reproduce_the_whole_table(self, rng, prefetch):
        """Random row subsets, scanned on their own (the sharded backends'
        shape), give the whole-table answers, and their slot counts sum to
        the whole-table count."""
        offsets, ids, dists, key, _ = long_rows(rng)
        n = len(offsets) - 1

        def scan(off, row_ids, row_dists, qid):
            pre = prefetch_scan_block(off, row_ids, row_dists, prefetch) if prefetch else None
            return scan_first_denser(off, row_ids, row_dists, key, prefetch=pre, qid=qid)

        whole = scan(offsets, ids, dists, None)
        for _ in range(3):
            parts = np.array_split(rng.permutation(n), int(rng.integers(2, 6)))
            delta = np.empty(n)
            mu = np.empty(n, dtype=np.int64)
            scanned = 0
            for qid in parts:
                lengths = np.diff(offsets)[qid]
                off = np.zeros(len(qid) + 1, dtype=np.int64)
                np.cumsum(lengths, out=off[1:])
                slots = np.concatenate(
                    [np.arange(offsets[p], offsets[p + 1]) for p in qid]
                ).astype(np.int64)
                d, m, _, c = scan(off, ids[slots], dists[slots], qid)
                delta[qid], mu[qid] = d, m
                scanned += c
            np.testing.assert_array_equal(mu, whole[1])
            np.testing.assert_array_equal(delta[whole[2]], whole[0][whole[2]])
            assert scanned == whole[3]


class TestTargetBins:
    def test_plain_cases(self):
        bins, on_edge = target_bins(bin_edges(0.5, 8), [1.0, 0.49, 0.51])
        np.testing.assert_array_equal(bins, [2, 0, 1])
        np.testing.assert_array_equal(on_edge, [True, False, False])

    def test_invariant_holds_on_random_pairs(self, rng):
        """``fl(w·t) <= dc < fl(w·(t+1))``, with ``dc`` on the stored edge
        exactly when ``fl(w·t) == dc``."""
        for _ in range(500):
            w = float(rng.uniform(0.01, 3.0))
            dc = float(rng.uniform(0.001, 50.0))
            [t], [on_edge] = target_bins(bin_edges(w, int(50.0 / w) + 2), [dc])
            assert w * t <= dc < w * (t + 1)
            assert on_edge == (t > 0 and w * t == dc)

    def test_invariant_holds_on_and_beside_stored_edges(self, rng):
        """Cut-offs on a stored edge and one ulp either side, where the
        quotient ``floor(dc / w)`` can miss the stored edge by one."""
        for _ in range(300):
            w = float(rng.uniform(0.01, 3.0))
            k = int(rng.integers(1, 200))
            edges = bin_edges(w, 201)
            for dc in (w * k, float(np.nextafter(w * k, 0.0)), float(np.nextafter(w * k, np.inf))):
                [t], [on_edge] = target_bins(edges, [dc])
                assert w * t <= dc < w * (t + 1)
                assert on_edge == (w * t == dc)

    @pytest.mark.parametrize("w", [1e-3, 0.37])
    @pytest.mark.parametrize("dc", [1.234e30, 1e200, float(np.finfo(np.float64).max)])
    def test_astronomical_or_overflowing_quotient_lies_past_the_grid(self, w, dc):
        """``dc / w`` beyond 2^52, or overflowing to inf: one binary search
        lands past the last stored edge."""
        [t], [on_edge] = target_bins(bin_edges(w, 129), [dc])
        assert t == 129 and not on_edge


def row_histograms(offsets, dists, w):
    """Algorithm 3, row by row: bin k counts the entries below the stored
    edge fl(w·(k+1)), and the last bin covers the whole row."""
    n = len(offsets) - 1
    n_bins = np.array(
        [int(np.floor(dists[offsets[p + 1] - 1] / w)) + 1 for p in range(n)], dtype=np.int64
    )
    edges = bin_edges(w, int(n_bins.max()))
    h_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_bins, out=h_off[1:])
    h_val = np.concatenate(
        [np.searchsorted(dists[offsets[p] : offsets[p + 1]], edges[: n_bins[p]]) for p in range(n)]
    )
    h_val[h_off[1:] - 1] = np.diff(offsets)
    return h_off, h_val


class TestHistogramSections:
    def test_section_search_matches_plain_searchsorted(self, rng):
        """The histogram-guided search equals a full binary search per row,
        for cut-offs in the first bin, mid-bin, on stored edges, on the
        last edges and past every bin, in one call."""
        n = 45
        offsets, dists = random_csr(rng, n, max_len=30, allow_empty=False)
        w = 0.9
        h_off, h_val = row_histograms(offsets, dists, w)
        max_bins = int(np.diff(h_off).max())
        edges = bin_edges(w, max_bins + 1)
        dcs = np.concatenate([[0.3, 2.45, 7.0, 100.0], edges])
        bins, on_edge = target_bins(edges, dcs)
        first, last = histogram_sections(h_off, h_val, bins, on_edge)
        lengths = np.diff(offsets)[:, None]
        assert ((0 <= first) & (first <= last) & (last <= lengths)).all()
        starts = offsets[:-1, None]
        pos = bounded_searchsorted(dists, starts + first, starts + last, dcs[None, :])
        expected = [np.searchsorted(dists[offsets[p] : offsets[p + 1]], dcs) for p in range(n)]
        np.testing.assert_array_equal(pos - starts, expected)

    def test_empty_where_a_bin_holds_the_answer(self):
        """One row ``[0.1, 0.5, 1.0, 1.0]`` with w = 0.5: bins count
        ``[1, 2, 4]`` (the last forced).  On an edge below the last bin and
        past the last bin the section is empty at the answer; on the last
        bin's own edge the ties at 1.0 < 1.5 are still searched."""
        h_off, h_val = np.array([0, 3]), np.array([1, 2, 4])
        dcs = [0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 1e300]
        bins, on_edge = target_bins(bin_edges(0.5, 4), dcs)
        first, last = histogram_sections(h_off, h_val, bins, on_edge)
        np.testing.assert_array_equal(first, [[0, 1, 1, 2, 2, 4, 4]])
        np.testing.assert_array_equal(last, [[1, 1, 2, 2, 4, 4, 4]])

    def test_a_row_subset_decides_like_the_whole_table(self, rng):
        """A contiguous slice of the histogram offsets (one execution chunk)
        gets the rows' own sections."""
        offsets, dists = random_csr(rng, 60, max_len=30, allow_empty=False)
        h_off, h_val = row_histograms(offsets, dists, 0.7)
        bins, on_edge = target_bins(bin_edges(0.7, int(np.diff(h_off).max()) + 1),
                                    [0.2, 1.4, 3.33, 9.9, 50.0])
        whole = histogram_sections(h_off, h_val, bins, on_edge)
        for a, b in ((0, 1), (3, 17), (17, 60)):
            part = histogram_sections(h_off[a : b + 1], h_val, bins, on_edge)
            for got, want in zip(part, whole):
                np.testing.assert_array_equal(got, want[a:b])


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
