"""Unit tests for the Cumulative Histogram Index (paper Algorithms 3–4)."""

import numpy as np
import pytest

from repro.core.baseline import naive_quantities
from repro.geometry.distance import get_metric
from repro.indexes.ch_index import CHIndex
from repro.indexes.list_index import ListIndex
from repro.indexes.rn_list import RNCHIndex

from tests.conftest import assert_quantities_equal, safe_dc


def adversarial_edge_pair(seed=0):
    """A (w, dc, d) triple where the *quotient* claims dc sits on a bin edge
    (``dc / w`` is exactly integral) but the *stored* edge ``fl(w·t)`` is a
    different float, and the metric realises a distance ``d`` exactly between
    the two — so trusting the bin value flips a strict ``dist < dc`` count.
    """
    rng = np.random.default_rng(seed)
    metric = get_metric("euclidean")
    while True:
        w = float(rng.uniform(0.05, 2.0))
        t = int(rng.integers(1, 40))
        edge = w * t
        for dc in (float(np.nextafter(edge, np.inf)), float(np.nextafter(edge, -np.inf))):
            if dc <= 0 or w * t == dc or dc / w != float(t):
                continue
            d = min(dc, edge)
            probe = np.array([[0.0, 0.0], [d, 0.0]])
            if metric.cross(probe[:1], probe[1:])[0, 0] == d:
                return w, dc, d


def adversarial_last_edge_pair(seed=0):
    """A (w, dc) pair where dc equals the farthest neighbour's distance AND
    the stored *last* bin edge ``fl(w·k)``, while ``floor(dc/w) == k-1`` —
    so the histogram has exactly ``k`` bins and a careless "dc beyond the
    last bin" shortcut would count the tie at ``dist == dc``.
    """
    rng = np.random.default_rng(seed)
    metric = get_metric("euclidean")
    while True:
        w = float(rng.uniform(0.05, 2.0))
        k = int(rng.integers(2, 40))
        dc = w * k
        if dc <= 0 or int(np.floor(dc / w)) != k - 1:
            continue
        probe = np.array([[0.0, 0.0], [dc, 0.0]])
        if metric.cross(probe[:1], probe[1:])[0, 0] == dc:
            return w, dc


@pytest.fixture
def fitted(blobs):
    return CHIndex(bin_width=0.8).fit(blobs)


class TestHistogramConstruction:
    def test_bins_cover_whole_nlist(self, fitted, blobs):
        """The last bin of every object holds the full list length."""
        n = len(blobs)
        for p in range(0, n, 23):
            start = fitted._hist_offsets[p]
            stop = fitted._hist_offsets[p + 1]
            assert fitted._hist_values[stop - 1] == n - 1

    def test_bins_monotone_nondecreasing(self, fitted, blobs):
        for p in range(0, len(blobs), 23):
            start = fitted._hist_offsets[p]
            stop = fitted._hist_offsets[p + 1]
            values = fitted._hist_values[start:stop]
            assert (np.diff(values) >= 0).all()

    def test_bin_value_equals_count_below_edge(self, fitted, blobs):
        """Bin k stores |{q : dist(p,q) < (k+1)w}| (Algorithm 3 semantics)."""
        w = fitted.bin_width
        for p in (0, 41, 100):
            start = fitted._hist_offsets[p]
            nbins = fitted.n_bins_of(p)
            dists = fitted.neighbor_dists[p]
            for k in range(min(nbins - 1, 5)):
                expected = int((dists < (k + 1) * w).sum())
                assert fitted._hist_values[start + k] == expected

    @staticmethod
    def assert_histograms_match_row_searches(index, rows, w):
        """Every bin of every row equals a per-row ``np.searchsorted`` of
        its edge ``w·(k+1)``; the last bin holds the whole row."""
        offsets, values = index._hist_offsets, index._hist_values
        for p, row in enumerate(rows):
            nb = int(offsets[p + 1] - offsets[p])
            expected = np.searchsorted(row, w * np.arange(1, nb + 1, dtype=np.float64))
            expected[-1] = len(row)
            np.testing.assert_array_equal(values[offsets[p] : offsets[p + 1]], expected)

    @pytest.mark.parametrize("w", [None, 0.8, 0.011])
    def test_every_bin_matches_per_row_searchsorted(self, blobs, w):
        points = np.concatenate([blobs, blobs[:40]])  # duplicate distances
        index = CHIndex(bin_width=w).fit(points)
        rows = index.neighbor_dists
        assert index.n_bins_of(0) == int(np.floor(rows[0, -1] / index.bin_width_)) + 1
        self.assert_histograms_match_row_searches(index, rows, index.bin_width_)

    @pytest.mark.parametrize("tau, w", [(1.0, None), (2.5, 0.013), (0.05, 0.02)])
    def test_rn_ch_bins_match_per_row_searchsorted(self, blobs, tau, w):
        """The truncated rows, empty ones included (tiny τ)."""
        index = RNCHIndex(tau=tau, bin_width=w).fit(np.concatenate([blobs, blobs[:40]]))
        offsets, dists = index._offsets, index._dists
        rows = [dists[offsets[p] : offsets[p + 1]] for p in range(index.n)]
        if tau < 0.1:
            assert any(len(row) == 0 for row in rows)
        self.assert_histograms_match_row_searches(index, rows, index.bin_width_)

    @pytest.mark.parametrize("make", [lambda: CHIndex(bin_width=0.05),
                                      lambda: RNCHIndex(tau=2.0, bin_width=0.05)])
    def test_row_blocks_do_not_change_the_histograms(self, blobs, monkeypatch, make):
        from repro.indexes import ch_index

        whole = make().fit(blobs)
        monkeypatch.setattr(ch_index, "_HIST_BLOCK_ELEMS", 7)  # one row per block
        blocked = make().fit(blobs)
        np.testing.assert_array_equal(blocked._hist_offsets, whole._hist_offsets)
        np.testing.assert_array_equal(blocked._hist_values, whole._hist_values)

    def test_append_rebuilds_the_fresh_fit_histograms(self, blobs):
        grown = CHIndex().fit(blobs[:200])
        grown.add_points(blobs[200:260])
        grown.add_points(blobs[260:] * 1.5)  # grows the diameter and w
        fresh = CHIndex().fit(np.concatenate([blobs[:260], blobs[260:] * 1.5]))
        assert grown.bin_width_ == fresh.bin_width_
        np.testing.assert_array_equal(grown._hist_offsets, fresh._hist_offsets)
        np.testing.assert_array_equal(grown._hist_values, fresh._hist_values)

    def test_auto_bin_width(self, blobs):
        index = CHIndex(default_bins=64).fit(blobs)
        # Configured width stays None (auto); the fit resolves bin_width_.
        assert index.bin_width is None
        assert index.bin_width_ is not None and index.bin_width_ > 0
        diameter = index.neighbor_dists[:, -1].max()
        assert index.bin_width_ == pytest.approx(diameter / 64)

    def test_auto_bin_width_re_resolved_on_refit(self, blobs):
        """Refitting on different data must not reuse the first fit's w."""
        index = CHIndex(default_bins=64).fit(blobs)
        w_first = index.bin_width_
        index.fit(blobs * 40.0)  # 40x the diameter => 40x the auto width
        assert index.bin_width is None
        assert index.bin_width_ == pytest.approx(w_first * 40.0)
        base = naive_quantities(blobs * 40.0, 12.0)
        np.testing.assert_array_equal(index.rho_all(12.0), base.rho)

    def test_explicit_bin_width_survives_refit(self, blobs):
        index = CHIndex(bin_width=0.8).fit(blobs)
        index.fit(blobs * 3.0)
        assert index.bin_width == 0.8
        assert index.bin_width_ == 0.8

    def test_smaller_w_means_more_bins(self, blobs):
        coarse = CHIndex(bin_width=1.0).fit(blobs)
        fine = CHIndex(bin_width=0.25).fit(blobs)
        assert fine.n_bins_of(0) > coarse.n_bins_of(0)
        assert fine.histogram_memory_bytes() > coarse.histogram_memory_bytes()

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="bin_width"):
            CHIndex(bin_width=0.0)
        with pytest.raises(ValueError, match="default_bins"):
            CHIndex(default_bins=0)

    @pytest.mark.parametrize("make", [lambda: CHIndex(), lambda: RNCHIndex(tau=1.0)],
                             ids=["ch", "rn-ch"])
    def test_coincident_points_answer_like_the_oracle(self, make):
        """A zero diameter leaves every row one forced bin, which any width
        keeps exact: ρ = n − 1 for every cut-off, as on every family."""
        pts = np.zeros((20, 2))
        index = make().fit(pts)
        assert index.bin_width_ > 0
        for dc in (1e-9, 0.5, 1.0, 2.0, 1e300):
            assert_quantities_equal(naive_quantities(pts, dc), index.quantities(dc))


class TestRhoQuery:
    def test_matches_list_index(self, blobs, fitted):
        list_index = ListIndex().fit(blobs)
        for dc in (0.11, 0.5, 1.7, 4.0, safe_dc(blobs, 0.6)):
            np.testing.assert_array_equal(
                fitted.rho_all(dc), list_index.rho_all(dc), err_msg=f"dc={dc}"
            )

    def test_dc_on_exact_bin_edge(self, blobs):
        """Algorithm 4 line 5-6: dc == k·w answers straight from the bin."""
        index = CHIndex(bin_width=0.5).fit(blobs)
        base = naive_quantities(blobs, 1.0).rho  # dc = 2 * w exactly
        index.reset_stats()
        np.testing.assert_array_equal(index.rho_all(1.0), base)
        assert index.stats().binary_searches == 0  # no section search at all

    def test_dc_beyond_last_bin(self, blobs, fitted):
        assert (fitted.rho_all(1e9) == len(blobs) - 1).all()

    def test_astronomical_dc_answers_fast(self, blobs, fitted):
        """dc/w past 2^52 must stay O(1) (regression: the ulp-correction
        loop in resolve_bin walked the gap one w at a time and hung)."""
        for dc in (1.234e30, 1e200, float(np.finfo(np.float64).max)):
            assert (fitted.rho_all(dc) == len(blobs) - 1).all()

    def test_dc_in_first_bin(self, blobs):
        index = CHIndex(bin_width=5.0).fit(blobs)  # everything in bin 0
        base = naive_quantities(blobs, 0.5).rho
        np.testing.assert_array_equal(index.rho_all(0.5), base)

    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_bin_edge_fp_mismatch_regression(self, seed):
        """dc/w exactly integral must not shortcut to the bin value unless
        the stored edge reproduces dc bit-for-bit (strict dist < dc)."""
        w, dc, d = adversarial_edge_pair(seed)
        pts = np.array(
            [
                [0.0, 0.0],
                [d, 0.0],  # exactly between dc and the stored edge fl(w·t)
                [-3.0 * dc, 0.1],
                [d + 3.0 * dc, -0.2],
                [2.0 * dc, 5.0 * dc],
            ]
        )
        base = naive_quantities(pts, dc)
        ch = CHIndex(bin_width=w).fit(pts)
        np.testing.assert_array_equal(ch.rho_all(dc), base.rho)
        rnch = RNCHIndex(tau=20.0 * dc, bin_width=w).fit(pts)
        np.testing.assert_array_equal(rnch.rho_all(dc), base.rho)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_dc_at_stored_last_edge_excludes_ties(self, seed):
        """dc == fl(w·n_bins) with a neighbour at exactly that distance:
        the full-list shortcut must not swallow the strict dist < dc tie."""
        w, dc = adversarial_last_edge_pair(seed)
        pts = np.array([[0.0, 0.0], [dc, 0.0], [dc / 2.0, 0.0]])
        base = naive_quantities(pts, dc)
        ch = CHIndex(bin_width=w).fit(pts)
        np.testing.assert_array_equal(ch.rho_all(dc), base.rho)
        rnch = RNCHIndex(tau=2.0 * dc, bin_width=w).fit(pts)
        np.testing.assert_array_equal(rnch.rho_all(dc), base.rho)

    def test_searches_smaller_sections_than_list(self, blobs):
        """The whole point of CH: far fewer objects touched per ρ query."""
        w = 0.3
        ch = CHIndex(bin_width=w).fit(blobs)
        ch.reset_stats()
        ch.rho_all(0.5)
        scanned_ch = ch.stats().objects_scanned
        # Each section is at most one bin of the N-List; with w=0.3 over this
        # data a bin holds far fewer than n-1 entries.
        assert scanned_ch < len(blobs) * 40


class TestMixedCutoffSweep:
    """One ``rho_all_multi`` call mixes every kind of cut-off: in the first
    bin, mid-bin, on a stored edge, on a row's forced last edge, past every
    histogram and (RN-CH) beyond τ; each row's ρ is its own
    ``np.searchsorted``, whatever the chunking."""

    @staticmethod
    def cutoffs(index):
        w = index.bin_width_
        sizes = np.diff(index._hist_offsets)
        last_edge = w * float(sizes.min())  # a forced last edge of some row
        return [
            0.3 * w,
            3.4 * w,
            w * 3.0,
            float(np.nextafter(w * 5.0, 0.0)),
            float(np.nextafter(w * 5.0, np.inf)),
            last_edge,
            w * float(sizes.max() + 1),
            2.0 * float(index._dists.max()),
            1e300,
        ]

    @pytest.mark.parametrize(
        "make",
        [lambda: CHIndex(bin_width=0.3), lambda: CHIndex(),
         lambda: RNCHIndex(tau=1.5, bin_width=0.3), lambda: RNCHIndex(tau=1.5)],
        ids=["ch-w", "ch-auto", "rn-ch-w", "rn-ch-auto"],
    )
    def test_every_kind_of_cutoff_in_one_call(self, blobs, make):
        points = np.concatenate([blobs, blobs[:30]])  # duplicate distances
        index = make().fit(points)
        dcs = self.cutoffs(index)
        if isinstance(index, RNCHIndex):
            dcs += [index.tau, 1.2 * index.tau]
        offsets, dists = index._offsets, index._dists
        expected = np.array([
            [np.searchsorted(dists[offsets[p] : offsets[p + 1]], dc) for p in range(index.n)]
            for dc in dcs
        ])
        index.reset_stats()
        np.testing.assert_array_equal(index.rho_all_multi(dcs), expected)
        whole = index.stats().as_dict()
        for chunk in (1, 7, 64):
            index.set_execution(chunk_size=chunk)
            index.reset_stats()
            np.testing.assert_array_equal(index.rho_all_multi(dcs), expected)
            assert index.stats().as_dict() == whole, f"chunk_size={chunk}"


class TestFullPipeline:
    def test_quantities_match_naive(self, blobs, fitted):
        base = naive_quantities(blobs, 0.5)
        assert_quantities_equal(base, fitted.quantities(0.5))

    def test_memory_is_list_plus_histograms(self, blobs, fitted):
        list_bytes = ListIndex().fit(blobs).memory_bytes()
        assert fitted.memory_bytes() == list_bytes + fitted.histogram_memory_bytes()
        assert fitted.histogram_memory_bytes() > 0

    def test_histogram_memory_zero_before_fit(self):
        assert CHIndex().histogram_memory_bytes() == 0
