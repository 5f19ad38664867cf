"""Unit tests for the approximate RN-List / RN-CH indexes (paper §3.3)."""

import numpy as np
import pytest

from repro.core.baseline import naive_quantities
from repro.core.quantities import NO_NEIGHBOR
from repro.indexes.list_index import ListIndex
from repro.indexes.rn_list import RNCHIndex, RNListIndex

from tests.conftest import assert_quantities_equal


@pytest.fixture
def tau(blobs):
    return 1.5  # well above the dc used in tests, well below the diameter


@pytest.fixture
def fitted(blobs, tau):
    return RNListIndex(tau=tau).fit(blobs)


class TestTruncation:
    def test_rows_only_contain_neighbors_within_tau(self, blobs, fitted, tau):
        for p in range(0, len(blobs), 41):
            start, stop = fitted._offsets[p], fitted._offsets[p + 1]
            assert (fitted._dists[start:stop] < tau).all()

    def test_rows_sorted(self, fitted, blobs):
        for p in range(0, len(blobs), 41):
            start, stop = fitted._offsets[p], fitted._offsets[p + 1]
            row = fitted._dists[start:stop]
            assert (np.diff(row) >= 0).all()

    def test_row_lengths_match_rho_at_tau(self, blobs, fitted, tau):
        np.testing.assert_array_equal(
            fitted.row_lengths(), naive_quantities(blobs, tau).rho
        )

    def test_memory_smaller_than_full_list(self, blobs, fitted):
        assert fitted.memory_bytes() < ListIndex().fit(blobs).memory_bytes()

    def test_smaller_tau_smaller_memory(self, blobs):
        big = RNListIndex(tau=2.0).fit(blobs)
        small = RNListIndex(tau=0.5).fit(blobs)
        assert small.memory_bytes() < big.memory_bytes()

    def test_invalid_tau(self):
        with pytest.raises(ValueError, match="tau"):
            RNListIndex(tau=0.0)


class TestExactWhileDcBelowTau:
    def test_rho_exact(self, blobs, fitted):
        for dc in (0.2, 0.5, 1.0, 1.49):
            np.testing.assert_array_equal(
                fitted.rho_all(dc), naive_quantities(blobs, dc).rho
            )

    def test_full_quantities_exact_for_clustered_data(self, blobs, fitted):
        """Non-peak δ stays exact because every μ is within τ here."""
        base = naive_quantities(blobs, 0.5)
        got = fitted.quantities(0.5)
        np.testing.assert_array_equal(base.rho, got.rho)
        resolved = got.mu != NO_NEIGHBOR
        np.testing.assert_array_equal(got.mu[resolved], base.mu[resolved])
        np.testing.assert_array_equal(got.delta[resolved], base.delta[resolved])

    def test_tau_above_diameter_is_bit_identical_to_exact(self, blobs):
        index = RNListIndex(tau=1e6).fit(blobs)
        base = naive_quantities(blobs, 0.5)
        assert_quantities_equal(base, index.quantities(0.5))


class TestApproximationBeyondTau:
    def test_rho_is_row_length_when_dc_exceeds_tau(self, blobs, fitted):
        rho = fitted.rho_all(5.0)  # dc > tau = 1.5
        np.testing.assert_array_equal(rho, fitted.row_lengths())

    def test_truncated_peaks_get_big_delta(self, blobs):
        index = RNListIndex(tau=0.3).fit(blobs)
        q = index.quantities(0.2)
        unresolved = q.mu == NO_NEIGHBOR
        assert unresolved.sum() >= 1
        # Big-delta objects must dominate every resolved delta.
        if (~unresolved).any():
            assert q.delta[unresolved].min() > q.delta[~unresolved].max()

    def test_empty_rows_handled(self):
        # tau smaller than every pairwise gap: all rows empty.
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        index = RNListIndex(tau=1.0).fit(pts)
        assert (index.row_lengths() == 0).all()
        q = index.quantities(0.5)
        assert (q.rho == 0).all()
        assert (q.mu == NO_NEIGHBOR).all()
        assert (q.delta >= 10.0).all()


class TestRNCH:
    def test_rho_matches_rnlist_below_tau(self, blobs, tau):
        rn = RNListIndex(tau=tau).fit(blobs)
        rnch = RNCHIndex(tau=tau, bin_width=0.2).fit(blobs)
        for dc in (0.13, 0.4, 0.8, 1.2):
            np.testing.assert_array_equal(
                rnch.rho_all(dc), rn.rho_all(dc), err_msg=f"dc={dc}"
            )

    def test_rho_on_bin_edge(self, blobs, tau):
        """dc == 2·w answers straight from the bin: no section search."""
        rnch = RNCHIndex(tau=tau, bin_width=0.25).fit(blobs)
        rnch.reset_stats()
        np.testing.assert_array_equal(
            rnch.rho_all(0.5), naive_quantities(blobs, 0.5).rho
        )
        assert rnch.stats().binary_searches == 0

    def test_rho_above_tau_falls_back_to_row_length(self, blobs, tau):
        rnch = RNCHIndex(tau=tau, bin_width=0.2).fit(blobs)
        np.testing.assert_array_equal(rnch.rho_all(tau * 2), rnch.row_lengths())

    def test_delta_identical_to_rnlist(self, blobs, tau):
        rn = RNListIndex(tau=tau).fit(blobs)
        rnch = RNCHIndex(tau=tau, bin_width=0.2).fit(blobs)
        a = rn.quantities(0.5)
        b = rnch.quantities(0.5)
        np.testing.assert_array_equal(a.delta, b.delta)
        np.testing.assert_array_equal(a.mu, b.mu)

    def test_auto_bin_width_covers_tau(self, blobs, tau):
        rnch = RNCHIndex(tau=tau, default_bins=16).fit(blobs)
        assert rnch.bin_width is None  # configured stays auto
        assert rnch.bin_width_ == pytest.approx(tau / 16)

    def test_memory_exceeds_plain_rnlist(self, blobs, tau):
        rn = RNListIndex(tau=tau).fit(blobs)
        rnch = RNCHIndex(tau=tau, bin_width=0.2).fit(blobs)
        assert rnch.memory_bytes() > rn.memory_bytes()
        assert rnch.histogram_memory_bytes() > 0

    def test_not_exact_flag(self):
        assert RNListIndex.exact is False
        assert RNCHIndex.exact is False
