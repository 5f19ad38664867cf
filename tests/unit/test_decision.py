"""Unit tests for the decision graph and centre-selection strategies."""

import numpy as np
import pytest

from repro.core.baseline import naive_quantities
from repro.core.decision import (
    DecisionGraph,
    select_centers_auto,
    select_centers_threshold,
    select_centers_top_k,
    suggest_outliers,
)
from repro.datasets.synthetic import science_toy


@pytest.fixture
def toy_quantities():
    ds = science_toy()
    return naive_quantities(ds.points, ds.params.dc_default)


class TestDecisionGraph:
    def test_from_quantities_copies(self, toy_quantities):
        g = DecisionGraph.from_quantities(toy_quantities)
        g.rho[0] = -99
        assert toy_quantities.rho[0] != -99

    def test_top_gamma_ordering(self, toy_quantities):
        g = DecisionGraph.from_quantities(toy_quantities)
        ids = g.top_gamma(5)
        gammas = g.gamma[ids]
        assert all(gammas[i] >= gammas[i + 1] for i in range(len(gammas) - 1))

    def test_top_gamma_bounds(self, toy_quantities):
        g = DecisionGraph.from_quantities(toy_quantities)
        with pytest.raises(ValueError, match="k must be"):
            g.top_gamma(0)
        with pytest.raises(ValueError, match="k must be"):
            g.top_gamma(len(g) + 1)

    @pytest.mark.parametrize("with_nan", [False, True])
    def test_top_gamma_equals_the_full_lexsort_under_ties(self, rng, with_nan):
        """Many objects tie on γ at every k-th value and on ρ among those:
        the partition-narrowed order equals the full (-γ, -ρ, id) lexsort
        for every k.  With ``with_nan`` some γ are NaN (an infinite δ at
        ρ = 0), which the lexsort puts last."""
        n = 400
        rho = rng.choice([1, 2, 3, 4, 6], size=n)
        gamma = rng.choice([12.0, 24.0, 36.0], size=n)
        delta = gamma / rho  # exact: every γ is a multiple of every ρ
        if with_nan:
            nan = rng.choice(n, size=30, replace=False)
            rho[nan], delta[nan] = 0, np.inf
        with np.errstate(invalid="ignore"):
            g = DecisionGraph(rho=rho, delta=delta, gamma=rho * delta)
        assert np.isnan(g.gamma).any() == with_nan
        full = np.lexsort((np.arange(n), -g.rho, -g.gamma))
        for k in range(1, n + 1):
            np.testing.assert_array_equal(g.top_gamma(k), full[:k], err_msg=f"k={k}")

    def test_as_table_renders(self, toy_quantities):
        text = DecisionGraph.from_quantities(toy_quantities).as_table(3)
        assert "rho" in text and "delta" in text
        assert len(text.splitlines()) == 4


class TestThresholdSelection:
    def test_finds_two_toy_centers(self, toy_quantities):
        q = toy_quantities
        centers = select_centers_threshold(q, rho_min=5, delta_min=1.0)
        # The toy has two dense groups; both centres must come from different
        # groups (ids < 13 are group A, 13..24 group B).
        assert len(centers) == 2
        assert (centers < 13).sum() == 1
        assert ((centers >= 13) & (centers < 25)).sum() == 1

    def test_centers_sorted_densest_first(self, toy_quantities):
        centers = select_centers_threshold(toy_quantities, 1, 0.5)
        ranks = toy_quantities.density_order.rank[centers]
        assert all(ranks[i] < ranks[i + 1] for i in range(len(ranks) - 1))

    def test_impossible_thresholds_raise(self, toy_quantities):
        with pytest.raises(ValueError, match="no object satisfies"):
            select_centers_threshold(toy_quantities, rho_min=1e9, delta_min=1e9)


class TestTopKSelection:
    def test_k_centers_returned(self, toy_quantities):
        assert len(select_centers_top_k(toy_quantities, 2)) == 2

    def test_top2_matches_threshold_centers(self, toy_quantities):
        a = set(select_centers_top_k(toy_quantities, 2).tolist())
        b = set(select_centers_threshold(toy_quantities, 5, 1.0).tolist())
        assert a == b


class TestAutoSelection:
    def test_toy_auto_finds_two(self, toy_quantities):
        centers = select_centers_auto(toy_quantities, min_centers=2)
        assert len(centers) == 2

    def test_respects_max_centers(self, toy_quantities):
        centers = select_centers_auto(toy_quantities, max_centers=1)
        assert len(centers) == 1

    def test_min_centers_floor(self, toy_quantities):
        centers = select_centers_auto(toy_quantities, min_centers=4)
        assert len(centers) >= 4

    def test_invalid_bounds(self, toy_quantities):
        with pytest.raises(ValueError, match="min_centers"):
            select_centers_auto(toy_quantities, min_centers=0)
        with pytest.raises(ValueError, match="max_centers"):
            select_centers_auto(toy_quantities, max_centers=1, min_centers=3)

    def test_degenerate_gamma_fallback(self):
        # A uniform grid at tiny dc: every rho = 0, gamma dominated by delta;
        # MAD of log-gamma may be 0 -> gap fallback path must not crash.
        xs = np.linspace(0, 1, 5)
        pts = np.array([(x, y) for x in xs for y in xs])
        q = naive_quantities(pts, 1e-6)
        centers = select_centers_auto(q)
        assert len(centers) >= 1

    def test_many_similar_centers_not_collapsed(self):
        # 12 equal blobs: the MAD rule must find ~12, not cut at the first gap.
        rng = np.random.default_rng(0)
        centers_true = [(i * 10.0, j * 10.0) for i in range(4) for j in range(3)]
        pts = np.concatenate(
            [rng.normal(c, 0.4, size=(60, 2)) for c in centers_true]
        )
        q = naive_quantities(pts, 1.0)
        centers = select_centers_auto(q)
        assert 10 <= len(centers) <= 14


class TestOutliers:
    def test_toy_outliers_found(self, toy_quantities):
        # Ids 25, 26, 27 are the isolated points of the toy layout.
        outliers = suggest_outliers(toy_quantities, rho_max=1, delta_min=1.0)
        assert set(outliers.tolist()) >= {25, 26, 27}
        assert all(o >= 25 or toy_quantities.rho[o] <= 1 for o in outliers)

    def test_sorted_by_descending_delta(self, toy_quantities):
        outliers = suggest_outliers(toy_quantities, rho_max=2, delta_min=0.5)
        deltas = toy_quantities.delta[outliers]
        assert all(deltas[i] >= deltas[i + 1] for i in range(len(deltas) - 1))

    def test_empty_when_thresholds_exclude_all(self, toy_quantities):
        assert len(suggest_outliers(toy_quantities, rho_max=-1, delta_min=1e9)) == 0
