"""Unit tests for the List Index (paper Algorithms 1–2)."""

from collections import Counter

import numpy as np
import pytest

from repro.core.baseline import naive_quantities
from repro.core.quantities import NO_NEIGHBOR, DensityOrder
from repro.geometry.distance import get_metric
from repro.indexes import persist
from repro.indexes.ch_index import CHIndex
from repro.indexes.list_index import ListIndex
from repro.indexes.rn_list import RNCHIndex, RNListIndex

from tests.conftest import assert_quantities_equal, safe_dc


@pytest.fixture
def fitted(blobs):
    return ListIndex().fit(blobs)


#: The four list families and the radius within which each row holds every
#: neighbour (τ for the truncated lists, ∞ for the exact ones).
TAU = 1.5
FAMILIES = {
    "list": (ListIndex, {}, np.inf),
    "ch": (CHIndex, {}, np.inf),
    "rn-list": (RNListIndex, {"tau": TAU}, TAU),
    "rn-ch": (RNCHIndex, {"tau": TAU}, TAU),
}


class TestConstruction:
    def test_nlists_sorted_nondecreasing(self, fitted):
        d = fitted.neighbor_dists
        assert (np.diff(d, axis=1) >= 0).all()

    def test_nlists_exclude_self(self, fitted):
        ids = fitted.neighbor_ids
        n = len(ids)
        for p in range(0, n, 37):
            assert p not in set(ids[p].tolist())
            assert len(set(ids[p].tolist())) == n - 1

    def test_distance_ties_ordered_by_id(self):
        # Four points equidistant from the centre point 0.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        index = ListIndex().fit(pts)
        np.testing.assert_array_equal(index.neighbor_ids[0], [1, 2, 3, 4])

    def test_requires_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            ListIndex().fit(np.zeros((1, 2)))

    def test_build_block_invariance(self, blobs):
        a = ListIndex(build_block_rows=7).fit(blobs)
        b = ListIndex(build_block_rows=4096).fit(blobs)
        np.testing.assert_array_equal(a.neighbor_ids, b.neighbor_ids)
        np.testing.assert_array_equal(a.neighbor_dists, b.neighbor_dists)

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="build_block_rows"):
            ListIndex(build_block_rows=0)
        with pytest.raises(ValueError, match="scan_block"):
            ListIndex(scan_block=-1)

    def test_build_seconds_recorded(self, fitted):
        assert fitted.build_seconds >= 0.0


class TestRhoQuery:
    def test_matches_naive(self, blobs, fitted):
        dc = safe_dc(blobs, 0.1)
        np.testing.assert_array_equal(
            fitted.rho_all(dc), naive_quantities(blobs, dc).rho
        )

    def test_binary_search_counter(self, blobs, fitted):
        fitted.reset_stats()
        fitted.rho_all(0.5)
        assert fitted.stats().binary_searches == len(blobs)

    def test_rho_zero_for_tiny_dc(self, fitted):
        assert (fitted.rho_all(1e-12) == 0).all()

    def test_rho_full_for_huge_dc(self, blobs, fitted):
        assert (fitted.rho_all(1e9) == len(blobs) - 1).all()


class TestDeltaQuery:
    def test_matches_naive_both_tie_modes(self, blobs, fitted):
        for tie in ("id", "strict"):
            base = naive_quantities(blobs, 0.5, tie_break=tie)
            got = fitted.quantities(0.5, tie_break=tie)
            assert_quantities_equal(base, got)

    def test_scan_block_invariance(self, blobs):
        base = naive_quantities(blobs, 0.5)
        for block in (1, 3, 64, 1000):
            got = ListIndex(scan_block=block).fit(blobs).quantities(0.5)
            assert_quantities_equal(base, got)

    def test_peak_delta_is_max_distance(self, blobs, fitted):
        q = fitted.quantities(0.5)
        peak = int(q.density_order.order[0])
        assert q.mu[peak] == NO_NEIGHBOR
        assert q.delta[peak] == fitted.neighbor_dists[peak, -1]

    def test_expected_constant_probes_per_object(self, blobs, fitted):
        """Theorem 1: the δ scan touches O(1) list entries per non-peak."""
        q = fitted.quantities(0.5)
        fitted.reset_stats()
        fitted.delta_all(q.density_order)
        per_object = fitted.stats().objects_scanned / len(blobs)
        # scan_block=32; well-clustered data resolves in the first block or
        # two for almost every object.
        assert per_object < 4 * fitted.scan_block

    def test_order_length_mismatch(self, fitted):
        with pytest.raises(ValueError, match="order has"):
            fitted.delta_all(DensityOrder(np.zeros(3, dtype=np.int64)))


class TestBookkeeping:
    def test_memory_counts_both_arrays(self, fitted):
        # The two lists plus the CSR row offsets the list family shares.
        expected = (
            fitted.neighbor_ids.nbytes + fitted.neighbor_dists.nbytes
            + fitted._offsets.nbytes
        )
        assert fitted.memory_bytes() == expected

    def test_memory_zero_before_fit(self):
        assert ListIndex().memory_bytes() == 0

    def test_unfitted_queries_raise(self):
        index = ListIndex()
        with pytest.raises(RuntimeError, match="not fitted"):
            index.rho_all(1.0)
        with pytest.raises(RuntimeError, match="not fitted"):
            index.quantities(1.0)

    def test_describe(self, fitted, blobs):
        info = fitted.describe()
        assert info["index"] == "list"
        assert info["n"] == len(blobs)
        assert info["exact"] is True


class TestSharedLayout:
    """Every list family keeps its sorted rows as CSR slices of one
    ``_offsets`` / ``_ids`` / ``_dists`` store."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rows_hold_every_neighbour_within_reach(self, blobs, family):
        cls, params, reach = FAMILIES[family]
        index = cls(**params).fit(blobs)
        offsets, ids, dists = index._offsets, index._ids, index._dists
        n = len(blobs)
        assert (offsets.dtype, ids.dtype, dists.dtype) == (np.int64, np.int32, np.float64)
        assert offsets.shape == (n + 1,) and offsets[0] == 0
        assert offsets[-1] == len(ids) == len(dists)
        full = get_metric("euclidean").cross(blobs, blobs)
        for p in range(n):
            others = np.flatnonzero((np.arange(n) != p) & (full[p] < reach))
            # Near to far, distance ties by ascending id.
            expected = others[np.lexsort((others, full[p, others]))]
            row = slice(offsets[p], offsets[p + 1])
            np.testing.assert_array_equal(ids[row], expected, err_msg=f"row {p}")
            np.testing.assert_array_equal(dists[row], full[p, expected], err_msg=f"row {p}")

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_append_leaves_the_rows_of_a_fresh_fit(self, blobs, family):
        cls, params, _ = FAMILIES[family]
        grown = cls(**params).fit(blobs[:250])
        grown.add_points(blobs[250:])
        fresh = cls(**params).fit(blobs)
        for attr in ("_offsets", "_ids", "_dists"):
            got, want = getattr(grown, attr), getattr(fresh, attr)
            assert got.dtype == want.dtype, attr
            np.testing.assert_array_equal(got, want, err_msg=attr)

    @pytest.mark.parametrize("cls", [ListIndex, CHIndex], ids=["list", "ch"])
    def test_exact_lists_take_no_tau(self, blobs, cls):
        """The exact lists are the τ = ∞ case through their reach, not a
        ``tau`` attribute: one would be saved with their constructor
        parameters and change their fingerprints."""
        index = cls().fit(blobs)
        assert not hasattr(index, "tau")
        assert "tau" not in persist._constructor_params(index)


def span_names(node):
    return [node["name"]] + [name for child in node["children"] for name in span_names(child)]


class TestOneQueryPath:
    """A single ``dc`` and a sweep of one run the same ρ task and δ scan
    schedule on every list family."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_single_dc_counters_add_up_to_the_sweep(self, blobs, family):
        cls, params, _ = FAMILIES[family]
        index = cls(**params).fit(blobs)
        singles, counters = [], Counter()
        for dc in (0.3, 0.5):
            index.reset_stats()
            singles.append(index.quantities(dc))
            counters.update(index.stats().as_dict())
        index.reset_stats()
        swept = index.quantities_multi([0.3, 0.5])
        assert Counter(index.stats().as_dict()) == counters
        for single, q in zip(singles, swept):
            assert_quantities_equal(single, q)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_sweep_emits_engine_phase_spans(self, blobs, family):
        from repro import obs
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        cls, params, _ = FAMILIES[family]
        index = cls(**params).fit(blobs)
        obs_trace.reset()
        try:
            with obs.enabled_scope():
                root = obs_trace.begin_span("test.sweep")
                with obs_trace.use_span(root):
                    index.quantities_multi([0.3, 0.5])
                root.finish()
            tree = obs_trace.get_trace(root.trace_id)
        finally:
            obs_metrics.REGISTRY.reset()
            obs_trace.reset()
        [sweep] = tree["children"]
        assert sweep["name"] == "engine.quantities"
        names = [child["name"] for child in sweep["children"]]
        assert names == ["engine.rho", "engine.delta"]
        assert "parallel.tasks" in span_names(sweep)

    @pytest.mark.parametrize(
        "make",
        [lambda: CHIndex(), lambda: RNListIndex(tau=TAU),
         lambda: RNCHIndex(tau=TAU), lambda: RNCHIndex(tau=TAU, bin_width=0.4)],
        ids=["ch", "rn-list", "rn-ch", "rn-ch-tau-off-grid"],
    )
    def test_cutoffs_past_every_row_search_nothing(self, blobs, make):
        """Beyond τ, or past every histogram, the row length is the answer
        and no range is searched or scanned (paper 5.3.1); only the plain
        List searches every row at every cut-off.  With w = 0.4, τ = 1.5
        lies inside the last bin, whose section a cut-off just past τ would
        otherwise search."""
        index = make().fit(blobs)
        dcs = [2.0 * float(index._dists.max()), 1e300]
        if isinstance(index, RNListIndex):
            dcs.append(float(np.nextafter(TAU, np.inf)))
        index.reset_stats()
        rho = index.rho_all_multi(dcs)
        np.testing.assert_array_equal(rho, np.tile(index.row_lengths(), (len(dcs), 1)))
        assert index.stats().binary_searches == 0
        assert index.stats().objects_scanned == 0

    def test_a_search_counts_only_over_a_non_empty_row(self, blobs):
        index = RNListIndex(tau=0.1).fit(blobs)
        lengths = index.row_lengths()
        assert (lengths == 0).any() and (lengths > 0).any()
        index.reset_stats()
        index.rho_all_multi([0.05, 0.1])
        assert index.stats().binary_searches == 2 * int(np.count_nonzero(lengths))
