"""Observability bit-identity properties (repro.obs).

The PR-wide contract: turning metrics and tracing **on** changes nothing
about what any layer computes.  (ρ, δ, μ) — and therefore labels — must be
bit-identical with observability enabled vs disabled across every index
family and every execution backend; probe counters included, since the
instrumentation reads (never writes) them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.indexes.registry import make_index

from tests.conftest import assert_quantities_equal, safe_dc

#: Constructor extras per family (small structures so instrumented code
#: paths go deep); the rn-* approximations need their radius ratio.
FAMILY_SPECS = {
    "list": {},
    "ch": {"default_bins": 16},
    "rn-list": {"tau": 2.0},
    "rn-ch": {"tau": 2.0, "default_bins": 16},
    "kdtree": {"leaf_size": 8},
    "quadtree": {"capacity": 8},
    "rtree": {"max_entries": 6},
    "grid": {"target_occupancy": 4},
}


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    obs_metrics.REGISTRY.reset()
    obs_trace.reset()
    yield
    obs.disable()
    obs_metrics.REGISTRY.reset()
    obs_trace.reset()


def corpus(seed: int, n: int) -> np.ndarray:
    r = np.random.default_rng(seed)
    blob = r.normal(0.0, 0.8, size=(n // 2, 2))
    dup = np.round(r.normal(2.5, 0.5, size=(n // 4, 2)), 1)
    lattice = r.integers(-2, 3, size=(n - len(blob) - len(dup), 2)).astype(np.float64)
    return np.concatenate([blob, dup, lattice])


def quantities_with_obs(index, dc, tie_break):
    """One observed query, run under a live root span like the server does."""
    with obs.enabled_scope():
        root = obs_trace.begin_span("test.query")
        try:
            with obs_trace.use_span(root):
                return index.quantities(dc, tie_break=tie_break)
        finally:
            root.finish()


class TestFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
    def test_enabled_vs_disabled_bit_identity(self, family):
        points = corpus(11, 96)
        dc = safe_dc(points)
        index = make_index(family, **FAMILY_SPECS[family]).fit(points)
        for tie_break in ("id", "strict"):
            before_off = index.stats().as_dict()
            baseline = index.quantities(dc, tie_break=tie_break)
            after_off = index.stats().as_dict()
            observed = quantities_with_obs(index, dc, tie_break)
            after_on = index.stats().as_dict()
            assert_quantities_equal(baseline, observed)
            # Instrumentation reads probe counters; it must not perturb them.
            delta_off = {k: after_off[k] - before_off.get(k, 0) for k in after_off}
            delta_on = {k: after_on[k] - after_off.get(k, 0) for k in after_on}
            assert delta_on == delta_off

    @given(seed=st.integers(0, 2**16), n=st.integers(24, 120))
    @settings(max_examples=15, deadline=None)
    def test_kdtree_random_corpora(self, seed, n):
        points = corpus(seed, n)
        dc = safe_dc(points)
        index = make_index("kdtree", leaf_size=4).fit(points)
        baseline = index.quantities(dc)
        observed = quantities_with_obs(index, dc, "id")
        assert_quantities_equal(baseline, observed)


class TestBackends:
    @pytest.mark.parametrize("backend", ["serial", "threads", "process"])
    def test_enabled_vs_disabled_per_backend(self, backend):
        points = corpus(7, 90)
        dc = safe_dc(points)
        index = make_index("kdtree", leaf_size=8).fit(points)
        index.set_execution(backend=backend, n_jobs=2)
        try:
            baseline = index.quantities(dc)
            observed = quantities_with_obs(index, dc, "id")
            assert_quantities_equal(baseline, observed)
        finally:
            index.release_execution()
            index.set_execution(backend="serial")


class TestMultiDc:
    def test_quantities_multi_enabled_vs_disabled(self):
        points = corpus(31, 90)
        base = safe_dc(points)
        dcs = [base * 0.8, base, base * 1.2]
        index = make_index("ch", default_bins=16).fit(points)
        baseline = index.quantities_multi(dcs)
        with obs.enabled_scope():
            observed = index.quantities_multi(dcs)
        for qa, qb in zip(baseline, observed):
            assert_quantities_equal(qa, qb)
