"""The cross-index exactness contract (DESIGN.md §2).

Every exact index — and the τ-truncated indexes with τ above the data
diameter — must produce **bit-identical** (ρ, δ, μ) to the naive baseline,
for multiple datasets, dc values, metrics and both tie conventions.
"""

import numpy as np
import pytest

from repro.core.assignment import assign_labels
from repro.core.baseline import naive_quantities
from repro.core.decision import select_centers_top_k
from repro.core.halo import halo_mask
from repro.indexes.ch_index import CHIndex
from repro.indexes.grid import GridIndex
from repro.indexes.kdtree import KDTreeIndex
from repro.indexes.list_index import ListIndex
from repro.indexes.quadtree import QuadtreeIndex
from repro.indexes.registry import INDEX_CLASSES, make_index
from repro.indexes.rn_list import RNCHIndex, RNListIndex
from repro.indexes.rtree import RTreeIndex

from tests.conftest import assert_quantities_equal, safe_dc

EXACT_FACTORIES = [
    pytest.param(lambda: ListIndex(), id="list"),
    pytest.param(lambda: CHIndex(), id="ch"),
    pytest.param(lambda: QuadtreeIndex(), id="quadtree"),
    pytest.param(lambda: RTreeIndex(), id="rtree-str"),
    pytest.param(lambda: RTreeIndex(packing="dynamic"), id="rtree-dynamic"),
    pytest.param(lambda: RTreeIndex(frontier="stack"), id="rtree-stack"),
    pytest.param(lambda: QuadtreeIndex(frontier="stack"), id="quadtree-stack"),
    pytest.param(lambda: KDTreeIndex(), id="kdtree"),
    pytest.param(lambda: GridIndex(), id="grid"),
    pytest.param(lambda: RNListIndex(tau=1e9), id="rn-list-inf"),
    pytest.param(lambda: RNCHIndex(tau=1e9, bin_width=1e7), id="rn-ch-inf"),
]


def make_workloads():
    rng = np.random.default_rng(99)
    blobs = np.concatenate(
        [
            rng.normal([0, 0], 0.5, (80, 2)),
            rng.normal([5, 5], 0.8, (90, 2)),
            rng.normal([9, 1], 0.3, (50, 2)),
        ]
    )
    uniform = rng.uniform(0, 10, (150, 2))
    skewed = np.concatenate(
        [rng.normal([0, 0], 0.05, (120, 2)), rng.uniform(0, 50, (60, 2))]
    )
    gridded = np.array([(x, y) for x in range(12) for y in range(12)], dtype=float)
    return [
        ("blobs", blobs),
        ("uniform", uniform),
        ("skewed", skewed),
        ("gridded", gridded + 0.0),  # heavy density ties
    ]


WORKLOADS = make_workloads()


@pytest.mark.parametrize("factory", EXACT_FACTORIES)
@pytest.mark.parametrize("workload", [w[0] for w in WORKLOADS])
def test_bit_identical_to_baseline(factory, workload):
    points = dict(WORKLOADS)[workload]
    dc = safe_dc(points, 0.05)
    base = naive_quantities(points, dc)
    got = factory().fit(points).quantities(dc)
    assert_quantities_equal(base, got)


@pytest.mark.parametrize("factory", EXACT_FACTORIES)
def test_bit_identical_strict_mode(factory):
    points = dict(WORKLOADS)["gridded"]  # maximal ties
    dc = safe_dc(points, 0.1)
    base = naive_quantities(points, dc, tie_break="strict")
    got = factory().fit(points).quantities(dc, tie_break="strict")
    assert_quantities_equal(base, got)


@pytest.mark.parametrize(
    "fraction", [0.01, 0.2, 0.5, 0.9], ids=["tiny", "small", "mid", "large"]
)
def test_dc_sweep_all_indexes_agree(fraction):
    points = dict(WORKLOADS)["blobs"]
    dc = safe_dc(points, fraction)
    base = naive_quantities(points, dc)
    for factory in (
        lambda: ListIndex(),
        lambda: CHIndex(bin_width=0.35),
        lambda: QuadtreeIndex(capacity=8),
        lambda: RTreeIndex(max_entries=4),
        lambda: KDTreeIndex(leaf_size=4),
        lambda: GridIndex(cell_size=0.9),
    ):
        assert_quantities_equal(base, factory().fit(points).quantities(dc))


@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
def test_metric_generic_indexes_agree(metric):
    """The non-quadtree indexes are metric-generic; verify beyond euclidean."""
    points = dict(WORKLOADS)["blobs"]
    base = naive_quantities(points, 1.0, metric=metric)
    for factory in (
        lambda: ListIndex(metric=metric),
        lambda: CHIndex(metric=metric),
        lambda: RTreeIndex(metric=metric),
        lambda: KDTreeIndex(metric=metric),
    ):
        got = factory().fit(points).quantities(1.0)
        assert_quantities_equal(base, got)


def test_cluster_labels_identical_across_indexes(blobs):
    reference = None
    for factory in (
        lambda: ListIndex(),
        lambda: CHIndex(),
        lambda: QuadtreeIndex(),
        lambda: RTreeIndex(),
        lambda: KDTreeIndex(),
        lambda: GridIndex(),
    ):
        result = factory().fit(blobs).cluster(0.5, n_centers=3)
        if reference is None:
            reference = result
        else:
            np.testing.assert_array_equal(reference.labels, result.labels)
            np.testing.assert_array_equal(reference.centers, result.centers)


# -- adversarial corpora: every family against the baseline -------------------
#
# The corpora where a pruning or tie bug shows: exactly coincident stacks
# spread over the whole domain (δ = 0 ties that must resolve to the smallest
# id wherever a node or cell boundary cuts a stack), an integer lattice
# (heavy ρ ties under both conventions) and a mixed cloud.  Every registered
# family runs on every metric with exact rectangle bounds; the τ-truncated
# families run with τ above the data diameter, where they must be exact too.

#: Registry name -> constructor extras (small structures so trees have depth).
FAMILY_SPECS = {
    "list": {},
    "ch": {"default_bins": 16},
    "rn-list": {"tau": 1e9},
    "rn-ch": {"tau": 1e9, "bin_width": 1e7},
    "kdtree": {"leaf_size": 8},
    "quadtree": {"capacity": 8},
    "rtree": {"max_entries": 6},
    "grid": {"target_occupancy": 4},
}

RECT_METRICS = (
    "euclidean",
    "sqeuclidean",
    "manhattan",
    "chebyshev",
    "minkowski[p=3]",
)

CORPORA = ("stacked-duplicates", "rho-ties", "mixed")


def adversarial_corpus(name: str) -> np.ndarray:
    r = np.random.default_rng(sum(map(ord, name)))
    if name == "stacked-duplicates":
        centers = r.uniform(-4.0, 4.0, size=(18, 2))
        stacks = np.repeat(centers, 3, axis=0)
        return np.concatenate([stacks, r.normal(0.0, 2.0, size=(26, 2))])
    if name == "rho-ties":
        return r.integers(0, 5, size=(80, 2)).astype(np.float64)
    if name == "mixed":
        blob = r.normal(0.0, 0.6, size=(40, 2))
        dup = np.round(r.normal(3.0, 0.5, size=(20, 2)), 1)
        lattice = r.integers(-2, 2, size=(20, 2)).astype(np.float64)
        return np.concatenate([blob, dup, dup[:10], lattice])
    raise KeyError(name)


def fit_family(family, points, metric="euclidean"):
    return make_index(family, metric=metric, **FAMILY_SPECS[family]).fit(points)


def test_every_registered_family_is_covered():
    """New registry entries must opt into the adversarial corpora."""
    assert set(FAMILY_SPECS) == set(INDEX_CLASSES)


@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
@pytest.mark.parametrize("metric", RECT_METRICS)
def test_families_and_metrics(metric, family):
    points = adversarial_corpus("mixed")
    dc = safe_dc(points, metric=metric)
    index = fit_family(family, points, metric)
    for tie_break in ("id", "strict"):
        assert_quantities_equal(
            naive_quantities(points, dc, metric=metric, tie_break=tie_break),
            index.quantities(dc, tie_break=tie_break),
        )


@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
@pytest.mark.parametrize("corpus_name", CORPORA)
def test_adversarial_corpora_and_labels(corpus_name, family):
    """Quantities under both conventions, then centres, labels and halo
    against steps 3–4 run by the core functions on the baseline triple."""
    points = adversarial_corpus(corpus_name)
    dc = safe_dc(points)
    index = fit_family(family, points)
    for tie_break in ("id", "strict"):
        base = naive_quantities(points, dc, tie_break=tie_break)
        assert_quantities_equal(base, index.quantities(dc, tie_break=tie_break))
        centers = select_centers_top_k(base, 3)
        labels = assign_labels(base, centers, points=points)
        got = index.cluster(dc, n_centers=3, halo=True, tie_break=tie_break)
        np.testing.assert_array_equal(got.centers, centers)
        np.testing.assert_array_equal(got.labels, labels)
        np.testing.assert_array_equal(got.halo, halo_mask(points, labels, base.rho, dc))


@pytest.mark.parametrize("family", sorted(FAMILY_SPECS))
def test_multi_dc_sweep_past_the_diameter(family):
    """One sweep from a tiny dc to one wider than the whole domain, where
    every object counts every other and ρ ties everywhere."""
    points = adversarial_corpus("stacked-duplicates")
    base_dc = safe_dc(points)
    span = float(np.linalg.norm(points.max(0) - points.min(0)))
    dcs = [base_dc * 0.3, base_dc, base_dc * 2.5, span * 1.5]
    index = fit_family(family, points)
    for tie_break in ("id", "strict"):
        sweep = index.quantities_multi(dcs, tie_break=tie_break)
        for dc, q in zip(dcs, sweep):
            assert_quantities_equal(naive_quantities(points, dc, tie_break=tie_break), q)
        np.testing.assert_array_equal(sweep[-1].rho, np.full(len(points), len(points) - 1))
