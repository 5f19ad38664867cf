"""Bulk-build bit-identity properties (repro.indexes.build).

The bulk builders construct the FlatTree query image directly from the
point array; the contract is that ρ, δ, μ, labels and halo are
**bit-identical** to the ``build="objects"`` reference for every tree
family, rect-capable metric, tie-break and adversarial corpus.  Probe
counters may differ only where the tree *shape* legitimately differs
(kd median ties, quadtree boundary ulps) — STR packing must produce the
identical structure node-for-node, so there the counters are asserted
equal too.  The corpora mirror the execution-backend suite: duplicates
(δ ties at distance 0), an integer lattice (ρ ties and coordinate ties at
every split boundary), and the mixed general case.
"""

import numpy as np
import pytest

from repro.extras.streaming import StreamingDPC
from repro.indexes.kernels import FlatTree, flatten_tree
from repro.indexes.registry import make_index
from repro.indexes.rtree import RTreeIndex

from tests.conftest import safe_dc
from tests.rtree_split_reference import reference_quadratic_split

#: Tree families with a bulk path; small structures so trees have depth.
TREE_SPECS = {
    "kdtree": {"leaf_size": 8},
    "quadtree": {"capacity": 8},
    "rtree": {"max_entries": 6},
}

RECT_METRICS = ("euclidean", "sqeuclidean", "manhattan", "chebyshev")

CORPORA = ("duplicates", "rho-ties", "mixed")


def corpus(name: str) -> np.ndarray:
    r = np.random.default_rng(hash(name) % (2**32))
    if name == "duplicates":
        base = r.normal(0.0, 1.0, size=(24, 2))
        return np.concatenate([base, base, base[:12], r.normal(2.0, 1.0, size=(20, 2))])
    if name == "rho-ties":
        return r.integers(0, 5, size=(80, 2)).astype(np.float64)
    if name == "mixed":
        blob = r.normal(0.0, 0.6, size=(40, 2))
        dup = np.round(r.normal(3.0, 0.5, size=(20, 2)), 1)
        lattice = r.integers(-2, 2, size=(20, 2)).astype(np.float64)
        return np.concatenate([blob, dup, dup[:10], lattice])
    raise KeyError(name)


def build_pair(index_name, metric="euclidean", **extra):
    spec = dict(TREE_SPECS[index_name], **extra)
    objects = make_index(index_name, metric=metric, build="objects", **spec)
    bulk = make_index(index_name, metric=metric, build="bulk", **spec)
    return objects, bulk


def assert_identical_quantities(qa, qb, context=""):
    np.testing.assert_array_equal(qa.rho, qb.rho, err_msg=f"rho differs {context}")
    np.testing.assert_array_equal(qa.delta, qb.delta, err_msg=f"delta differs {context}")
    np.testing.assert_array_equal(qa.mu, qb.mu, err_msg=f"mu differs {context}")


class TestBulkBitIdentity:
    """bulk vs objects over every (family, rect metric, corpus, tie-break)."""

    @pytest.mark.parametrize("corpus_name", CORPORA)
    @pytest.mark.parametrize("metric", RECT_METRICS)
    @pytest.mark.parametrize("index_name", sorted(TREE_SPECS))
    def test_quantities_bit_identical(self, index_name, metric, corpus_name):
        points = corpus(corpus_name)
        dc = safe_dc(points)
        objects, bulk = build_pair(index_name, metric)
        objects.fit(points)
        bulk.fit(points)
        assert objects.build_ == "objects" and bulk.build_ == "bulk"
        for tie_break in ("id", "strict"):
            assert_identical_quantities(
                objects.quantities(dc, tie_break=tie_break),
                bulk.quantities(dc, tie_break=tie_break),
                context=f"[{index_name}/{metric}/{corpus_name}/{tie_break}]",
            )

    @pytest.mark.parametrize("corpus_name", CORPORA)
    @pytest.mark.parametrize("index_name", sorted(TREE_SPECS))
    def test_cluster_labels_and_halo_bit_identical(self, index_name, corpus_name):
        points = corpus(corpus_name)
        dc = safe_dc(points)
        objects, bulk = build_pair(index_name)
        ra = objects.fit(points).cluster(dc, n_centers=3, halo=True)
        rb = bulk.fit(points).cluster(dc, n_centers=3, halo=True)
        np.testing.assert_array_equal(ra.labels, rb.labels)
        np.testing.assert_array_equal(ra.centers, rb.centers)
        np.testing.assert_array_equal(ra.halo, rb.halo)

    @pytest.mark.parametrize("index_name", sorted(TREE_SPECS))
    def test_multi_dc_sweep_bit_identical(self, index_name):
        points = corpus("mixed")
        dcs = [safe_dc(points, f) for f in (0.15, 0.3, 0.6)]
        objects, bulk = build_pair(index_name)
        for qa, qb in zip(
            objects.fit(points).quantities_multi(dcs),
            bulk.fit(points).quantities_multi(dcs),
        ):
            assert_identical_quantities(qa, qb, context=f"[{index_name}/multi-dc]")

    @pytest.mark.parametrize("frontier", ("heap", "stack"))
    @pytest.mark.parametrize("index_name", sorted(TREE_SPECS))
    def test_reference_frontiers_on_bulk_trees(self, index_name, frontier):
        """The per-object frontiers materialise the object graph from the
        bulk image lazily; results must still match the objects build."""
        points = corpus("duplicates")
        dc = safe_dc(points)
        objects, bulk = build_pair(index_name, frontier=frontier)
        objects.fit(points)
        bulk.fit(points)
        assert bulk._root is None  # not materialised by fit
        assert_identical_quantities(
            objects.quantities(dc),
            bulk.quantities(dc),
            context=f"[{index_name}/{frontier}]",
        )
        assert bulk._root is not None  # the frontier pulled the graph in


class TestStrStructureIdentity:
    """STR packing: the bulk image equals the flattened object tree exactly."""

    @pytest.mark.parametrize("corpus_name", CORPORA)
    @pytest.mark.parametrize("max_entries", (4, 6, 16))
    def test_node_for_node_identical(self, corpus_name, max_entries):
        points = corpus(corpus_name)
        objects = RTreeIndex(build="objects", max_entries=max_entries).fit(points)
        bulk = RTreeIndex(build="bulk", max_entries=max_entries).fit(points)
        fa = flatten_tree(objects.root)
        fb = bulk._flat_tree()
        assert [tuple(l) for l in fa.levels] == [tuple(l) for l in fb.levels]
        for name in FlatTree.ARRAY_FIELDS:
            np.testing.assert_array_equal(
                getattr(fa, name), getattr(fb, name), err_msg=f"{name} differs"
            )

    @pytest.mark.parametrize("corpus_name", CORPORA)
    def test_probe_counters_identical(self, corpus_name):
        """Identical structure ⇒ identical per-query work, counters included."""
        points = corpus(corpus_name)
        dc = safe_dc(points)
        objects = RTreeIndex(build="objects", max_entries=6).fit(points)
        bulk = RTreeIndex(build="bulk", max_entries=6).fit(points)
        objects.quantities(dc)
        bulk.quantities(dc)
        assert objects.stats().as_dict() == bulk.stats().as_dict()

    def test_dynamic_packing_falls_back_to_objects(self):
        points = corpus("mixed")
        index = RTreeIndex(packing="dynamic", build="bulk").fit(points)
        assert index.build_ == "objects"
        assert index._root is not None


class TestStreamingPublishesBulk:
    """Stream ingests refit their snapshots through the bulk path."""

    def test_ingests_publish_bulk_built_indexes(self):
        published = []
        stream = StreamingDPC()
        stream.subscribe(published.append)
        r = np.random.default_rng(0)
        for _ in range(6):
            stream.add(r.normal(size=(20, 2)))
        assert [index.n for index in published] == [20, 40, 60, 80, 100, 120]
        for index in published:
            assert index.build_ == "bulk"
            assert index._flat is not None
            assert index._root is None  # no object graph ever materialised
        # and the streamed quantities stay exact against a scratch rebuild
        pts = stream.points()
        dc = safe_dc(pts)
        q = stream.quantities(dc)
        ref = RTreeIndex().fit(pts).quantities(dc)
        assert_identical_quantities(q, ref, context="[streaming]")


def split_entries(seed: int, n: int, d: int):
    """``n`` random R-tree entries: point entries (``lo == hi``) or boxes,
    on a coarse lattice so areas tie, with repeated boxes, and some scaled
    to 1e200 so areas overflow to inf and a waste is ``inf - inf`` (NaN)."""
    r = np.random.default_rng(seed)
    lo = r.integers(0, 4, size=(n, d)).astype(np.float64)
    hi = lo + r.integers(0, 3, size=(n, d)) * (r.random((n, 1)) < 0.6)
    again = r.random(n) < 0.3
    src = r.integers(0, n, size=n)
    lo[again], hi[again] = lo[src[again]], hi[src[again]]
    if r.random() < 0.3:
        huge = r.random(n) < 0.4
        lo[huge] *= 1e200
        hi[huge] *= 1e200
    return [(lo[k].copy(), hi[k].copy(), k) for k in range(n)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_quadratic_split_matches_the_loop_reference(d):
    """The vectorised PickSeeds / PickNext choose what the pairwise loops
    chose: the same groups, in the same order, and bit-identical boxes."""
    for seed in range(150):
        max_entries = 2 + seed % 15
        index = RTreeIndex(max_entries=max_entries, min_entries=1 + seed % (max_entries // 2))
        entries = split_entries(seed, max_entries + 1, d)
        got = index._quadratic_split(entries)
        want = reference_quadratic_split(entries, index.min_entries)
        for (g_group, g_box), (w_group, w_box) in zip(got, want):
            assert [e[2] for e in g_group] == [e[2] for e in w_group], seed
            for g, w in zip(g_box, w_box):
                assert g.tobytes() == w.tobytes(), seed
