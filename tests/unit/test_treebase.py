"""Unit tests for the shared tree machinery (TreeNode + TreeIndexBase)."""

import numpy as np
import pytest

from repro.core.quantities import DensityOrder
from repro.indexes.kdtree import KDTreeIndex
from repro.indexes.quadtree import QuadtreeIndex
from repro.indexes.rtree import RTreeIndex
from repro.indexes.treebase import TreeNode


class TestTreeNode:
    def test_leaf_basics(self):
        node = TreeNode(np.zeros(2), np.ones(2), ids=np.array([1, 2, 3]))
        assert node.is_leaf
        assert node.nc == 3
        assert node.height() == 1

    def test_finalize_counts_and_tuple_boxes(self):
        leaf_a = TreeNode(np.zeros(2), np.ones(2), ids=np.array([0, 1]))
        leaf_b = TreeNode(np.ones(2), 2 * np.ones(2), ids=np.array([2]))
        root = TreeNode(np.zeros(2), 2 * np.ones(2), children=[leaf_a, leaf_b])
        assert root.finalize_counts() == 3
        assert root.lo_t == (0.0, 0.0) and root.hi_t == (2.0, 2.0)
        assert leaf_b.lo_t == (1.0, 1.0)

    def test_iter_nodes_visits_all(self):
        leaf_a = TreeNode(np.zeros(2), np.ones(2), ids=np.array([0]))
        leaf_b = TreeNode(np.ones(2), 2 * np.ones(2), ids=np.array([1]))
        root = TreeNode(np.zeros(2), 2 * np.ones(2), children=[leaf_a, leaf_b])
        assert len(list(root.iter_nodes())) == 3


class TestMaxrhoAnnotation:
    def test_annotation_is_subtree_max(self, blobs):
        index = RTreeIndex(max_entries=8).fit(blobs)
        rho = index.rho_all(0.5)
        index._annotate_maxrho(rho)
        for node in index.root.iter_nodes():
            ids = np.concatenate(
                [leaf.ids for leaf in node.iter_nodes() if leaf.is_leaf]
            )
            assert node.maxrho == rho[ids].max()

    def test_reannotation_per_dc(self, blobs):
        # The per-object reference frontiers annotate TreeNode.maxrho; the
        # batched engine keeps its annotation in the FlatTree arrays.
        index = QuadtreeIndex(frontier="heap").fit(blobs)
        index.quantities(0.2)
        small = index.root.maxrho
        index.quantities(2.0)
        assert index.root.maxrho > small

    def test_flat_annotation_matches_node_annotation(self, blobs):
        from repro.indexes.kernels import flat_tree_maxrho

        index = QuadtreeIndex().fit(blobs)
        rho = index.rho_all(0.5)
        index._annotate_maxrho(rho)
        flat = index._flat_tree()
        flat_rows = flat_tree_maxrho(flat, rho[None, :])
        # Node 0 of the flat image is the root; spot-check the whole BFS
        # order against the per-node annotation.
        nodes = [index.root]
        start, stop = 0, 1
        while start < stop:
            for i in range(start, stop):
                if nodes[i].children is not None:
                    nodes.extend(nodes[i].children)
            start, stop = stop, len(nodes)
        for i, node in enumerate(nodes):
            assert flat_rows[0, i] == node.maxrho


class TestBoundFns:
    def test_fast_path_matches_generic_euclidean_2d(self, blobs):
        index = KDTreeIndex().fit(blobs)
        mindist, maxdist, q_of = index._bound_fns()
        rect_min = index.metric.rect_mindist
        rect_max = index.metric.rect_maxdist
        nodes = list(index.root.iter_nodes())[:10]
        for p in blobs[::50]:
            q = q_of(p)
            for node in nodes:
                assert mindist(q, node) == pytest.approx(
                    rect_min(p, node.lo, node.hi), abs=1e-12
                )
                assert maxdist(q, node) == pytest.approx(
                    rect_max(p, node.lo, node.hi), abs=1e-12
                )

    def test_generic_path_used_for_other_metrics(self, blobs):
        index = KDTreeIndex(metric="manhattan").fit(blobs)
        mindist, _, q_of = index._bound_fns()
        node = index.root
        p = blobs[0]
        assert mindist(q_of(p), node) == index.metric.rect_mindist(p, node.lo, node.hi)

    def test_generic_path_used_for_3d(self, rng):
        pts = rng.normal(size=(80, 3))
        index = KDTreeIndex().fit(pts)
        mindist, _, q_of = index._bound_fns()
        p = pts[0]
        assert mindist(q_of(p), index.root) == index.metric.rect_mindist(
            p, index.root.lo, index.root.hi
        )


class TestStatsBookkeeping:
    def test_reset_stats(self, blobs):
        index = RTreeIndex().fit(blobs)
        index.quantities(0.5)
        assert index.stats().total_work() > 0
        index.reset_stats()
        assert index.stats().total_work() == 0

    def test_refit_resets_stats(self, blobs):
        """Probe counters are per-fit epochs; a refit must not accumulate
        work from the previous dataset (regression — the Theorem 1-4
        complexity checks silently double-counted across re-fits)."""
        index = RTreeIndex().fit(blobs)
        index.quantities(0.5)
        assert index.stats().total_work() > 0
        index.fit(blobs * 2.0)
        assert index.stats().total_work() == 0

    def test_stats_dict_keys(self, blobs):
        index = RTreeIndex().fit(blobs)
        index.quantities(0.5)
        d = index.stats().as_dict()
        assert set(d) == {
            "distance_evals",
            "objects_scanned",
            "nodes_visited",
            "nodes_pruned_density",
            "nodes_pruned_distance",
            "nodes_contained",
            "binary_searches",
        }

    def test_node_count_and_height(self, blobs):
        index = RTreeIndex(max_entries=4).fit(blobs)
        assert index.node_count() == len(list(index.root.iter_nodes()))
        assert index.height() >= 2

    def test_root_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            RTreeIndex().root


class TestFlatTreeLifecycle:
    def test_bulk_fit_builds_flat_image_up_front(self, blobs):
        index = RTreeIndex().fit(blobs)
        assert index.build_ == "bulk"
        assert index._flat is not None  # the image *is* the fit product
        assert index._root is None  # no object graph materialised by fit...
        index.quantities(0.5)
        assert index._root is None  # ...nor by the batched queries

    def test_objects_memory_bytes_counts_flat_image(self, blobs):
        index = RTreeIndex(build="objects").fit(blobs)
        before = index.memory_bytes()
        index.quantities(0.5)  # materialises the FlatTree lazily
        after = index.memory_bytes()
        assert after > before
        assert after - before == index._flat.nbytes()

    def test_refit_drops_flat_cache_objects(self, blobs):
        index = RTreeIndex(build="objects").fit(blobs)
        index.quantities(0.5)
        assert index._flat is not None
        index.fit(blobs * 2.0)
        assert index._flat is None  # old tree not pinned across refits
        index.quantities(0.5)
        assert index._flat.root is index.root

    def test_refit_replaces_flat_image_bulk(self, blobs):
        index = RTreeIndex().fit(blobs)
        stale = index._flat
        index.fit(blobs * 2.0)
        assert index._flat is not stale  # old image not pinned across refits
        assert index._flat is not None

    def test_materialised_graph_does_not_double_count_flat_arrays(self, blobs):
        """tree_from_flat nodes are views into the flat arrays; only the
        per-node object overhead may be added on top of the image."""
        index = RTreeIndex().fit(blobs)
        before = index.memory_bytes()
        assert before == index._flat.nbytes()
        n_nodes = index.node_count()
        index.root  # materialise the object graph from the image
        added = index.memory_bytes() - before
        assert added == 64 * n_nodes + 8 * (n_nodes - 1)

    def test_rejected_refit_leaves_index_queryable(self, blobs):
        """Regression: clearing the tree before fit() validation ran left a
        previously-fitted index answering nothing after a bad refit call."""
        index = RTreeIndex().fit(blobs)
        expected = index.quantities(0.5)
        import numpy as np
        import pytest

        with pytest.raises(ValueError):
            index.fit(np.empty((0, 2)))
        got = index.quantities(0.5)
        np.testing.assert_array_equal(expected.rho, got.rho)
        np.testing.assert_array_equal(expected.delta, got.delta)

    def test_refit_drops_shard_pack_with_flat_cache(self, blobs):
        """Regression: the FlatTree cache is counted by memory_bytes and was
        invalidated on refit, but the *published* copy of it — the
        shared-memory shard image workers read — survived a second fit,
        leaving process-backend queries answering from the old dataset's
        tree.  Both caches must die together."""
        index = RTreeIndex(backend="process", n_jobs=2, chunk_size=17).fit(blobs)
        try:
            first = index.quantities(0.5)
            assert index._shard_pack is not None
            stale_pack = index._shard_pack
            stale_flat = index._flat
            index.fit(blobs * 2.0)
            assert index._flat is not stale_flat
            assert index._shard_pack is None
            assert stale_pack._finalizer.alive is False  # unlinked, not leaked
            got = index.quantities(0.5)
            ref = RTreeIndex().fit(blobs * 2.0).quantities(0.5)
            import numpy as np

            np.testing.assert_array_equal(ref.rho, got.rho)
            np.testing.assert_array_equal(ref.delta, got.delta)
            np.testing.assert_array_equal(ref.mu, got.mu)
            assert not np.array_equal(first.rho, got.rho) or len(first.rho) != len(got.rho)
        finally:
            index.release_execution()
