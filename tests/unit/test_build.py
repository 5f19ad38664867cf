"""Unit tests for the bulk FlatTree builders (repro.indexes.build)."""

import numpy as np
import pytest

from repro.datasets.loaders import load_dataset
from repro.indexes.build import (
    _stable_argsort,
    bulk_build_kdtree,
    bulk_build_quadtree,
    bulk_build_str,
    tree_from_flat,
)
from repro.indexes.kdtree import KDTreeIndex
from repro.indexes.kernels import FlatTree, flatten_tree
from repro.indexes.persist import load_index, save_index
from repro.indexes.quadtree import QuadtreeIndex
from repro.indexes.rtree import RTreeIndex
from repro.indexes.treebase import TreeNode

from tests.conftest import assert_quantities_equal


@pytest.fixture
def tie_heavy():
    r = np.random.default_rng(11)
    lattice = r.integers(0, 4, size=(60, 2)).astype(np.float64)
    dups = np.tile([[1.5, 2.5]], (30, 1))
    return np.concatenate([lattice, dups, r.normal(size=(40, 2))])


def assert_flat_well_formed(flat, points):
    """Structural invariants every FlatTree image must satisfy."""
    n = len(points)
    assert flat.nc[0] == n
    assert flat.levels[0] == (0, 1)
    assert flat.n_nodes == flat.levels[-1][1]
    # every point in exactly one leaf
    assert sorted(flat.leaf_ids.tolist()) == list(range(n))
    # children contiguous, counts consistent, parents correct
    for i in range(flat.n_nodes):
        cc = int(flat.child_count[i])
        if cc:
            cs = int(flat.child_start[i])
            assert flat.nc[cs : cs + cc].sum() == flat.nc[i]
            assert (flat.parent[cs : cs + cc] == i).all()
            for j in range(cs, cs + cc):
                assert (flat.lo[j] >= flat.lo[i] - 1e-12).all()
                assert (flat.hi[j] <= flat.hi[i] + 1e-12).all()
        else:
            ids = flat.leaf_ids[
                flat.leaf_start[i] : flat.leaf_start[i] + flat.leaf_size[i]
            ]
            assert len(ids) == flat.nc[i]
            if len(ids):
                pts = points[ids]
                assert (pts >= flat.lo[i] - 1e-12).all()
                assert (pts <= flat.hi[i] + 1e-12).all()
    # levels partition the id space and children always live one level down
    spans = [tuple(level) for level in flat.levels]
    assert spans[0][0] == 0
    for (a, b), (c, d) in zip(spans, spans[1:]):
        assert b == c


class TestBuilders:
    def test_str_image_well_formed(self, tie_heavy):
        flat = bulk_build_str(tie_heavy, max_entries=6)
        assert_flat_well_formed(flat, tie_heavy)

    def test_kdtree_image_well_formed(self, tie_heavy):
        flat = bulk_build_kdtree(tie_heavy, leaf_size=8)
        assert_flat_well_formed(flat, tie_heavy)

    def test_quadtree_image_well_formed(self, tie_heavy):
        flat = bulk_build_quadtree(tie_heavy, capacity=8, max_depth=32)
        assert_flat_well_formed(flat, tie_heavy)

    def test_kdtree_median_split_balanced(self):
        pts = np.random.default_rng(0).normal(size=(257, 3))
        flat = bulk_build_kdtree(pts, leaf_size=4)
        for i in range(flat.n_nodes):
            if flat.child_count[i] == 2:
                cs = int(flat.child_start[i])
                left, right = flat.nc[cs], flat.nc[cs + 1]
                assert abs(left - right) <= 1
            elif flat.child_count[i] == 0:
                # leaves over capacity only for zero-extent (duplicate) cells
                if flat.nc[i] > 4:
                    assert (flat.lo[i] == flat.hi[i]).all()

    def test_kdtree_boxes_tight(self):
        pts = np.random.default_rng(1).normal(size=(200, 2))
        flat = bulk_build_kdtree(pts, leaf_size=16)
        index = KDTreeIndex(build="bulk", leaf_size=16).fit(pts)
        for node in index.root.iter_nodes():
            if node.is_leaf and len(node.ids):
                np.testing.assert_allclose(node.lo, pts[node.ids].min(axis=0))
                np.testing.assert_allclose(node.hi, pts[node.ids].max(axis=0))
        assert flat.n_nodes == index.node_count()

    def test_quadtree_duplicates_terminate_at_max_depth(self):
        pts = np.tile([[1.0, 2.0]], (50, 1))
        flat = bulk_build_quadtree(pts, capacity=4, max_depth=7)
        assert flat.nc[0] == 50
        assert len(flat.levels) <= 8  # root + max_depth

    def test_quadtree_denormal_extent_falls_back(self):
        """Regression: a denormal-scale extent underflows the depth-D cell
        width to zero, leaving no usable Morton lattice; the bulk path must
        decline rather than emit leaves whose boxes exclude their points."""
        pts = np.array(
            [[0.0, 0.0], [1e-315, 5e-316], [5e-316, 1e-315], [2e-315, 0.0]]
        ).repeat(4, axis=0)
        assert bulk_build_quadtree(pts, capacity=1, max_depth=32) is None
        index = QuadtreeIndex(capacity=1).fit(pts)
        assert index.build_ == "objects"
        for node in index.root.iter_nodes():
            if node.is_leaf and len(node.ids):
                assert (pts[node.ids] >= node.lo).all()
                assert (pts[node.ids] <= node.hi).all()

    def test_quadtree_max_depth_beyond_morton_falls_back(self):
        assert bulk_build_quadtree(np.zeros((4, 2)), 1, 33) is None
        index = QuadtreeIndex(max_depth=40, capacity=1).fit(
            np.random.default_rng(2).normal(size=(30, 2))
        )
        assert index.build_ == "objects"

    def test_str_single_leaf_root(self):
        pts = np.random.default_rng(3).normal(size=(5, 2))
        flat = bulk_build_str(pts, max_entries=8)
        assert flat.n_nodes == 1
        assert flat.leaf_size[0] == 5

    def test_str_higher_dimensions(self):
        pts = np.random.default_rng(4).normal(size=(300, 4))
        a = RTreeIndex(build="objects", max_entries=5).fit(pts)
        b = RTreeIndex(build="bulk", max_entries=5).fit(pts)
        fa, fb = flatten_tree(a.root), b._flat_tree()
        for name in FlatTree.ARRAY_FIELDS:
            np.testing.assert_array_equal(getattr(fa, name), getattr(fb, name))

    def test_sort_within_segments_with_real_infs_behind_pads(self):
        """Regression: introsort may scramble a real +inf behind the pads of
        a short row; the repair must pull every real entry back in front."""
        from repro.indexes.build import _sort_within_segments

        r = np.random.default_rng(9)
        vals = r.normal(size=160)
        vals[100:130] = np.inf  # second (short) segment: 30 real +inf values
        starts = np.array([0, 100], dtype=np.int64)
        sizes = np.array([100, 60], dtype=np.int64)
        perm = np.arange(160, dtype=np.int64)
        expected = perm.copy()
        for s, z in zip(starts, sizes):
            expected[s : s + z] = s + np.argsort(vals[s : s + z], kind="stable")
        _sort_within_segments(perm, starts, sizes, vals)
        np.testing.assert_array_equal(perm, expected)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf-inf centres
    def test_str_identity_with_inf_coordinates(self):
        """fit() refuses +-inf coords; below it, the two STR builders still
        agree on them (neither crashes or silently drops points)."""
        r = np.random.default_rng(10)
        pts = r.normal(size=(400, 2))
        pts[350:390, 1] = np.inf
        pts[390:, 1] = -np.inf
        for build in ("objects", "bulk"):
            with pytest.raises(ValueError, match="points must be finite"):
                RTreeIndex(build=build, max_entries=8).fit(pts)
        index = RTreeIndex(max_entries=8)
        index.points = pts  # what fit() would hand both builders
        root = index._build_objects()
        root.finalize_counts()
        fa, fb = flatten_tree(root), index._bulk_build()
        for name in FlatTree.ARRAY_FIELDS:
            np.testing.assert_array_equal(getattr(fa, name), getattr(fb, name))

    def test_stable_argsort_matches_numpy(self):
        r = np.random.default_rng(5)
        for arr in (
            r.normal(size=1000),
            np.repeat(r.normal(size=20), 50),
            np.zeros(64),
            np.array([0.0, -0.0, 1.0, -0.0, 0.0]),
            r.integers(0, 3, size=500).astype(float),
        ):
            np.testing.assert_array_equal(
                _stable_argsort(arr), np.argsort(arr, kind="stable")
            )


class TestTreeFromFlat:
    def test_round_trip_through_flatten(self, tie_heavy):
        flat = bulk_build_kdtree(tie_heavy, leaf_size=8)
        root = tree_from_flat(flat)
        again = flatten_tree(root)
        for name in FlatTree.ARRAY_FIELDS:
            np.testing.assert_array_equal(getattr(flat, name), getattr(again, name))
        assert flat.nodes is not None  # annotation scatter list filled

    def test_scalar_fast_path_boxes_filled(self, tie_heavy):
        index = QuadtreeIndex(capacity=8).fit(tie_heavy)
        root = index.root  # materialise
        assert root.lo_t is not None and root.hi_t is not None


class TestIterativeTreeNodeOps:
    """Regression: recursion-limit safety of finalize_counts/height."""

    @staticmethod
    def _chain(depth):
        leaf = TreeNode(np.zeros(2), np.ones(2), ids=np.array([0], dtype=np.int64))
        node = leaf
        for _ in range(depth):
            node = TreeNode(np.zeros(2), np.ones(2), children=[node])
        return node

    def test_deep_chain_finalize_and_height(self):
        # Far beyond the default recursion limit; the recursive versions die.
        root = self._chain(5000)
        assert root.finalize_counts() == 1
        assert root.height() == 5001

    def test_ascending_coordinate_stream_dynamic_rtree(self):
        """The adversarial dynamic-insertion order: a stream of strictly
        ascending coordinates fed point by point.  Every ``add_points``
        refits, re-inserting and re-finalizing the degenerate tree."""
        pts = np.stack([np.arange(300.0), np.arange(300.0) * 2.0], axis=1)
        index = RTreeIndex(packing="dynamic").fit(pts[:1])
        for p in pts[1:]:
            index.add_points(p[None, :])
        assert index.build_ == "objects"
        assert index.n == len(pts)
        from repro.core.baseline import naive_quantities

        assert_quantities_equal(
            naive_quantities(pts, 5.0), index.quantities(5.0)
        )


@pytest.fixture(scope="module")
def s1_5k():
    return load_dataset("s1", n=5000, seed=0)


@pytest.fixture
def tree_nodes_made(monkeypatch):
    """How many ``TreeNode`` objects have been constructed since setup."""
    made = [0]
    init = TreeNode.__init__

    def counting_init(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(TreeNode, "__init__", counting_init)
    return made


class TestBulkPathTaken:
    """A default fit stays on the bulk builder.  A fall-back to the
    per-node builders would change no answer, only the cost."""

    @pytest.mark.parametrize("family", (RTreeIndex, KDTreeIndex, QuadtreeIndex))
    def test_default_fit_and_batched_query_make_no_tree_nodes(
        self, family, s1_5k, tree_nodes_made
    ):
        index = family().fit(s1_5k.points)
        index.quantities(float(min(s1_5k.params.dc_grid)))
        assert index.build_ == "bulk"
        assert tree_nodes_made[0] == 0

    @pytest.mark.parametrize("family", (RTreeIndex, KDTreeIndex, QuadtreeIndex))
    def test_objects_fit_makes_one_tree_node_per_node(
        self, family, s1_5k, tree_nodes_made
    ):
        index = family(build="objects").fit(s1_5k.points)
        assert index.build_ == "objects"
        assert tree_nodes_made[0] == sum(1 for _ in index.root.iter_nodes())
        assert tree_nodes_made[0] > 100  # 348 / 511 / 553 nodes at n=5000


class TestPersistedFlatImage:
    @pytest.mark.parametrize("family", (RTreeIndex, KDTreeIndex, QuadtreeIndex))
    def test_round_trip_skips_rebuild_and_matches_fresh_flatten(
        self, family, tie_heavy, tmp_path
    ):
        index = family().fit(tie_heavy)
        path = tmp_path / "tree.npz"
        save_index(index, str(path))
        loaded = load_index(str(path))
        assert loaded._flat is not None  # image restored...
        assert loaded._root is None  # ...without building any object graph
        assert loaded.build_ == "bulk"
        # the loaded image equals a fresh build of the stored points
        fresh = family().fit(tie_heavy)._flat_tree()
        for name in FlatTree.ARRAY_FIELDS:
            np.testing.assert_array_equal(
                getattr(loaded._flat, name), getattr(fresh, name), err_msg=name
            )
        assert [tuple(l) for l in loaded._flat.levels] == [
            tuple(l) for l in fresh.levels
        ]
        dc = 1.0
        assert_quantities_equal(index.quantities(dc), loaded.quantities(dc))

    def test_fingerprint_unchanged_by_build_mode_and_round_trip(
        self, tie_heavy, tmp_path
    ):
        bulk = RTreeIndex(build="bulk").fit(tie_heavy)
        objects = RTreeIndex(build="objects").fit(tie_heavy)
        assert bulk.fingerprint() == objects.fingerprint()
        path = tmp_path / "tree.npz"
        save_index(bulk, str(path))
        assert load_index(str(path)).fingerprint() == bulk.fingerprint()

    def test_tampered_flat_arrays_rejected_on_load(self, tie_heavy, tmp_path):
        """The point fingerprint cannot cover arrays loaded verbatim; the
        flat image carries its own digest, verified on load."""
        index = RTreeIndex().fit(tie_heavy)
        path = tmp_path / "tree.npz"
        save_index(index, str(path))
        with np.load(str(path), allow_pickle=False) as data:
            payload = {name: data[name] for name in data.files}
        payload["flatleaf_ids"] = payload["flatleaf_ids"][::-1].copy()
        np.savez_compressed(str(tmp_path / "evil.npz"), **payload)
        with pytest.raises(ValueError, match="digest mismatch"):
            load_index(str(tmp_path / "evil.npz"))
        # stripping the digest must not bypass the check either
        import json

        meta = json.loads(str(payload["meta"]))
        del meta["flat"]["digest"]
        payload["meta"] = json.dumps(meta)
        np.savez_compressed(str(tmp_path / "evil2.npz"), **payload)
        with pytest.raises(ValueError, match="no integrity digest"):
            load_index(str(tmp_path / "evil2.npz"))

    def test_objects_built_tree_persists_its_image_too(self, tie_heavy, tmp_path):
        index = RTreeIndex(build="objects").fit(tie_heavy)
        path = tmp_path / "tree.npz"
        save_index(index, str(path))
        loaded = load_index(str(path))
        assert loaded._flat is not None
        assert loaded.build_ == "objects"  # records what built the image
        dc = 1.0
        assert_quantities_equal(index.quantities(dc), loaded.quantities(dc))
