"""kd-tree index for DPC (extension beyond the paper's index set).

The paper studies Quadtree and R-tree; a balanced kd-tree is the natural
third tree (and the structure the calibration notes map most directly onto
scipy/sklearn neighbour machinery — built from scratch here).  It slots into
the identical Observation-1 / Lemma-1 / Lemma-2 query framework from
:mod:`repro.indexes.treebase`:

* construction: median split on the widest dimension (sliding midpoint is
  unnecessary since we split on the median — subtrees differ by at most one
  object, so the height is always ``⌈log2(n / leaf_size)⌉ + 1``);
* nodes carry *tight* bounding boxes of their contents, like the R-tree, so
  pruning quality is comparable while construction is simpler.

Works in any dimension, unlike the paper's 2-D quadtree.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from repro.geometry.distance import Metric
from repro.indexes.build import bulk_build_kdtree
from repro.indexes.treebase import TreeIndexBase, TreeNode

__all__ = ["KDTreeIndex"]


class KDTreeIndex(TreeIndexBase):
    """Balanced kd-tree with tight boxes and the shared pruned DPC queries.

    Parameters
    ----------
    leaf_size:
        Maximum objects per leaf.
    build:
        ``"bulk"`` (default) builds the flat image level-by-level from
        per-dimension presorted permutations
        (:func:`repro.indexes.build.bulk_build_kdtree`); ``"objects"`` is
        the recursive ``argpartition`` reference.  Same split rule, but
        median *ties* may fall on different sides, so the two trees can
        differ in shape on tie-heavy data — results are bit-identical
        either way (the queries are exact over any valid tree).
    """

    name: ClassVar[str] = "kdtree"

    def __init__(
        self,
        metric: "str | Metric" = "euclidean",
        leaf_size: int = 32,
        density_pruning: bool = True,
        distance_pruning: bool = True,
        frontier: str = "batched",
        build: str = "bulk",
        backend: str = "serial",
        n_jobs: "int | None" = None,
        chunk_size: "int | None" = None,
    ):
        super().__init__(
            metric, density_pruning, distance_pruning, frontier, build,
            backend=backend, n_jobs=n_jobs, chunk_size=chunk_size,
        )
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        self.leaf_size = leaf_size

    def _bulk_image(self, pts):
        return bulk_build_kdtree(pts, self.leaf_size)

    def _build_objects(self) -> TreeNode:
        ids = np.arange(len(self.points), dtype=np.int64)
        return self._build_node(ids)

    def _build_node(self, ids: np.ndarray) -> TreeNode:
        pts = self.points[ids]
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        if len(ids) <= self.leaf_size:
            return TreeNode(lo, hi, ids=ids)
        extent = hi - lo
        axis = int(np.argmax(extent))
        if extent[axis] == 0.0:
            # All remaining points coincide; splitting cannot help.
            return TreeNode(lo, hi, ids=ids)
        half = len(ids) // 2
        part = np.argpartition(pts[:, axis], half)
        left = ids[part[:half]]
        right = ids[part[half:]]
        node = TreeNode(lo, hi, children=[self._build_node(left), self._build_node(right)])
        return node
