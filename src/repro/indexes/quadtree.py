"""Quadtree index for DPC — paper Section 4.1.

A PR (point-region) quadtree over 2-D space: each internal node splits its
square region into four equal quadrants; a node splits when it holds more
than ``capacity`` objects.  As the paper notes, the shape follows the *data
distribution* — skewed data can make the tree deep and unbalanced, which is
exactly the weakness the R-tree comparison (Section 4.2) targets.

Construction defaults to the Morton-key bulk builder
(:func:`repro.indexes.build.bulk_build_quadtree`): every point's full
quadrant path is derived in one vectorised pass and a single sort groups
all tree levels at once, producing the flattened query image directly.  The
recursive mask-partition build (equivalent to the paper's repeated
insertion) is kept as the ``build="objects"`` reference.  ``nc`` is filled
during construction; ``maxrho`` is annotated per clustering run by the
shared machinery in :mod:`repro.indexes.treebase`, which also provides the
Algorithm 5/6 queries.
"""

from __future__ import annotations

from typing import ClassVar, Optional

import numpy as np

from repro.geometry.distance import Metric
from repro.indexes.build import _padded_box, bulk_build_quadtree
from repro.indexes.treebase import TreeIndexBase, TreeNode

__all__ = ["QuadtreeIndex"]


class QuadtreeIndex(TreeIndexBase):
    """PR quadtree (2-D only, like the paper's).

    Parameters
    ----------
    capacity:
        Maximum objects in a leaf before it splits.
    max_depth:
        Hard recursion cap; duplicate-heavy data would otherwise split
        forever (the paper's worst case "height may become linear").
    build:
        ``"bulk"`` (default) derives every point's full quadrant path in a
        single Morton-key pass (:func:`repro.indexes.build.bulk_build_quadtree`);
        ``"objects"`` is the recursive mask-partition reference.  Quadrant
        boundaries may differ by ulps between the two (grid arithmetic vs
        repeated midpoint averaging), a legitimate shape difference —
        results are bit-identical either way.  ``max_depth > 32`` exceeds
        the Morton key and falls back to the object path.
    """

    name: ClassVar[str] = "quadtree"
    required_ndim: ClassVar[Optional[int]] = 2

    def __init__(
        self,
        metric: "str | Metric" = "euclidean",
        capacity: int = 32,
        max_depth: int = 32,
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
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.capacity = capacity
        self.max_depth = max_depth

    def _bulk_image(self, pts):
        return bulk_build_quadtree(pts, self.capacity, self.max_depth)

    def _build_objects(self) -> TreeNode:
        points = self.points
        # A zero-extent axis (all points collinear) still needs a box with
        # positive area for quadrant splitting; inflate degenerate sides
        # (shared with the bulk builder so both decompose the same region).
        lo, hi = _padded_box(points)
        ids = np.arange(len(points), dtype=np.int64)
        return self._build_node(ids, lo, hi, depth=0)

    def _build_node(
        self, ids: np.ndarray, lo: np.ndarray, hi: np.ndarray, depth: int
    ) -> TreeNode:
        if len(ids) <= self.capacity or depth >= self.max_depth:
            return TreeNode(lo, hi, ids=ids)
        pts = self.points[ids]
        cx, cy = (lo + hi) / 2.0
        east = pts[:, 0] >= cx  # boundary points go to the high-side quadrant
        north = pts[:, 1] >= cy
        children = []
        quadrant_boxes = (
            (np.array([lo[0], lo[1]]), np.array([cx, cy]), ~east & ~north),  # SW
            (np.array([cx, lo[1]]), np.array([hi[0], cy]), east & ~north),  # SE
            (np.array([lo[0], cy]), np.array([cx, hi[1]]), ~east & north),  # NW
            (np.array([cx, cy]), np.array([hi[0], hi[1]]), east & north),  # NE
        )
        for qlo, qhi, mask in quadrant_boxes:
            sub = ids[mask]
            if len(sub) == 0:
                continue  # empty quadrants are not materialised
            children.append(self._build_node(sub, qlo, qhi, depth + 1))
        node = TreeNode(lo, hi, children=children)
        return node
