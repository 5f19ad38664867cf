"""R-tree index for DPC — paper Section 4.2.

Two construction modes, matching the paper's discussion:

* ``packing="str"`` (default) — Sort-Tile-Recursive bulk loading
  (Leutenegger et al., reference [12] of the paper): recursively sort by one
  dimension, tile into slabs, and pack full leaves; upper levels repack the
  leaf MBR centres the same way.  Produces a balanced tree with near-minimal
  overlap — "the packing algorithm often results in better structure".
* ``packing="dynamic"`` — Guttman's original insertion (reference [10]):
  ChooseLeaf by least area enlargement, quadratic split on overflow.  Kept
  as the ablation baseline for the packing-vs-dynamic benchmark.

Nodes carry tight MBRs of their contents (unlike the quadtree's fixed space
decomposition), ``nc``, and per-run ``maxrho``; queries come from
:mod:`repro.indexes.treebase` unchanged — the paper makes the same point by
omitting the R-tree query pseudo-code entirely.
"""

from __future__ import annotations

import math
from typing import ClassVar, List

import numpy as np

from repro.geometry.distance import Metric
from repro.indexes.build import _str_order, bulk_build_str
from repro.indexes.treebase import TreeIndexBase, TreeNode

__all__ = ["RTreeIndex"]


def _mbr_of(points: np.ndarray) -> tuple:
    return points.min(axis=0), points.max(axis=0)


def _union(lo1, hi1, lo2, hi2):
    return np.minimum(lo1, lo2), np.maximum(hi1, hi2)


def _area(lo, hi) -> float:
    # math.prod multiplies left to right as np.prod does (same products),
    # without the ufunc overhead ChooseLeaf pays on every insertion.
    return math.prod((hi - lo).tolist())


def _areas(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:func:`_area` over the last axis of box arrays: the same left-to-right
    per-axis products."""
    ext = hi - lo
    area = ext[..., 0]
    for axis in range(1, ext.shape[-1]):
        area = area * ext[..., axis]
    return area


def _first_max(values: np.ndarray) -> int:
    """The index a ``>`` scan from ``-inf`` keeps — the first strict maximum,
    never a NaN — or -1 when no value beats ``-inf``."""
    values = np.where(np.isnan(values), -np.inf, values)
    k = int(np.argmax(values))
    return k if values[k] > -np.inf else -1


class RTreeIndex(TreeIndexBase):
    """R-tree with STR packing (default) or dynamic Guttman insertion.

    Parameters
    ----------
    max_entries:
        Node capacity M (both leaf objects and internal fan-out).
    min_entries:
        Minimum fill m for the dynamic quadratic split (ignored by STR);
        defaults to ``⌈M/2⌉`` per Guttman's recommendation.
    packing:
        ``"str"`` or ``"dynamic"`` (see module docstring).
    build:
        ``"bulk"`` (default) — STR packing runs as the vectorised
        level-synchronous builder (:func:`repro.indexes.build.bulk_build_str`),
        producing a flat image node-for-node identical to the object-graph
        STR build.  Dynamic packing has no bulk path and always uses the
        object-graph insertion, whatever ``build`` says (``build_`` records
        the resolved path).
    """

    name: ClassVar[str] = "rtree"

    def __init__(
        self,
        metric: "str | Metric" = "euclidean",
        max_entries: int = 16,
        min_entries: int | None = None,
        packing: str = "str",
        density_pruning: bool = True,
        distance_pruning: bool = True,
        frontier: str = "batched",
        build: str = "bulk",
        backend: str = "serial",
        n_jobs: int | None = None,
        chunk_size: int | None = None,
    ):
        super().__init__(
            metric, density_pruning, distance_pruning, frontier, build,
            backend=backend, n_jobs=n_jobs, chunk_size=chunk_size,
        )
        if max_entries < 2:
            raise ValueError(f"max_entries must be >= 2, got {max_entries}")
        if packing not in ("str", "dynamic"):
            raise ValueError(f"packing must be 'str' or 'dynamic', got {packing!r}")
        self.max_entries = max_entries
        self.min_entries = (
            min_entries if min_entries is not None else max(1, max_entries // 2)
        )
        if not (1 <= self.min_entries <= self.max_entries // 2):
            raise ValueError(
                f"min_entries must be in [1, {max_entries // 2}], got {self.min_entries}"
            )
        self.packing = packing

    def _bulk_build(self):
        if self.packing != "str":
            return None  # dynamic insertion is inherently per-object
        return super()._bulk_build()

    def _bulk_image(self, pts):
        # STR packs the append repair's images even when the index itself
        # is dynamic: they never affect results.
        return bulk_build_str(pts, self.max_entries)

    def _build_objects(self) -> TreeNode:
        if self.packing == "str":
            return self._build_str()
        return self._build_dynamic()

    # -- STR bulk loading ------------------------------------------------------

    def _build_str(self) -> TreeNode:
        points = self.points
        ids = np.arange(len(points), dtype=np.int64)
        leaves = self._str_tile_points(ids)
        return self._pack_upward(leaves)

    def _str_tile_points(self, ids: np.ndarray) -> List[TreeNode]:
        """Recursively sort-tile ``ids`` into full leaves of M points."""
        points = self.points
        d = points.shape[1]

        def tile(sub: np.ndarray, dim: int) -> List[TreeNode]:
            if len(sub) <= self.max_entries:
                pts = points[sub]
                lo, hi = _mbr_of(pts)
                return [TreeNode(lo, hi, ids=sub)]
            if dim == d - 1:
                # Last dimension: chop the sorted run into consecutive leaves.
                order = sub[np.argsort(points[sub, dim], kind="stable")]
                out = []
                for start in range(0, len(order), self.max_entries):
                    chunk = order[start : start + self.max_entries]
                    lo, hi = _mbr_of(points[chunk])
                    out.append(TreeNode(lo, hi, ids=chunk))
                return out
            # Tile into s slabs along this dimension, recurse on the rest.
            n_leaves = math.ceil(len(sub) / self.max_entries)
            s = math.ceil(n_leaves ** (1.0 / (d - dim)))
            slab_size = math.ceil(len(sub) / s)
            order = sub[np.argsort(points[sub, dim], kind="stable")]
            out = []
            for start in range(0, len(order), slab_size):
                out.extend(tile(order[start : start + slab_size], dim + 1))
            return out

        return tile(ids, 0)

    def _pack_upward(self, level: List[TreeNode]) -> TreeNode:
        """Repack node MBR centres with STR until a single root remains."""
        d = self.points.shape[1]
        while len(level) > 1:
            centers = np.array([(n.lo + n.hi) / 2.0 for n in level])
            order = self._str_order(centers, d)
            next_level: List[TreeNode] = []
            for start in range(0, len(level), self.max_entries):
                group = [level[order[i]] for i in range(start, min(start + self.max_entries, len(level)))]
                lo, hi = group[0].lo, group[0].hi
                for child in group[1:]:
                    lo, hi = _union(lo, hi, child.lo, child.hi)
                next_level.append(TreeNode(lo, hi, children=group))
            level = next_level
        return level[0]

    def _str_order(self, centers: np.ndarray, d: int) -> np.ndarray:
        """STR ordering of node centres (sort-tile on successive dimensions).

        One authoritative implementation, shared with the bulk builder —
        the node-for-node STR identity contract depends on both paths
        grouping through the exact same slab arithmetic.
        """
        return _str_order(centers, self.max_entries)

    # -- dynamic Guttman insertion ------------------------------------------------

    def _build_dynamic(self) -> TreeNode:
        points = self.points
        first = points[0]
        root = TreeNode(first.copy(), first.copy(), ids=None)
        root.ids = np.empty(0, dtype=np.int64)
        self._leaf_buffers = {id(root): [0]}
        root.lo = first.copy()
        root.hi = first.copy()
        for p in range(1, len(points)):
            root = self._insert(root, p)
        self._flush_leaf_buffers(root)
        del self._leaf_buffers
        return root

    def _insert(self, root: TreeNode, p: int) -> TreeNode:
        q = self.points[p]
        path: List[TreeNode] = []
        node = root
        while not node.is_leaf:
            path.append(node)
            node = self._choose_child(node, q)
        self._leaf_buffers[id(node)].append(p)
        node.lo = np.minimum(node.lo, q)
        node.hi = np.maximum(node.hi, q)
        # Overflow handling, propagating splits upward.
        split = None
        if len(self._leaf_buffers[id(node)]) > self.max_entries:
            split = self._split_leaf(node)
        child = node
        while path:
            parent = path.pop()
            parent.lo = np.minimum(parent.lo, q)
            parent.hi = np.maximum(parent.hi, q)
            if split is not None:
                parent.children.append(split)
                split = None
                if len(parent.children) > self.max_entries:
                    split = self._split_internal(parent)
            child = parent
        if split is not None:
            # Root overflowed: grow the tree by one level.
            lo, hi = _union(child.lo, child.hi, split.lo, split.hi)
            return TreeNode(lo, hi, children=[child, split])
        return child

    def _choose_child(self, node: TreeNode, q: np.ndarray) -> TreeNode:
        """Guttman ChooseLeaf: least enlargement, ties by smallest area."""
        best, best_key = None, None
        for child in node.children:
            lo, hi = np.minimum(child.lo, q), np.maximum(child.hi, q)
            area = _area(child.lo, child.hi)
            key = (_area(lo, hi) - area, area)
            if best_key is None or key < best_key:
                best, best_key = child, key
        return best

    def _entry_boxes(self, node: TreeNode):
        """(lo, hi, payload) triples of a node's entries, leaf or internal."""
        if node.is_leaf:
            ids = self._leaf_buffers[id(node)]
            return [(self.points[i], self.points[i], i) for i in ids]
        return [(c.lo, c.hi, c) for c in node.children]

    @np.errstate(over="ignore", invalid="ignore")
    def _quadratic_split(self, entries):
        """Guttman's quadratic PickSeeds / PickNext distribution.

        Each pick scores all its candidates at once with the arithmetic of
        the pairwise loops it replaces (kept in
        ``tests/rtree_split_reference.py``) and keeps the same winner: the
        first strict maximum, in the loops' order, that a NaN never takes.
        Overflowing areas are inf (and ``inf - inf`` NaN) as in the loops,
        without numpy's warnings.
        """
        n = len(entries)
        lo = np.array([e[0] for e in entries])
        hi = np.array([e[1] for e in entries])
        area = _areas(lo, hi)
        # PickSeeds: the pair i < j (row-major) whose union wastes most area.
        waste = (
            _areas(np.minimum(lo[:, None], lo[None, :]), np.maximum(hi[:, None], hi[None, :]))
            - area[:, None]
            - area[None, :]
        )
        waste[np.tril_indices(n)] = -np.inf
        k = _first_max(waste.ravel())
        seeds = divmod(k, n) if k >= 0 else (0, 1)
        group_a = [entries[seeds[0]]]
        group_b = [entries[seeds[1]]]
        box_a = (entries[seeds[0]][0].copy(), entries[seeds[0]][1].copy())
        box_b = (entries[seeds[1]][0].copy(), entries[seeds[1]][1].copy())
        rest = [k for k in range(n) if k not in seeds]
        while rest:
            # Honour the minimum fill requirement.
            if len(group_a) + len(rest) == self.min_entries:
                group_a.extend(entries[k] for k in rest)
                for k in rest:
                    box_a = _union(box_a[0], box_a[1], lo[k], hi[k])
                break
            if len(group_b) + len(rest) == self.min_entries:
                group_b.extend(entries[k] for k in rest)
                for k in rest:
                    box_b = _union(box_b[0], box_b[1], lo[k], hi[k])
                break
            # PickNext: entry with the greatest preference difference.
            r_lo, r_hi = lo[rest], hi[rest]
            area_a, area_b = _area(*box_a), _area(*box_b)
            ga = _areas(*_union(box_a[0], box_a[1], r_lo, r_hi)) - area_a
            gb = _areas(*_union(box_b[0], box_b[1], r_lo, r_hi)) - area_b
            k = _first_max(np.abs(ga - gb))
            k, (ga, gb) = (k, (ga[k], gb[k])) if k >= 0 else (0, (0.0, 0.0))
            e = entries[rest.pop(k)]
            pick_a = ga < gb or (ga == gb and area_a <= area_b)
            if pick_a:
                group_a.append(e)
                box_a = _union(box_a[0], box_a[1], e[0], e[1])
            else:
                group_b.append(e)
                box_b = _union(box_b[0], box_b[1], e[0], e[1])
        return (group_a, box_a), (group_b, box_b)

    def _split_leaf(self, node: TreeNode) -> TreeNode:
        entries = self._entry_boxes(node)
        (group_a, box_a), (group_b, box_b) = self._quadratic_split(entries)
        self._leaf_buffers[id(node)] = [e[2] for e in group_a]
        node.lo, node.hi = box_a[0].copy(), box_a[1].copy()
        sibling = TreeNode(box_b[0].copy(), box_b[1].copy(), ids=None)
        sibling.ids = np.empty(0, dtype=np.int64)
        self._leaf_buffers[id(sibling)] = [e[2] for e in group_b]
        return sibling

    def _split_internal(self, node: TreeNode) -> TreeNode:
        entries = self._entry_boxes(node)
        (group_a, box_a), (group_b, box_b) = self._quadratic_split(entries)
        node.children = [e[2] for e in group_a]
        node.lo, node.hi = box_a[0].copy(), box_a[1].copy()
        sibling = TreeNode(
            box_b[0].copy(), box_b[1].copy(), children=[e[2] for e in group_b]
        )
        return sibling

    def _flush_leaf_buffers(self, root: TreeNode) -> None:
        for node in root.iter_nodes():
            if node.is_leaf:
                node.ids = np.asarray(
                    sorted(self._leaf_buffers[id(node)]), dtype=np.int64
                )
