"""Shared query machinery for the tree-based indexes (paper Section 4).

The paper develops one pruning framework and applies it to both Quadtree and
R-tree ("the pruning techniques are still valid for R-tree ... we omit the
discussions", Section 4.2.2).  We follow the same factoring: any tree whose
nodes expose a bounding box, a child list / leaf id array, an object count
``nc`` and a per-run ``maxrho`` gets

* the ρ query of Algorithm 5 — classify each node against the query circle
  as *discarded* (``dmin ≥ dc``), *fully contained* (``dmax < dc``, add
  ``nc`` wholesale) or *intersected* (recurse) — Observation 1.  The
  traversal is batched level-synchronously over the flattened tree
  (:func:`repro.indexes.kernels.tree_rho_batched`), with the queries of
  one leaf moving as a group: a node is decided for the whole group when
  the group's bounding box already settles it, and member by member
  otherwise; intersected leaves are scanned from fixed-width rows of leaf
  coordinates.  Every point still meets each node it reaches with the
  outcome of the per-point algorithm, so ρ and the probe counters are
  identical to it;
* the δ query of Algorithm 6 — best-first search with **density pruning**
  (Lemma 1: skip nodes with ``maxrho < ρ(p)``; equality is kept so id
  tie-breaking stays exact) and **distance pruning** (Lemma 2: skip nodes
  with ``dmin`` beyond the candidate δ).  The default ``frontier="batched"``
  runs it through the frontier-batched engine of
  :func:`repro.indexes.kernels.tree_delta_batched` — whole blocks of
  unresolved query points advance through the tree per Python step, the
  queries of one leaf as a group while the group's bounds decide a node for
  all of them (each point still meets every node with its per-point
  decisions), and a multi-``dc`` sweep (``delta_all_multi``) shares one
  maxrho annotation and one traversal schedule across all of its density
  orders;
* the exact repair of an answer after points were appended
  (``quantities_after_append``), which reruns both engines only for what
  the new points can change.

Ablation knobs (DESIGN.md §3): both prunings can be disabled and the
best-first frontier can be the batched engine (default), a per-object heap
(the paper's "a priority queue can be used to replace the stack") or the
paper's original per-object ordered stack.  ``"heap"``/``"stack"`` are the
verbatim per-object reference paths the batched engine is property-tested
against.

Construction mirrors the same batched-vs-reference split: ``build="bulk"``
(default) constructs the flattened query image directly from the point
array (:mod:`repro.indexes.build` — no ``TreeNode`` graph on the hot path),
``build="objects"`` keeps the original per-node builders; the object graph
materialises lazily from the flat image when the reference frontiers or
structure introspection need it.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.quantities import NO_NEIGHBOR, DensityOrder, DPCQuantities
from repro.geometry.distance import Metric
from repro.indexes import parallel
from repro.indexes.base import DPCIndex
from repro.indexes.kernels import (
    delta_multi_from_orders,
    density_order_key,
    flat_tree_maxrho,
    flatten_tree,
    peak_delta_sweep,
    tree_delta_batched,
    tree_rho_batched,
)

__all__ = ["TreeNode", "TreeIndexBase"]


class TreeNode:
    """One node of a spatial tree: a box, plus children or leaf ids.

    ``lo``/``hi`` are the box corners, as raw arrays the metric's rectangle
    bounds read directly.  ``lo_t``/``hi_t`` are plain-float tuples of the
    same corners, filled by :meth:`finalize_counts`, for the scalar fast
    path of the 2-D Euclidean traversals.  ``nc`` is the number of objects below the node
    (paper Table 1); ``maxrho`` is (re)annotated per clustering run since it
    depends on ``dc``.
    """

    __slots__ = ("lo", "hi", "lo_t", "hi_t", "children", "ids", "nc", "maxrho")

    def __init__(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        children: Optional[List["TreeNode"]] = None,
        ids: Optional[np.ndarray] = None,
    ):
        self.lo = lo
        self.hi = hi
        self.lo_t = None
        self.hi_t = None
        self.children = children
        self.ids = ids
        self.nc = int(len(ids)) if ids is not None else 0
        self.maxrho = -1

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def finalize_counts(self) -> int:
        """Fill ``nc`` bottom-up and cache tuple boxes; returns the count.

        Iterative (explicit post-order stack): dynamic-insertion orders can
        produce trees whose depth exceeds the Python recursion limit, and
        finalisation must never be the thing that dies on them.
        """
        stack: List[Tuple["TreeNode", bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                node.nc = sum(child.nc for child in node.children)
                continue
            node.lo_t = tuple(float(v) for v in node.lo)
            node.hi_t = tuple(float(v) for v in node.hi)
            if node.children is not None:
                stack.append((node, True))
                stack.extend((child, False) for child in node.children)
            else:
                # Leaf ids may have been assigned after construction (the
                # dynamic R-tree buffers them); recompute rather than
                # trusting __init__.
                node.nc = int(len(node.ids)) if node.ids is not None else 0
        return self.nc

    def iter_nodes(self):
        """Pre-order iteration over the subtree (tests, memory accounting)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.children is not None:
                stack.extend(node.children)

    def height(self) -> int:
        """Leaf = 1.  Iterative (level frontier) — recursion-limit safe."""
        height = 0
        frontier: List["TreeNode"] = [self]
        while frontier:
            height += 1
            frontier = [
                child
                for node in frontier
                if node.children is not None
                for child in node.children
            ]
        return height


class TreeIndexBase(DPCIndex):
    """Query algorithms shared by Quadtree / R-tree / kd-tree.

    Subclasses build ``self._root`` in ``_build`` and may override
    ``memory_bytes``.  Query-behaviour knobs:

    Parameters
    ----------
    density_pruning, distance_pruning:
        Enable Lemma 1 / Lemma 2 in the δ query (both on by default; exposed
        for the ablation benchmarks — disabling them changes *work*, never
        *results*).
    frontier:
        ``"batched"`` (default) — the frontier-batched engine of
        :func:`repro.indexes.kernels.tree_delta_batched`; ``"heap"`` —
        per-object best-first via priority queue; ``"stack"`` — the paper's
        Algorithm 6 ordered stack (children pushed best-last so the nearest
        is popped first).  All three produce bit-identical (δ, μ).
    build:
        ``"bulk"`` (default) — construct the flattened
        :class:`~repro.indexes.kernels.FlatTree` image directly from the
        point array with the vectorised builders of
        :mod:`repro.indexes.build`; no ``TreeNode`` graph is materialised
        unless something asks for it (``root``, the per-object reference
        frontiers).  ``"objects"`` — the original per-node Python
        construction, kept as the property-tested reference.  ρ/δ/μ/labels/
        halo are bit-identical across both; probe counters agree wherever
        the tree shape does (always for STR, which is node-for-node
        identical).  ``build`` is a runtime knob like ``backend`` — it is
        never serialised and does not enter the content fingerprint.  The
        fit-resolved path lives in ``build_`` (a config may fall back, e.g.
        a dynamic-packing R-tree has no bulk path).
    backend, n_jobs, chunk_size:
        Query-execution policy (:mod:`repro.indexes.parallel`).  The ρ
        query and the batched δ frontier shard over query chunks against
        the shared flattened tree image; the per-object reference frontiers
        always run serially.  Results are bit-identical across backends.
    """

    def __init__(
        self,
        metric: "str | Metric" = "euclidean",
        density_pruning: bool = True,
        distance_pruning: bool = True,
        frontier: str = "batched",
        build: str = "bulk",
        backend: "str" = "serial",
        n_jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ):
        super().__init__(metric, backend=backend, n_jobs=n_jobs, chunk_size=chunk_size)
        if not self.metric.supports_rect_bounds:
            raise ValueError(
                f"metric {self.metric.name!r} has no exact rectangle bounds; "
                "tree indexes cannot prune with it (use a list-based index)"
            )
        if frontier not in ("batched", "heap", "stack"):
            raise ValueError(
                f"frontier must be 'batched', 'heap' or 'stack', got {frontier!r}"
            )
        if build not in ("bulk", "objects"):
            raise ValueError(f"build must be 'bulk' or 'objects', got {build!r}")
        self.density_pruning = density_pruning
        self.distance_pruning = distance_pruning
        self.frontier = frontier
        self.build = build
        self.build_: Optional[str] = None  # resolved per fit (or on load)
        self._root: Optional[TreeNode] = None
        self._flat = None  # FlatTree image (built at fit in bulk mode)
        self._root_views_flat = False  # nodes borrow the flat arrays

    # -- construction routing ----------------------------------------------------

    def _build(self) -> None:
        """Template: bulk image by default, object graph as reference.

        Subclasses provide ``_build_objects()`` (the verbatim per-node
        construction, returning the root) and ``_bulk_image(pts)`` (a
        :class:`~repro.indexes.kernels.FlatTree` over ``pts``, or ``None``
        when the family/configuration has no bulk path — e.g. quadtrees
        deeper than a Morton key can encode); a configuration whose own
        build is per-object (dynamic R-tree packing) overrides
        ``_bulk_build()`` to return ``None``.
        """
        # Drop the previous tree's structures only now — after fit()'s
        # validation has accepted the new points (a rejected refit must
        # leave the old fitted state queryable) — but before the new build
        # allocates, so two trees are never pinned at once.
        self._flat = None
        self._root = None
        self._root_views_flat = False
        flat = self._bulk_build() if self.build == "bulk" else None
        if flat is None:
            root = self._build_objects()
            root.finalize_counts()
            self._root = root
            self.build_ = "objects"
        else:
            self._flat = flat
            self.build_ = "bulk"

    def _build_objects(self) -> TreeNode:
        raise NotImplementedError

    def _bulk_build(self):
        return self._bulk_image(self.points)

    def _bulk_image(self, pts: np.ndarray):
        """Bulk-build a :class:`FlatTree` over ``pts`` (``None`` = no path);
        families override with their bulk builder."""
        return None

    # -- images over point subsets (the append repair) ---------------------------

    def _image_over(self, points: np.ndarray, ids: np.ndarray):
        """A :meth:`_bulk_image` over ``points[ids]`` whose ``leaf_ids`` are
        the global ``ids`` (``leaf_node_of`` stays indexed by position in
        ``ids``); ``None`` when the family has no bulk path.

        Such an image never affects *results* — the ρ/δ engines are exact
        over any valid tree of its member set — so it is bulk-built whatever
        the index's own build configuration.
        """
        image = self._bulk_image(points[ids])
        if image is not None:
            image.leaf_ids = ids[image.leaf_ids]
        return image

    # -- bound-function selection -------------------------------------------------

    def _bound_fns(self):
        """Pick (mindist, maxdist, q_of) node-bound callables for queries.

        For the ubiquitous 2-D Euclidean case a scalar ``math``-based fast
        path avoids per-visit numpy temporaries (~6x less traversal
        overhead); any other metric/dimension falls back to the generic
        rectangle bounds.  Both paths compute the exact same values, so
        pruning decisions are identical.
        """
        if self.metric.name == "euclidean" and self.points.shape[1] == 2:
            sqrt = math.sqrt

            def mindist(q, node) -> float:
                qx, qy = q
                lo = node.lo_t
                hi = node.hi_t
                dx = lo[0] - qx
                if dx < 0.0:
                    dx = qx - hi[0]
                    if dx < 0.0:
                        dx = 0.0
                dy = lo[1] - qy
                if dy < 0.0:
                    dy = qy - hi[1]
                    if dy < 0.0:
                        dy = 0.0
                return sqrt(dx * dx + dy * dy)

            def maxdist(q, node) -> float:
                qx, qy = q
                lo = node.lo_t
                hi = node.hi_t
                dx = qx - lo[0]
                dx2 = hi[0] - qx
                if dx2 > dx:
                    dx = dx2
                dy = qy - lo[1]
                dy2 = hi[1] - qy
                if dy2 > dy:
                    dy = dy2
                return sqrt(dx * dx + dy * dy)

            def q_of(point: np.ndarray):
                return (float(point[0]), float(point[1]))

        else:
            rect_min = self.metric.rect_mindist
            rect_max = self.metric.rect_maxdist

            def mindist(q, node) -> float:
                return rect_min(q, node.lo, node.hi)

            def maxdist(q, node) -> float:
                return rect_max(q, node.lo, node.hi)

            def q_of(point: np.ndarray):
                return point

        return mindist, maxdist, q_of

    # -- per-run annotation ------------------------------------------------------

    def _annotate_maxrho(self, rho: np.ndarray) -> None:
        """Per-run maxrho fill (the paper's pre-pass before Algorithm 6).

        Runs as a bottom-up level-ordered segment reduction over the flat
        image (:func:`repro.indexes.kernels.flat_tree_maxrho` — one
        ``reduceat`` per tree level, the same pass the batched engine and
        multi-``dc`` sweeps use), then scatters the per-node values onto the
        ``TreeNode`` graph for the per-object reference frontiers.  The old
        Python ``max(child.maxrho ...)`` walk — one numpy reduction per leaf,
        repeated for every density order — is gone.  Dtype-agnostic:
        integer ρ (Eq. 1 counts) and real-valued ρ (the kernel/kNN variants
        in :mod:`repro.extras.variants`) both work (int64 ρ is exact in
        float64 for any feasible n).
        """
        self.root  # materialises the object graph (and flat.nodes) if needed
        flat = self._flat_tree()
        nodes = flat.nodes
        if nodes is None:  # every producer fills it: flatten_tree/tree_from_flat
            raise RuntimeError("flat image has no node list; tree not materialised")
        vals = flat_tree_maxrho(flat, np.asarray(rho, dtype=np.float64)[None, :])[0]
        for node, v in zip(nodes, vals.tolist()):
            node.maxrho = v

    def _flat_tree(self):
        """The cached :class:`~repro.indexes.kernels.FlatTree` of this fit.

        In bulk mode the image *is* the fit product; in objects mode it is
        flattened lazily on first use.  Re-fits build fresh structures, so a
        stale object-graph flattening is detected by root identity.
        """
        self._require_fitted()
        if self._flat is None:
            self._flat = flatten_tree(self.root)
        elif self._flat.root is not None and self._flat.root is not self._root:
            self._flat = flatten_tree(self.root)
        return self._flat

    # -- sharded-execution image (repro.indexes.parallel) ---------------------------

    def _shard_arrays(self):
        arrays = self._flat_tree().as_arrays()
        arrays["points"] = self.points
        return arrays

    def _shard_meta(self):
        flat = self._flat_tree()
        return {
            "levels": flat.levels,
            "n_nodes": flat.n_nodes,
            "density_pruning": self.density_pruning,
            "distance_pruning": self.distance_pruning,
        }

    # -- ρ query (Algorithm 5 / Observation 1) -------------------------------------

    def _rho_all(self, dc: float) -> np.ndarray:
        # Batched Algorithm 5 over the flattened tree: the queries of each
        # leaf classify a node against Observation 1 — discarded /
        # contained / intersected — together when their bounding box
        # decides it for all of them, and one by one otherwise; either way
        # each point gets its per-point decisions (hence counts and probe
        # counters).  Sharded over query chunks by the execution backend
        # (bit-identical across backends).
        self._flat_tree()  # materialise before the shard image is published
        return self._sharded_rho(parallel.tree_rho_task, [float(dc)])[0]

    def rho_all_multi(self, dcs) -> np.ndarray:
        """ρ for a whole cut-off grid as one sharded ``(dc, chunk)`` wave."""
        self._require_fitted()
        dcs = self._validate_dcs(dcs)
        self._flat_tree()
        return np.stack(self._sharded_rho(parallel.tree_rho_task, dcs))

    # -- δ query (Algorithm 6) --------------------------------------------------------

    def delta_all(self, order: DensityOrder) -> Tuple[np.ndarray, np.ndarray]:
        if self.frontier == "batched":
            return self.delta_all_multi([order])[0]
        points = self._require_fitted()
        n = len(points)
        if len(order) != n:
            raise ValueError(f"order has {len(order)} objects, index has {n}")
        self._annotate_maxrho(order.rho)
        mindist, _maxdist, q_of = self._bound_fns()
        delta = np.empty(n, dtype=np.float64)
        mu = np.full(n, NO_NEIGHBOR, dtype=np.int64)
        # Paper convention for the densest object(s): δ = max_q dist(p, q);
        # one exact blocked cross over all peak rows.
        peaks = order.global_peaks()
        delta[peaks] = peak_delta_sweep(points, peaks, self.metric, self._stats)
        is_peak = np.zeros(n, dtype=bool)
        is_peak[peaks] = True
        one = self._delta_one_heap if self.frontier == "heap" else self._delta_one_stack
        for p in np.flatnonzero(~is_peak):
            delta[p], mu[p] = one(int(p), order, mindist, q_of)
        return delta, mu

    def delta_all_multi(
        self, orders: "Sequence[DensityOrder]"
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """δ/μ for several density orders over the one built tree.

        With the default batched frontier, the sweep shares the flattened
        tree image, a single vectorised ``maxrho`` annotation pass over all
        orders, and one deduplicated global-peak sweep; each order then
        runs one frontier-batched traversal (measured faster than a single
        interleaved multi-order traversal — smaller pair arrays and the
        single-order gather fast paths win).  Element ``i`` is
        bit-identical to ``delta_all(orders[i])``.
        """
        points = self._require_fitted()
        n = len(points)
        orders = list(orders)
        for order in orders:
            if len(order) != n:
                raise ValueError(f"order has {len(order)} objects, index has {n}")
        if self.frontier != "batched":
            return [self.delta_all(order) for order in orders]
        if not orders:
            return []
        flat = self._flat_tree()

        def run_engine(qid, qord, rho_rows, key_rows):
            # One vectorised maxrho pass annotates every order of the
            # sweep; the traversal itself runs per (order, chunk) task —
            # single-order engine runs keep the fast gather paths and
            # smaller pair arrays, which measures faster than one
            # interleaved union, and chunks of one order's queries are the
            # unit the execution backend shards over workers.
            maxrho = flat_tree_maxrho(flat, rho_rows)
            return self._sharded_delta_engine(
                parallel.tree_delta_task,
                qid,
                qord,
                len(rho_rows),
                {
                    "qid": qid,
                    "rho_rows": rho_rows,
                    "key_rows": key_rows,
                    "maxrho": maxrho,
                },
            )

        return delta_multi_from_orders(
            points, orders, run_engine, self.metric, self._stats
        )

    # -- exact repair after an append (StreamingDPC) -----------------------------

    def quantities_after_append(self, prev: DPCQuantities, n_prev: int) -> DPCQuantities:
        """Repair ``prev`` (the answer over the first ``n_prev`` points)
        into the answer over all points, bit-identical to a fresh fit.

        Points only arrive, so no ρ falls, and the repair touches only what
        an arrival can change:

        * ρ — each old point adds its new neighbours (one
          :func:`~repro.indexes.kernels.tree_rho_batched` pass of the old
          points through an image of the new ones, grouped by their leaf of
          the index image); new points take one pass of the index image.
        * δ of an old point whose previous μ is still denser — its new
          answer is the lexicographic minimum of ``(δ_prev, μ_prev)`` and
          the nearest point that *overtook* it: new, or old and denser now
          but not before.  μ_prev was the nearest of the points denser
          before, at unchanged distances, and an old point that overtook
          had its ρ rise.  One engine call over an image of the changed
          points (new, or old with a higher ρ), ``(δ_prev, μ_prev)``
          carried in; the previous order skips every candidate that was
          denser before, and the old points travel in groups by their leaf
          of the index image.
        * δ of every other non-peak (new points, old points whose μ fell
          behind, former peaks) — one search of the index image; peaks —
          :func:`~repro.indexes.kernels.peak_delta_sweep`.

        Runs with the batched frontier (the per-object reference frontiers
        answer in full) when the family can build the images of the new and
        the changed points (:meth:`_image_over`); otherwise, and for an
        unchanged point count, the full computation runs.  Serial.
        """
        self._check_prev(prev, n_prev)
        fresh = None
        if self.frontier == "batched" and n_prev < self.n:
            fresh = self._image_over(self.points, np.arange(n_prev, self.n))
        if fresh is None:
            return super().quantities_after_append(prev, n_prev)
        return self._traced_quantities(
            prev.dc,
            prev.density_order.tie_break,
            lambda dc: self._rho_after_append(prev.rho, fresh, dc),
            lambda order: self._delta_after_append(prev, order),
        )

    def _rho_after_append(self, rho_prev: np.ndarray, fresh, dc: float) -> np.ndarray:
        points, flat = self.points, self._flat_tree()
        n_prev = len(rho_prev)
        # Each pass subtracts one self-count, but the old points are not
        # members of ``fresh``: + 1.
        gained = tree_rho_batched(
            fresh, points, dc, self.metric, self._stats,
            qid=np.arange(n_prev), group=flat.leaf_node_of,
        )
        new = tree_rho_batched(
            flat, points, dc, self.metric, self._stats,
            qid=np.arange(n_prev, len(points)),
        )
        return np.concatenate([rho_prev + gained + 1, new])

    def _delta_after_append(self, prev: DPCQuantities, order: DensityOrder):
        points = self.points
        n, n_prev = len(points), len(prev)
        changed = np.concatenate(
            [np.flatnonzero(order.rho[:n_prev] > prev.rho), np.arange(n_prev, n)]
        )
        image = self._image_over(points, changed)
        if image is None:
            return self.delta_all(order)
        rho_rows, key = order.rho[None, :], density_order_key(order)
        key_rows = key[None, :]

        def search(flat, qid, **kwargs):
            return tree_delta_batched(
                flat, points, qid, np.zeros(len(qid), dtype=np.int64),
                rho_rows, key_rows, self.metric, self._stats,
                self.density_pruning, self.distance_pruning, **kwargs,
            )

        delta = np.empty(n, dtype=np.float64)
        mu = np.full(n, NO_NEIGHBOR, dtype=np.int64)
        peaks = order.global_peaks()
        delta[peaks] = peak_delta_sweep(points, peaks, self.metric, self._stats)
        todo = np.ones(n, dtype=bool)
        todo[peaks] = False
        # Old points whose previous μ is still denser (so not peaks).
        kept = np.flatnonzero(
            (prev.mu != NO_NEIGHBOR) & (key[prev.mu] < key[:n_prev])
        )
        # μ_prev is the nearest of the points that were denser before, so
        # only a new point, or an old one that was not denser before, can
        # beat it: the previous order, new points last.
        prev_key = np.full(n, np.inf)
        prev_key[:n_prev] = density_order_key(prev.density_order)
        delta[kept], mu[kept] = search(
            image, kept, own_leaf=np.full(len(kept), -1, dtype=np.int64),
            group=self._flat_tree().leaf_node_of,
            carry=(prev.delta[kept], prev.mu[kept]), prev_key=prev_key,
        )
        todo[kept] = False
        rest = np.flatnonzero(todo)
        delta[rest], mu[rest] = search(self._flat_tree(), rest)
        return delta, mu

    def _leaf_best(
        self, node: TreeNode, p: int, q: np.ndarray, order: DensityOrder
    ) -> Tuple[float, int]:
        """Best (distance, id) among denser objects in a leaf; (inf, -1) if none.

        Ties on distance prefer the smaller id, matching the baseline's
        first-occurrence ``argmin`` and the List Index's stable ordering.
        """
        ids = node.ids
        denser = order.denser_mask(p, ids)
        self._stats.objects_scanned += len(ids)
        if not denser.any():
            return np.inf, -1
        cand = ids[denser]
        d = self.metric.distances_from(self.points[cand], q)
        self._stats.distance_evals += len(cand)
        best = np.lexsort((cand, d))[0]
        return float(d[best]), int(cand[best])

    def _delta_one_heap(self, p: int, order: DensityOrder, mindist, q_of) -> Tuple[float, int]:
        point = self.points[p]
        q = q_of(point)
        stats = self._stats
        rho_p = order.rho[p]
        best_d, best_id = np.inf, -1
        counter = 0  # heap tie-breaker; TreeNodes are not comparable
        heap = [(0.0, counter, self._root)]
        while heap:
            dmin, _, node = heapq.heappop(heap)
            # Lemma 2: the heap is dmin-ordered, so the first non-improving
            # node ends the search.  '>' (not '>=') keeps equal-distance
            # candidates reachable for exact id tie-breaking.
            if self.distance_pruning and dmin > best_d:
                stats.nodes_pruned_distance += len(heap) + 1
                break
            stats.nodes_visited += 1
            if node.is_leaf:
                d, qid = self._leaf_best(node, p, point, order)
                if d < best_d or (d == best_d and qid != -1 and qid < best_id):
                    best_d, best_id = d, qid
                continue
            for child in node.children:
                if self.density_pruning and child.maxrho < rho_p:
                    stats.nodes_pruned_density += 1
                    continue  # Lemma 1 (equality kept: ties may be denser)
                child_dmin = mindist(q, child)
                if self.distance_pruning and child_dmin > best_d:
                    stats.nodes_pruned_distance += 1
                    continue
                counter += 1
                heapq.heappush(heap, (child_dmin, counter, child))
        return best_d, best_id

    def _delta_one_stack(self, p: int, order: DensityOrder, mindist, q_of) -> Tuple[float, int]:
        """Algorithm 6 verbatim: ordered stack, nearest child pushed last."""
        point = self.points[p]
        q = q_of(point)
        stats = self._stats
        rho_p = order.rho[p]
        best_d, best_id = np.inf, -1
        stack: List[Tuple[float, TreeNode]] = [(0.0, self._root)]
        while stack:
            dmin, node = stack.pop()
            if self.distance_pruning and dmin > best_d:
                stats.nodes_pruned_distance += 1
                continue  # unlike the heap, later stack entries may still win
            stats.nodes_visited += 1
            if node.is_leaf:
                d, qid = self._leaf_best(node, p, point, order)
                if d < best_d or (d == best_d and qid != -1 and qid < best_id):
                    best_d, best_id = d, qid
                continue
            survivors = []
            for child in node.children:
                if self.density_pruning and child.maxrho < rho_p:
                    stats.nodes_pruned_density += 1
                    continue
                child_dmin = mindist(q, child)
                if self.distance_pruning and child_dmin > best_d:
                    stats.nodes_pruned_distance += 1
                    continue
                survivors.append((child_dmin, child))
            # Push farthest first so the best candidate is on top (the
            # paper's lines 13-24 achieve the same with the temp node).
            survivors.sort(key=lambda item: -item[0])
            stack.extend(survivors)
        return best_d, best_id

    # -- bookkeeping -------------------------------------------------------------------

    @property
    def root(self) -> TreeNode:
        """The object-graph root; bulk-built fits materialise it lazily.

        The flat image is the query-serving structure — only the per-object
        reference frontiers and structure introspection need ``TreeNode``
        objects, so a bulk fit defers (and usually never pays) this cost.
        """
        if self._root is None:
            if self._flat is not None:
                from repro.indexes.build import tree_from_flat

                self._root = tree_from_flat(self._flat)
                self._flat.root = self._root
                self._root_views_flat = True  # nodes borrow the flat arrays
            else:
                raise RuntimeError(f"{type(self).__name__} is not fitted")
        return self._root

    def node_count(self) -> int:
        if self._flat is not None:  # O(1) whenever the image exists
            return int(self._flat.n_nodes)
        return sum(1 for _ in self.root.iter_nodes())

    def height(self) -> int:
        if self._flat is not None:
            return len(self._flat.levels)
        return self.root.height()

    def memory_bytes(self) -> int:
        """Flat engine image, plus the object graph where materialised.

        A graph materialised *from* the flat image borrows its arrays
        (``tree_from_flat`` nodes hold views), so only the per-node object
        overhead is added then — the array bytes are already counted once
        in the image.
        """
        total = 0
        if self._flat is not None:
            total += self._flat.nbytes()
        if self._root is not None:
            owns_arrays = not self._root_views_flat
            for node in self._root.iter_nodes():
                total += 64  # object header + slot pointers (approximation)
                if owns_arrays:
                    total += node.lo.nbytes + node.hi.nbytes
                    if node.ids is not None:
                        total += node.ids.nbytes
                if node.children is not None:
                    total += 8 * len(node.children)
        return total
