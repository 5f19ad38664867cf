"""Vectorized bulk construction of the :class:`~repro.indexes.kernels.FlatTree`
query image, straight from the point array.

PRs 1–4 made every *query* path array-native, but ``fit()`` still built a
recursive Python ``TreeNode`` graph (per-node numpy calls, Python recursion)
and only then flattened it into the structure-of-arrays image the batched
kernels actually consume.  Construction therefore dominated exactly the hot
paths the serving layer cares about — :class:`~repro.extras.streaming.StreamingDPC`
ingests (an append refits a tree index) and
:class:`~repro.serving.snapshots.SnapshotStore` publishes.  This module builds the flat image *directly*, with level-
synchronous array operations and no intermediate object graph:

* :func:`bulk_build_str` — Sort-Tile-Recursive R-tree packing as argsort-based
  slab tiling plus ``reduceat`` MBR/count reductions.  The produced image is
  **node-for-node identical** to flattening the object-graph STR build (same
  stable sorts, same slab arithmetic, same union order), so probe counters
  match the reference exactly.
* :func:`bulk_build_kdtree` — median-split k-d tree built level-by-level:
  one presorted permutation per dimension, advanced through every level with
  a vectorised stable two-way partition (cumulative-sum ranking, no per-level
  sorts).  Tight per-node boxes fall out of the sorted permutations for free
  (first/last element of each segment per dimension).  The split *rule* is
  the reference's (widest-axis, median-by-rank, ``len // 2`` to the left);
  tie handling at the median differs from ``np.argpartition``, so the tree
  shape — and hence probe counters — may legitimately differ from the object
  build on tie-heavy data while ρ/δ/μ stay bit-identical (the queries are
  exact over any valid tree).
* :func:`bulk_build_quadtree` — PR quadtree via one Morton-key pass: each
  point's full quadrant path is derived from grid arithmetic on exact
  power-of-two cell widths, one sort groups every level at once, and the
  level loop only touches segment *boundaries*.  Cell membership and node
  boxes use one shared corner formula (clamped, monotone, exactly nested),
  so the contained/intersected classifications of the queries stay exact;
  quadrant boundary ulps may differ from the object build's repeated
  midpoint averaging, which is a legitimate shape difference.
* :func:`tree_from_flat` — lazily materialises a ``TreeNode`` graph *from*
  the flat image, for the per-object reference frontiers (``"heap"`` /
  ``"stack"``) and structure introspection; bulk-built indexes only pay this
  cost when something actually asks for the object graph.

Exactness contract (property-tested in ``tests/properties/test_prop_build.py``):
ρ, δ, μ, labels and halo from a bulk-built index are bit-identical to the
``build="objects"`` reference for every tree family, rect-capable metric and
adversarial corpus; the STR image additionally equals the flattened object
tree array-for-array.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.indexes.kernels import FlatTree, _expand_csr

__all__ = [
    "bulk_build_str",
    "bulk_build_kdtree",
    "bulk_build_quadtree",
    "morton_keys",
    "tree_from_flat",
]


# ---------------------------------------------------------------------------
# Shared assembly helpers
# ---------------------------------------------------------------------------


def _expand_segments(
    starts: np.ndarray, sizes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Like :func:`repro.indexes.kernels._expand_csr`, also returning within-segment positions.

    ``(pos, local, off)``: ``pos`` are the absolute positions, ``local`` the
    position of each element inside its segment, ``off`` the segment starts
    inside the concatenation.
    """
    total = int(sizes.sum())
    off = (np.cumsum(sizes) - sizes).astype(starts.dtype, copy=False)
    local = np.arange(total, dtype=starts.dtype) - np.repeat(off, sizes)
    pos = local + np.repeat(starts, sizes)
    return pos, local, off


def _stable_argsort(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")``, cheaper on mostly-distinct data.

    Introsort plus a vectorised tie repair: ties of a stable float sort are
    ordered by original position, so only positions inside equal-value runs
    ever need fixing — none at all on typical coordinate data, where this is
    ~30% faster than numpy's stable (merge) sort.  Bit-identical output.
    """
    order = np.argsort(values)
    vs = values[order]
    eq = vs[1:] == vs[:-1]
    if not eq.any():
        return order
    in_tie = np.zeros(len(values), dtype=bool)
    in_tie[1:] = eq
    in_tie[:-1] |= eq
    run = np.cumsum(np.concatenate(([True], ~eq)))  # equal-value run labels
    sub = np.flatnonzero(in_tie)
    take = np.lexsort((order[sub], run[sub]))
    order[sub] = order[sub[take]]
    return order


def _sort_within_segments(
    perm: np.ndarray, starts: np.ndarray, sizes: np.ndarray, vals: np.ndarray
) -> None:
    """Stable-sort ``perm`` inside each segment by ``vals`` (position-keyed).

    ``vals[i]`` is the sort key currently at position ``i``.  All segments
    sort in one rectangular ``argsort(axis=1)`` over a padded ``(rows, W)``
    matrix — pads are ``+inf`` so they land behind every real entry and the
    per-row stable order of the real entries matches a per-segment
    ``np.argsort(kind="stable")`` exactly.
    """
    rows = len(starts)
    if rows == 0:
        return
    W = int(sizes.max())
    pos, local, _ = _expand_segments(starts.astype(np.int64, copy=False), sizes)
    colmask = np.arange(W)[None, :] < sizes[:, None]
    gathered = vals[pos]
    padded = np.full((rows, W), np.inf, dtype=np.float64)
    padded[colmask] = gathered
    loc = np.argsort(padded, axis=1)  # introsort rows; ties repaired below
    vs = np.take_along_axis(padded, loc, axis=1)
    eq = vs[:, 1:] == vs[:, :-1]
    if not np.isposinf(gathered).any():
        # No real +inf anywhere: introsort can only have scrambled ties, and
        # ties purely among the +inf pads need no repair (pads are dropped
        # by the column mask below), so restrict the repair to pairs whose
        # left element is real.
        eq &= np.arange(1, W)[None, :] <= sizes[:, None]
    # With real +inf present the pads join its tie run unmasked: the repair
    # orders the whole run by source column, which puts every real entry
    # (column < size) back ahead of the pads wherever introsort left it.
    if eq.any():
        # Stable repair, batched over all rows: ties (including the +inf
        # pads) order by source column ascending; runs never cross rows
        # because every row starts a fresh run label.
        in_tie = np.zeros((rows, W), dtype=bool)
        in_tie[:, 1:] = eq
        in_tie[:, :-1] |= eq
        runb = np.ones((rows, W), dtype=bool)
        runb[:, 1:] = ~eq
        run = np.cumsum(runb.ravel())
        flat_loc = loc.ravel()
        sub = np.flatnonzero(in_tie.ravel())
        take = np.lexsort((flat_loc[sub], run[sub]))
        flat_loc[sub] = flat_loc[sub[take]]
        loc = flat_loc.reshape(rows, W)
    src = loc[colmask] + (pos - local)
    perm[pos] = perm[src]


def _assemble_flat(levels: "List[dict]", perm: np.ndarray, dim: int) -> FlatTree:
    """Build a :class:`FlatTree` from top-down per-level node arrays.

    Each entry of ``levels`` describes one BFS level with aligned arrays:
    ``lo``/``hi`` ``(L, dim)``, ``nc`` ``(L,)``, ``child_count`` ``(L,)``
    (children must have been appended to the *next* level in parent order),
    and ``leaf_pos``/``leaf_sizes`` ``(L,)`` — position ranges into ``perm``
    holding each leaf's member ids (zero size for internal nodes).  The
    resulting arrays follow exactly the layout of
    :func:`repro.indexes.kernels.flatten_tree`.
    """
    counts = [len(level["nc"]) for level in levels]
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    n_nodes = int(offsets[-1])
    flat = FlatTree()
    flat.root = None
    flat.nodes = None
    flat.n_nodes = n_nodes
    flat.levels = [(int(offsets[i]), int(offsets[i + 1])) for i in range(len(counts))]
    flat.lo = np.concatenate([level["lo"] for level in levels]).reshape(n_nodes, dim)
    flat.hi = np.concatenate([level["hi"] for level in levels]).reshape(n_nodes, dim)
    flat.nc = np.concatenate(
        [np.asarray(level["nc"], dtype=np.int64) for level in levels]
    )
    child_count = np.concatenate(
        [np.asarray(level["child_count"], dtype=np.int64) for level in levels]
    )
    flat.child_count = child_count
    child_start = np.zeros(n_nodes, dtype=np.int64)
    parent = np.zeros(n_nodes, dtype=np.int64)
    for i, level in enumerate(levels):
        cc = np.asarray(level["child_count"], dtype=np.int64)
        if not len(cc) or not cc.any():
            continue
        base = offsets[i + 1]
        excl = np.cumsum(cc) - cc
        lo_i, hi_i = int(offsets[i]), int(offsets[i + 1])
        child_start[lo_i:hi_i] = np.where(cc > 0, base + excl, 0)
        internal = np.flatnonzero(cc > 0)
        parent[base : base + int(cc.sum())] = np.repeat(internal + lo_i, cc[internal])
    flat.child_start = child_start
    flat.parent = parent

    leaf_pos = np.concatenate(
        [np.asarray(level["leaf_pos"], dtype=np.int64) for level in levels]
    )
    leaf_sizes = np.concatenate(
        [np.asarray(level["leaf_sizes"], dtype=np.int64) for level in levels]
    )
    flat.leaf_size = leaf_sizes
    leaf_start = np.zeros(n_nodes, dtype=np.int64)
    nz = leaf_sizes > 0
    leaf_start[nz] = np.cumsum(leaf_sizes[nz]) - leaf_sizes[nz]
    flat.leaf_start = leaf_start
    if nz.any():
        flat_idx, _ = _expand_csr(leaf_pos[nz], leaf_sizes[nz])
        flat.leaf_ids = np.asarray(perm[flat_idx], dtype=np.int64)
    else:
        flat.leaf_ids = np.empty(0, dtype=np.int64)
    flat.leaf_node_of = np.empty(len(flat.leaf_ids), dtype=np.int64)
    leafy = np.flatnonzero(flat.leaf_size > 0)
    flat.leaf_node_of[flat.leaf_ids] = np.repeat(leafy, flat.leaf_size[leafy])
    return flat


# ---------------------------------------------------------------------------
# R-tree: Sort-Tile-Recursive packing (node-for-node identical to the
# object-graph build in repro.indexes.rtree)
# ---------------------------------------------------------------------------


def _str_order(centers: np.ndarray, max_entries: int) -> np.ndarray:
    """STR ordering of node centres — verbatim ``RTreeIndex._str_order``.

    Operates on per-level node counts (hundreds at most), so the recursion
    itself is cheap; keeping it literal guarantees the packed levels group
    exactly like the object build's.
    """
    d = centers.shape[1]
    idx = np.arange(len(centers), dtype=np.int64)

    def tile(sub: np.ndarray, dim: int) -> List[np.ndarray]:
        if len(sub) <= max_entries or dim == d - 1:
            return [sub[_stable_argsort(centers[sub, dim % d])]]
        n_groups = math.ceil(len(sub) / max_entries)
        s = math.ceil(n_groups ** (1.0 / (d - dim)))
        slab = math.ceil(len(sub) / s)
        order = sub[_stable_argsort(centers[sub, dim])]
        out: List[np.ndarray] = []
        for start in range(0, len(order), slab):
            out.extend(tile(order[start : start + slab], dim + 1))
        return out

    return np.concatenate(tile(idx, 0))


def bulk_build_str(points: np.ndarray, max_entries: int) -> FlatTree:
    """STR-packed R-tree image, identical to flattening the object build.

    Phase 1 tiles the point ids into full leaves with the same stable sorts
    and slab arithmetic as ``RTreeIndex._str_tile_points``, advanced one
    sort dimension per pass over *all* surviving slabs; leaf MBRs and counts
    reduce with one ``reduceat`` instead of one numpy call per leaf.  Phase 2
    repacks level MBR centres upward exactly like ``_pack_upward`` (same
    ``_str_order`` grouping, same union order), then a top-down renumbering
    pass emits the levels in the BFS order :func:`flatten_tree` would
    produce.
    """
    n, d = points.shape
    M = int(max_entries)
    perm = np.arange(n, dtype=np.int64)
    leaf_start_parts: List[np.ndarray] = []
    leaf_stop_parts: List[np.ndarray] = []
    active: List[Tuple[int, int]] = [(0, n)]
    for dim in range(d):
        if not active:
            break
        coord = np.ascontiguousarray(points[:, dim])
        # One contiguous snapshot of the sort keys in current perm order;
        # segments are disjoint, so per-segment writes never invalidate it.
        vals = coord if dim == 0 else coord[perm]
        nxt: List[Tuple[int, int]] = []
        sort_starts: List[int] = []
        sort_stops: List[int] = []
        for s, e in active:
            if e - s <= M:
                leaf_start_parts.append(np.array([s], dtype=np.int64))
                leaf_stop_parts.append(np.array([e], dtype=np.int64))
            else:
                sort_starts.append(s)
                sort_stops.append(e)
        if not sort_starts:
            break
        if len(sort_starts) == 1:
            s, e = sort_starts[0], sort_stops[0]
            perm[s:e] = perm[s:e][_stable_argsort(vals[s:e])]
        else:
            seg_s = np.array(sort_starts, dtype=np.int64)
            _sort_within_segments(
                perm, seg_s, np.array(sort_stops, dtype=np.int64) - seg_s, vals
            )
        if dim == d - 1:
            # Last dimension: chop every sorted run into consecutive leaves,
            # all segments in one expansion.
            seg_s = np.array(sort_starts, dtype=np.int64)
            seg_e = np.array(sort_stops, dtype=np.int64)
            counts = -((seg_s - seg_e) // M)  # ceil((e - s) / M)
            pos, local, _ = _expand_segments(seg_s, counts)
            st = (pos - local) + local * M
            leaf_start_parts.append(st)
            leaf_stop_parts.append(np.minimum(st + M, np.repeat(seg_e, counts)))
        else:
            for s, e in zip(sort_starts, sort_stops):
                size = e - s
                n_leaves = math.ceil(size / M)
                s_count = math.ceil(n_leaves ** (1.0 / (d - dim)))
                slab = math.ceil(size / s_count)
                nxt.extend((st, min(st + slab, e)) for st in range(s, e, slab))
        active = nxt
    # Depth-first recursion emits leaves left to right over contiguous
    # position ranges, so position order *is* recursion order.
    starts = np.concatenate(leaf_start_parts)
    stops = np.concatenate(leaf_stop_parts)
    by_pos = np.argsort(starts, kind="stable")
    starts = starts[by_pos]
    sizes = stops[by_pos] - starts
    # Leaf MBRs: per-dimension contiguous gathers + 1-D reduceat (a row
    # gather of (n, d) points costs several times more than d 1-D passes).
    n_leaves_total = len(starts)
    lo = np.empty((n_leaves_total, d), dtype=np.float64)
    hi = np.empty((n_leaves_total, d), dtype=np.float64)
    for k in range(d):
        colv = np.ascontiguousarray(points[:, k])[perm]
        lo[:, k] = np.minimum.reduceat(colv, starts)
        hi[:, k] = np.maximum.reduceat(colv, starts)
    nc = sizes.copy()

    # Bottom-up packing: permute each level into STR order the moment its
    # parents form, remembering per-parent child ranges (local positions).
    lev_lo, lev_hi, lev_nc = [lo], [hi], [nc]
    lev_child_start: List[Optional[np.ndarray]] = [None]
    lev_child_count: List[Optional[np.ndarray]] = [None]
    leaf_starts, leaf_sizes = starts, sizes
    while len(lev_lo[-1]) > 1:
        cur_lo, cur_hi = lev_lo[-1], lev_hi[-1]
        order = _str_order((cur_lo + cur_hi) / 2.0, M)
        lev_lo[-1] = cur_lo = cur_lo[order]
        lev_hi[-1] = cur_hi = cur_hi[order]
        lev_nc[-1] = lev_nc[-1][order]
        if lev_child_start[-1] is not None:
            lev_child_start[-1] = lev_child_start[-1][order]
            lev_child_count[-1] = lev_child_count[-1][order]
        else:  # leaf level: the id ranges travel with their nodes
            leaf_starts = leaf_starts[order]
            leaf_sizes = leaf_sizes[order]
        length = len(cur_lo)
        group = np.arange(0, length, M, dtype=np.int64)
        lev_lo.append(np.minimum.reduceat(cur_lo, group, axis=0))
        lev_hi.append(np.maximum.reduceat(cur_hi, group, axis=0))
        lev_nc.append(np.add.reduceat(lev_nc[-1], group))
        lev_child_start.append(group)
        lev_child_count.append(np.diff(np.append(group, length)))

    # Top-down renumbering: each level's final BFS order is the concatenation
    # of its (ordered) parents' child ranges.
    n_levels = len(lev_lo)
    orderings: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    for li in range(n_levels - 1, 0, -1):
        po = orderings[-1]
        cs = lev_child_start[li][po]
        cc = lev_child_count[li][po]
        child_order, _ = _expand_csr(cs, cc)
        orderings.append(child_order)
    orderings.reverse()  # orderings[li] is the final order of level li

    levels = []
    for li in range(n_levels - 1, -1, -1):  # top-down
        o = orderings[li]
        cc = lev_child_count[li]
        level = {
            "lo": lev_lo[li][o],
            "hi": lev_hi[li][o],
            "nc": lev_nc[li][o],
            "child_count": cc[o] if cc is not None else np.zeros(len(o), dtype=np.int64),
        }
        if li == 0 and lev_child_start[0] is None:
            level["leaf_pos"] = leaf_starts[o]
            level["leaf_sizes"] = leaf_sizes[o]
        else:
            level["leaf_pos"] = np.zeros(len(o), dtype=np.int64)
            level["leaf_sizes"] = np.zeros(len(o), dtype=np.int64)
        levels.append(level)
    return _assemble_flat(levels, perm, d)


# ---------------------------------------------------------------------------
# k-d tree: presorted median split, level-synchronous
# ---------------------------------------------------------------------------


def bulk_build_kdtree(points: np.ndarray, leaf_size: int) -> FlatTree:
    """Balanced k-d tree image built level-by-level from presorted perms.

    One permutation per dimension, each kept sorted by its coordinate within
    every tree segment.  A level then costs a handful of O(n) passes: tight
    boxes are the first/last elements of each segment per dimension, the
    widest-axis median split is *positional* in the split axis's permutation,
    and the other permutations follow through a vectorised stable two-way
    partition (exclusive-cumsum ranking) — no per-level sorting.
    """
    n, d = points.shape
    leaf_size = int(leaf_size)
    coords = [np.ascontiguousarray(points[:, k]) for k in range(d)]
    idx_dtype = np.int32 if n < 2**31 - 1 else np.int64
    P = np.empty((d, n), dtype=idx_dtype)
    for k in range(d):
        # Introsort: deterministic; the in-segment tie order is unspecified
        # but fixed, which is all the bulk shape contract needs.
        P[k] = np.argsort(coords[k]).astype(idx_dtype, copy=False)

    starts = np.zeros(1, dtype=idx_dtype)
    sizes = np.full(1, n, dtype=idx_dtype)
    gl = np.empty(n, dtype=bool)  # per-id "goes left" bits, reused per level
    levels = []
    while True:
        S = len(starts)
        ends = starts + sizes - 1
        lo = np.empty((S, d), dtype=np.float64)
        hi = np.empty((S, d), dtype=np.float64)
        for k in range(d):
            lo[:, k] = coords[k][P[k][starts]]
            hi[:, k] = coords[k][P[k][ends]]
        ext = hi - lo
        axis = np.argmax(ext, axis=1)
        # Same rule as the reference: split while over capacity and the
        # widest axis still has extent (all-coincident segments become
        # leaves regardless of size).
        split = (sizes > leaf_size) & (ext[np.arange(S), axis] > 0.0)
        levels.append(
            {
                "lo": lo,
                "hi": hi,
                "nc": sizes,
                "child_count": np.where(split, 2, 0),
                "leaf_pos": np.where(split, 0, starts),
                "leaf_sizes": np.where(split, 0, sizes),
            }
        )
        if not split.any():
            break
        sp_starts = starts[split]
        sp_sizes = sizes[split]
        sp_axis = axis[split]
        half = (sp_sizes // 2).astype(idx_dtype)
        # Group the splitting segments by split axis and expand each group
        # once; the expansions are shared between the side-marking pass and
        # every other dimension's partition.
        groups = []
        for g in range(d):
            m = sp_axis == g
            if not m.any():
                continue
            st, sz, hf = sp_starts[m], sp_sizes[m], half[m]
            pos, local, off = _expand_segments(st, sz)
            hf_rep = np.repeat(hf, sz)
            # The median split is purely positional in the split axis's
            # permutation; mark each member id's side there.
            gl[P[g][pos]] = local < hf_rep
            groups.append((g, sz, pos, local, off, hf_rep))
        # Carry the split through the other dimensions' permutations with a
        # stable two-way partition (left block then right block, original
        # order preserved inside each block).
        for k in range(d):
            for g, sz, pos, local, off, hf_rep in groups:
                if g == k:
                    continue  # positional in its own axis: already in place
                vals = P[k][pos]
                left = gl[vals]
                excl = np.cumsum(left, dtype=idx_dtype)
                excl -= left
                lefts = excl - np.repeat(excl[off], sz)
                newpos = (pos - local) + np.where(
                    left, lefts, hf_rep + (local - lefts)
                )
                P[k][newpos] = vals
        # Refine segments: each split produces (left, right) in place; the
        # finalised leaves keep their (now inert) ranges in the perms.
        n_split = int(split.sum())
        new_starts = np.empty(2 * n_split, dtype=idx_dtype)
        new_sizes = np.empty(2 * n_split, dtype=idx_dtype)
        new_starts[0::2] = sp_starts
        new_sizes[0::2] = half
        new_starts[1::2] = sp_starts + half
        new_sizes[1::2] = sp_sizes - half
        starts, sizes = new_starts, new_sizes
    return _assemble_flat(levels, P[0].astype(np.int64, copy=False), d)


# ---------------------------------------------------------------------------
# Quadtree: Morton-key bulk subdivision
# ---------------------------------------------------------------------------

_MAX_MORTON_DEPTH = 32  # 2 bits per level in a uint64 key


def _spread_bits(a: np.ndarray) -> np.ndarray:
    """Interleave zeros between the low 32 bits of ``a`` (Morton spread)."""
    a = a.astype(np.uint64)
    a = (a | (a << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    a = (a | (a << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    a = (a | (a << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    a = (a | (a << np.uint64(2))) & np.uint64(0x3333333333333333)
    a = (a | (a << np.uint64(1))) & np.uint64(0x5555555555555555)
    return a


def _compact_bits(a: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_spread_bits` (drop the odd bits)."""
    a = a & np.uint64(0x5555555555555555)
    a = (a | (a >> np.uint64(1))) & np.uint64(0x3333333333333333)
    a = (a | (a >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    a = (a | (a >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    a = (a | (a >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    a = (a | (a >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return a.astype(np.int64)


def _grid_cells(v: np.ndarray, lo: float, hi: float, w: float, ncell: int) -> np.ndarray:
    """Depth-D cell index per coordinate, consistent with the corner formula.

    Cells are ``[corner(i), corner(i + 1))`` with
    ``corner(i) = min(lo + i * w, hi)`` (and the last cell closed at ``hi``).
    Floor division lands within one cell of the truth; the fix-up loop nudges
    until every value satisfies the *same comparisons* the node boxes are
    built from, so membership and box bounds can never disagree.
    """
    iv = np.clip(((v - lo) / w).astype(np.int64), 0, ncell - 1)
    for _ in range(64):
        lo_c = np.minimum(lo + iv * w, hi)
        hi_c = np.minimum(lo + (iv + 1) * w, hi)
        bad_lo = v < lo_c
        bad_hi = (v >= hi_c) & (iv < ncell - 1)
        if not bad_lo.any() and not bad_hi.any():
            break
        iv = iv - bad_lo + bad_hi
    return iv


def morton_keys(
    points: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray, max_depth: int
) -> Optional[np.ndarray]:
    """Depth-``max_depth`` Morton key per 2-D point w.r.t. a fixed root box.

    Power-of-two scalings of the extent are exact, so corner values at
    depth ``t`` reproduce themselves at every deeper level (see
    :func:`_grid_cells`).  Returns ``None`` when the box has no usable
    lattice (underflowing or non-finite cell widths).
    """
    D = int(max_depth)
    ext = box_hi - box_lo
    ncell = 1 << D
    wx = ext[0] * (2.0 ** -D)
    wy = ext[1] * (2.0 ** -D)
    if not (wx > 0.0 and wy > 0.0 and np.isfinite(ext).all()):
        return None
    x = np.ascontiguousarray(points[:, 0])
    y = np.ascontiguousarray(points[:, 1])
    ix = _grid_cells(x, box_lo[0], box_hi[0], wx, ncell)
    iy = _grid_cells(y, box_lo[1], box_hi[1], wy, ncell)
    return (_spread_bits(iy) << np.uint64(1)) | _spread_bits(ix)


def bulk_build_quadtree(
    points: np.ndarray, capacity: int, max_depth: int
) -> Optional[FlatTree]:
    """PR-quadtree image from one Morton-key pass (2-D).

    The quadtree's decomposition is fixed geometry, so every point's full
    quadrant path is computable up front: depth-``max_depth`` grid cells from
    exact power-of-two cell widths, interleaved into one Morton key per
    point.  A single sort then groups *all* levels at once and the level
    loop only walks segment boundaries (prefix changes in the sorted keys).
    Node boxes use the same clamped corner formula as cell membership —
    corners nest exactly across depths, and every point lies inside its
    leaf's box, which is what the contained/intersected query
    classifications rely on.

    Returns ``None`` when ``max_depth`` exceeds the 32 levels a 64-bit
    Morton key can encode; the caller falls back to the object-graph build.
    """
    if max_depth > _MAX_MORTON_DEPTH:
        return None
    n, d = points.shape
    capacity = int(capacity)
    D = int(max_depth)
    box_lo, box_hi = _padded_box(points)
    ext = box_hi - box_lo  # positive on both axes after padding
    key = morton_keys(points, box_lo, box_hi, D)
    if key is None:
        # Denormal-scale extents underflow the depth-D cell width to zero
        # (and infinite extents have no grid at all): no usable Morton
        # lattice — fall back to the object-graph build.
        return None
    # Stable: ties (points sharing a final cell) land in id order inside
    # their leaf; results never see the order, but the image is then a
    # function of the points alone, whatever the sort's tie handling.
    order = _stable_argsort(key)
    ks = key[order]

    def _node_boxes(starts: np.ndarray, depth: int) -> Tuple[np.ndarray, np.ndarray]:
        L = len(starts)
        lo_b = np.empty((L, 2), dtype=np.float64)
        hi_b = np.empty((L, 2), dtype=np.float64)
        if depth == 0:
            lo_b[:] = box_lo
            hi_b[:] = box_hi
            return lo_b, hi_b
        pref = ks[starts] >> np.uint64(2 * (D - depth))
        jx = _compact_bits(pref)
        jy = _compact_bits(pref >> np.uint64(1))
        top = 1 << depth
        wxt = ext[0] * (2.0 ** -depth)
        wyt = ext[1] * (2.0 ** -depth)
        lo_b[:, 0] = np.minimum(box_lo[0] + jx * wxt, box_hi[0])
        lo_b[:, 1] = np.minimum(box_lo[1] + jy * wyt, box_hi[1])
        hi_b[:, 0] = np.where(
            jx + 1 == top, box_hi[0], np.minimum(box_lo[0] + (jx + 1) * wxt, box_hi[0])
        )
        hi_b[:, 1] = np.where(
            jy + 1 == top, box_hi[1], np.minimum(box_lo[1] + (jy + 1) * wyt, box_hi[1])
        )
        return lo_b, hi_b

    levels = []
    seg_start = np.zeros(1, dtype=np.int64)
    seg_stop = np.full(1, n, dtype=np.int64)
    depth = 0
    while True:
        sizes = seg_stop - seg_start
        split = (sizes > capacity) & (depth < D)
        lo_b, hi_b = _node_boxes(seg_start, depth)
        level = {
            "lo": lo_b,
            "hi": hi_b,
            "nc": sizes,
            "leaf_pos": np.where(split, 0, seg_start),
            "leaf_sizes": np.where(split, 0, sizes),
        }
        levels.append(level)
        if not split.any():
            level["child_count"] = np.zeros(len(sizes), dtype=np.int64)
            break
        # Children = runs of equal depth-(t+1) prefixes inside each split
        # segment: one global prefix-change pass, then boundary arithmetic.
        shift = np.uint64(2 * (D - depth - 1))
        pref = ks >> shift
        bp = np.flatnonzero(pref[1:] != pref[:-1]) + 1
        sp_start = seg_start[split]
        sp_stop = seg_stop[split]
        first_bp = np.searchsorted(bp, sp_start, side="right")
        stop_bp = np.searchsorted(bp, sp_stop, side="left")
        inner = stop_bp - first_bp
        child_counts = inner + 1
        level["child_count"] = np.zeros(len(sizes), dtype=np.int64)
        level["child_count"][split] = child_counts
        total = int(child_counts.sum())
        cs = np.empty(total, dtype=np.int64)
        first_pos = np.cumsum(child_counts) - child_counts
        cs[first_pos] = sp_start
        rest = np.ones(total, dtype=bool)
        rest[first_pos] = False
        if rest.any():
            take, _ = _expand_csr(first_bp, inner)
            cs[rest] = bp[take]
        ce = np.empty(total, dtype=np.int64)
        ce[:-1] = cs[1:]
        ce[first_pos + child_counts - 1] = sp_stop
        seg_start, seg_stop = cs, ce
        depth += 1
    return _assemble_flat(levels, order.astype(np.int64, copy=False), d)


def _padded_box(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The quadtree root box: tight bounds, degenerate sides inflated.

    Shared by the object and bulk quadtree builds so both decompose the
    exact same root region.  (Reduced along contiguous columns — an
    axis-0 reduction over C-ordered points is strided and several times
    slower; the values are identical.)
    """
    cols = np.ascontiguousarray(points.T)
    lo = cols.min(axis=1)
    hi = cols.max(axis=1)
    extent = hi - lo
    pad = np.where(extent == 0.0, 1.0, 0.0)
    return lo - pad, hi + pad


# ---------------------------------------------------------------------------
# Object-graph materialisation (reference frontiers, introspection)
# ---------------------------------------------------------------------------


def tree_from_flat(flat: FlatTree):
    """Materialise a ``TreeNode`` graph from a flat image (flat-id order).

    Bulk-built indexes have no object tree; the per-object reference
    frontiers (``frontier="heap"/"stack"``), structure introspection and
    tests that walk ``index.root`` trigger this lazily.  The returned root
    is finalised (counts, tuple boxes) and ``flat.nodes`` is filled so the
    per-run ``maxrho`` annotation can scatter vectorised values back onto
    the nodes.
    """
    from repro.indexes.treebase import TreeNode

    child_start = flat.child_start
    child_count = flat.child_count
    leaf_start = flat.leaf_start
    leaf_size = flat.leaf_size
    nodes = []
    for i in range(flat.n_nodes):
        if child_count[i] > 0:
            node = TreeNode(flat.lo[i], flat.hi[i], children=[])
        else:
            ids = flat.leaf_ids[leaf_start[i] : leaf_start[i] + leaf_size[i]]
            node = TreeNode(flat.lo[i], flat.hi[i], ids=np.asarray(ids, dtype=np.int64))
        nodes.append(node)
    for i in range(flat.n_nodes):
        cc = int(child_count[i])
        if cc > 0:
            cs = int(child_start[i])
            nodes[i].children = nodes[cs : cs + cc]
    root = nodes[0]
    root.finalize_counts()
    flat.nodes = nodes
    return root
