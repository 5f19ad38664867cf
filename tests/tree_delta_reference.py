"""The frontier-batched tree δ kernel without a carried-in answer, kept as
the test reference.

This is the body :func:`repro.indexes.kernels.tree_delta_batched` had before
it accepted a carried-in ``(best_d, best_id)`` and gathered rows with
``np.take``: every search starts from an infinite radius, and the pairs'
rows are gathered by fancy indexing.  Its δ, μ and ``IndexStats`` counters
define what the production kernel must reproduce bit for bit when it runs
without a carry-in (``tests/properties/test_prop_tree_delta.py``); with
one, the production answer must equal this kernel's merged with the
carried answer by :func:`merge_delta_candidates`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.quantities import NO_NEIGHBOR
from repro.geometry.distance import paired_distances
from repro.indexes.kernels import (
    FlatTree,
    _expand_csr,
    _pair_rect_bounds,
    flat_tree_maxrho,
)


def merge_delta_candidates(
    d_a: np.ndarray,
    mu_a: np.ndarray,
    d_b: np.ndarray,
    mu_b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge two searches' δ candidates by the lexicographic
    ``(distance, id)`` rule — the answer over the union of their point
    sets, which is what a carried-in search must return."""
    take_b = (d_b < d_a) | ((d_b == d_a) & (mu_b < mu_a))
    return np.where(take_b, d_b, d_a), np.where(take_b, mu_b, mu_a)


def _resolve_pairs(
    rows: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    ids_flat: np.ndarray,
    points: np.ndarray,
    qpts: np.ndarray,
    qord: np.ndarray,
    key_q: np.ndarray,
    key_rows: np.ndarray,
    pair_fn,
    stats,
    best_d: np.ndarray,
    best_id: np.ndarray,
    radius: np.ndarray,
) -> None:
    """Resolve a batch of (query, leaf/cell) pairs in place.

    Each pair scans its candidate segment ``ids_flat[starts:starts+sizes]``
    for the lexicographically smallest ``(distance, id)`` among *denser*
    objects — the reference path's ``np.lexsort((cand, d))[0]`` — and merges
    per query into ``(best_d, best_id)``, tightening ``radius`` alongside.
    """
    nz = sizes > 0
    if not nz.all():
        rows, starts, sizes = rows[nz], starts[nz], sizes[nz]
    if len(rows) == 0:
        return
    flat, seg_off = _expand_csr(starts, sizes)
    cand = ids_flat[flat]
    rflat = np.repeat(rows, sizes)
    if len(key_rows) == 1:  # single density order: skip the qord gather
        denser = key_rows[0, cand] < key_q[rflat]
    else:
        denser = key_rows[qord[rflat], cand] < key_q[rflat]
    stats.objects_scanned += len(cand)
    # Distances only for denser candidates (the reference's candidate
    # filter); segments re-based on the surviving counts.
    kept = np.add.reduceat(denser.astype(np.int64), seg_off)
    found = kept > 0
    if not found.any():
        return
    cand, rflat = cand[denser], rflat[denser]
    rows, sizes = rows[found], kept[found]
    seg_off = np.cumsum(sizes) - sizes
    d = pair_fn(qpts[rflat], points[cand])
    stats.distance_evals += len(cand)
    dmin = np.minimum.reduceat(d, seg_off)
    # Ids tied at the segment minimum, reduced to the smallest.
    cand_at_min = np.where(d == np.repeat(dmin, sizes), cand, len(points))
    idmin = np.minimum.reduceat(cand_at_min, seg_off)
    # Several pairs may serve one query in the same batch: keep the
    # lexicographic (distance, id) minimum per query.
    order = np.lexsort((idmin, dmin, rows))
    rows, dmin, idmin = rows[order], dmin[order], idmin[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    rows, dmin, idmin = rows[first], dmin[first], idmin[first]
    upd = (dmin < best_d[rows]) | ((dmin == best_d[rows]) & (idmin < best_id[rows]))
    if upd.any():
        rows, dmin, idmin = rows[upd], dmin[upd], idmin[upd]
        best_d[rows] = dmin
        best_id[rows] = idmin
        radius[rows] = np.minimum(radius[rows], dmin)


def reference_tree_delta(
    flat: FlatTree,
    points: np.ndarray,
    qid: np.ndarray,
    qord: np.ndarray,
    rho_rows: np.ndarray,
    key_rows: np.ndarray,
    metric,
    stats,
    density_pruning: bool = True,
    distance_pruning: bool = True,
    maxrho: "np.ndarray | None" = None,
    own_leaf: "np.ndarray | None" = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Frontier-batched best-first δ search over a flattened spatial tree.

    Parameters
    ----------
    flat:
        :func:`flatten_tree` image of the index's root (cached per fit).
    qid, qord:
        ``(m,)`` query object ids and, per query, the density-order row it
        belongs to — one engine run can serve a whole multi-``dc`` sweep.
        Global peaks must be excluded (handled by :func:`peak_delta_sweep`).
    rho_rows:
        ``(n_orders, n)`` densities (Lemma-1 pruning against ``maxrho``).
    key_rows:
        ``(n_orders, n)`` total-order keys: ``q`` is denser than ``p`` iff
        ``key[q] < key[p]`` (:func:`density_order_key`).
    metric, stats:
        The index's :class:`~repro.geometry.distance.Metric` and its
        :class:`~repro.indexes.base.IndexStats` (batched counter semantics —
        module docstring).
    density_pruning, distance_pruning:
        Lemma 1 / Lemma 2 ablation knobs; disabling changes *work*, never
        results.
    maxrho:
        Optional precomputed :func:`flat_tree_maxrho` rows aligned with
        ``rho_rows`` — a multi-``dc`` sweep annotates every order in one
        pass and hands each engine run its row.  Computed here when absent.
    own_leaf:
        Optional per-query containing-leaf node ids overriding the default
        ``flat.leaf_node_of[qid]`` lookup; ``-1`` marks a query that is not
        a member of this image (a delta-segment query against the base
        image, or vice versa), for which the own-leaf/sibling seeding is
        skipped.  Seeding only affects pruning, never results.

    Returns
    -------
    ``(delta, mu)`` of shape ``(m,)``, aligned with ``qid`` — bit-identical
    to running the per-object reference search per query.
    """
    qid = np.asarray(qid, dtype=np.int64)
    qord = np.asarray(qord, dtype=np.int64)
    m = len(qid)
    best_d = np.full(m, np.inf, dtype=np.float64)
    best_id = np.full(m, NO_NEIGHBOR, dtype=np.int64)
    if m == 0:
        return best_d, best_id
    if maxrho is None:
        maxrho = flat_tree_maxrho(flat, rho_rows)
    mind_pairs, maxd_pairs = _pair_rect_bounds(metric)

    def pair_fn(a, b):
        return paired_distances(a, b, metric)

    qpts = points[qid]
    rho_q = rho_rows[qord, qid]
    key_q = key_rows[qord, qid]
    # Pruning radius per query: min(best candidate so far, ub), where ub is
    # the sound upper bound from nodes whose maxrho is *strictly* above ρ(p)
    # (they certainly contain a denser object, so their maxdist bounds δ).
    # Pruning always compares with strict '>', so equal-distance candidates
    # stay reachable for the smaller-id tie-break.
    radius = np.full(m, np.inf, dtype=np.float64)

    seeded_parent = None
    if not distance_pruning:
        own_leaf = None
    else:
        # Seed every query with its own containing leaf: most objects find
        # their nearest denser neighbour inside it, so the traversal starts
        # with a near-final radius and Lemma 2 collapses the upper levels.
        # The traversal skips the seeded leaf (already fully resolved).
        # Rows whose own_leaf is -1 (non-members of this image) skip the
        # seeding and resolve through the plain traversal.
        if own_leaf is None:
            own_leaf = flat.leaf_node_of[qid]
        else:
            own_leaf = np.asarray(own_leaf, dtype=np.int64)
        seeded = np.flatnonzero(own_leaf >= 0)
        if len(seeded):
            _resolve_pairs(
                seeded,
                flat.leaf_start[own_leaf[seeded]], flat.leaf_size[own_leaf[seeded]],
                flat.leaf_ids, points, qpts, qord, key_q, key_rows,
                pair_fn, stats, best_d, best_id, radius,
            )
        # Queries densest within their own leaf still have an infinite
        # radius and would cascade through the whole upper tree; a second
        # hop over the leaf's (leaf-)siblings resolves almost all of them.
        need = np.flatnonzero(np.isinf(radius) & (own_leaf >= 0))
        if len(need):
            sib_parent = flat.parent[own_leaf[need]]
            counts = flat.child_count[sib_parent]
            sibling, _ = _expand_csr(flat.child_start[sib_parent], counts)
            sib_row = np.repeat(need, counts)
            fresh = (flat.child_count[sibling] == 0) & (
                sibling != own_leaf[sib_row]
            )
            _resolve_pairs(
                sib_row[fresh],
                flat.leaf_start[sibling[fresh]], flat.leaf_size[sibling[fresh]],
                flat.leaf_ids, points, qpts, qord, key_q, key_rows,
                pair_fn, stats, best_d, best_id, radius,
            )
            # The traversal must not re-scan the leaf siblings resolved
            # here; remember the seeded parent per query.
            seeded_parent = np.full(m, -1, dtype=np.int64)
            seeded_parent[need] = sib_parent

    pair_node = np.zeros(m, dtype=np.int64)  # everyone starts at the root
    pair_row = np.arange(m, dtype=np.int64)
    pair_dmin = np.zeros(m, dtype=np.float64)
    while len(pair_node):
        if distance_pruning:
            # Re-check on arrival: the radius may have tightened since the
            # pair was enqueued (Lemma 2, the reference's stale-entry check).
            keep = pair_dmin <= radius[pair_row]
            stats.nodes_pruned_distance += int(len(keep) - keep.sum())
            pair_node = pair_node[keep]
            pair_row = pair_row[keep]
            pair_dmin = pair_dmin[keep]
            if len(pair_node) == 0:
                break
        stats.nodes_visited += len(pair_node)
        is_leaf = flat.child_count[pair_node] == 0
        if is_leaf.any():
            leaf_node = pair_node[is_leaf]
            leaf_row = pair_row[is_leaf]
            leaf_dmin = pair_dmin[is_leaf]
            if own_leaf is not None:  # seeded leaves are already resolved
                fresh = leaf_node != own_leaf[leaf_row]
                if seeded_parent is not None:
                    fresh &= flat.parent[leaf_node] != seeded_parent[leaf_row]
                leaf_node = leaf_node[fresh]
                leaf_row = leaf_row[fresh]
                leaf_dmin = leaf_dmin[fresh]
            if distance_pruning and len(leaf_node):
                # Wave-based resolution emulates the reference's best-first
                # ordering: each wave resolves every query's nearest
                # still-unresolved leaf, then re-prunes its remaining leaves
                # with the tightened radius.  A few waves kill almost all
                # surviving pairs; the small remainder resolves in one go.
                order = np.lexsort((leaf_dmin, leaf_row))
                leaf_node = leaf_node[order]
                leaf_row = leaf_row[order]
                leaf_dmin = leaf_dmin[order]
                for _wave in range(3):
                    if len(leaf_node) == 0:
                        break
                    nearest = np.ones(len(leaf_row), dtype=bool)
                    nearest[1:] = leaf_row[1:] != leaf_row[:-1]
                    _resolve_pairs(
                        leaf_row[nearest],
                        flat.leaf_start[leaf_node[nearest]],
                        flat.leaf_size[leaf_node[nearest]],
                        flat.leaf_ids, points, qpts, qord, key_q, key_rows,
                        pair_fn, stats, best_d, best_id, radius,
                    )
                    rest = ~nearest
                    keep = leaf_dmin[rest] <= radius[leaf_row[rest]]
                    stats.nodes_pruned_distance += int(len(keep) - keep.sum())
                    leaf_node = leaf_node[rest][keep]
                    leaf_row = leaf_row[rest][keep]
                    leaf_dmin = leaf_dmin[rest][keep]
            _resolve_pairs(
                leaf_row,
                flat.leaf_start[leaf_node], flat.leaf_size[leaf_node],
                flat.leaf_ids, points, qpts, qord, key_q, key_rows,
                pair_fn, stats, best_d, best_id, radius,
            )
        pair_node, pair_row = pair_node[~is_leaf], pair_row[~is_leaf]
        if len(pair_node) == 0:
            break
        # Expand every pair to its children (contiguous ids by construction).
        counts = flat.child_count[pair_node]
        child_node, _ = _expand_csr(flat.child_start[pair_node], counts)
        child_row = np.repeat(pair_row, counts)
        if len(maxrho) == 1:  # single density order: skip the qord gather
            child_maxrho = maxrho[0, child_node]
        else:
            child_maxrho = maxrho[qord[child_row], child_node]
        child_rho = rho_q[child_row]
        child_dmin = mind_pairs(
            qpts[child_row], flat.lo[child_node], flat.hi[child_node]
        )
        # Both lemmas evaluated on the full pair array, one filter pass
        # (cheap vector arithmetic beats repeated boolean gathers).
        keep = None
        if density_pruning:
            alive = child_maxrho >= child_rho  # Lemma 1
            stats.nodes_pruned_density += int(len(alive) - alive.sum())
            keep = alive
        if distance_pruning:
            ok = child_dmin <= radius[child_row]  # Lemma 2
            if keep is None:
                stats.nodes_pruned_distance += int(len(ok) - ok.sum())
                keep = ok
            else:
                # Reference ordering: distance pruning only examines the
                # density survivors.
                stats.nodes_pruned_distance += int((keep & ~ok).sum())
                keep &= ok
        if keep is not None:
            child_node = child_node[keep]
            child_row = child_row[keep]
            child_dmin = child_dmin[keep]
        if distance_pruning:
            sure = child_maxrho[keep] > child_rho[keep] if keep is not None else (
                child_maxrho > child_rho
            )
            if sure.any():
                sure_row = child_row[sure]
                dmax = maxd_pairs(
                    qpts[sure_row], flat.lo[child_node[sure]], flat.hi[child_node[sure]]
                )
                np.minimum.at(radius, sure_row, dmax)
        pair_node, pair_row, pair_dmin = child_node, child_row, child_dmin
    return best_d, best_id
