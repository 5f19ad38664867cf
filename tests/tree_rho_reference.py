"""The per-``(query, node)`` tree ρ kernel, kept as the test reference.

This is the body :func:`repro.indexes.kernels.tree_rho_batched` had before
it grouped queries by leaf: every query classifies every node it reaches on
its own, and leaves are scanned through CSR gathers.  Its results and its
``IndexStats`` counters define what the production kernel must reproduce
bit for bit (``tests/properties/test_prop_tree_rho.py``).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.distance import paired_distances
from repro.indexes.kernels import FlatTree, _expand_csr, _pair_rect_bounds


def reference_tree_rho(
    flat: FlatTree,
    points: np.ndarray,
    dc: float,
    metric,
    stats,
    qid: "np.ndarray | None" = None,
) -> np.ndarray:
    """Batched Algorithm 5, one ``(query, node)`` pair at a time."""
    dc = float(dc)
    if qid is None:
        qpts = points
    else:
        qpts = points[np.asarray(qid, dtype=np.int64)]
    m = len(qpts)
    counts = np.zeros(m, dtype=np.int64)
    mind_pairs, maxd_pairs = _pair_rect_bounds(metric)

    def pair_fn(a, b):
        return paired_distances(a, b, metric)

    pair_node = np.zeros(m, dtype=np.int64)  # every query starts at the root
    pair_row = np.arange(m, dtype=np.int64)
    while len(pair_node):
        stats.nodes_visited += len(pair_node)
        alive = mind_pairs(qpts[pair_row], flat.lo[pair_node], flat.hi[pair_node]) < dc
        pair_node, pair_row = pair_node[alive], pair_row[alive]
        if len(pair_node) == 0:
            break
        contained = (
            maxd_pairs(qpts[pair_row], flat.lo[pair_node], flat.hi[pair_node]) < dc
        )
        if contained.any():
            stats.nodes_contained += int(contained.sum())
            counts += np.rint(
                np.bincount(
                    pair_row[contained],
                    weights=flat.nc[pair_node[contained]],
                    minlength=m,
                )
            ).astype(np.int64)
            pair_node, pair_row = pair_node[~contained], pair_row[~contained]
            if len(pair_node) == 0:
                break
        is_leaf = flat.child_count[pair_node] == 0
        if is_leaf.any():
            leaf_node = pair_node[is_leaf]
            leaf_row = pair_row[is_leaf]
            sizes = flat.leaf_size[leaf_node]
            nz = sizes > 0
            if nz.any():
                leaf_row, sizes = leaf_row[nz], sizes[nz]
                flat_idx, seg_off = _expand_csr(flat.leaf_start[leaf_node[nz]], sizes)
                cand = flat.leaf_ids[flat_idx]
                d = pair_fn(qpts[np.repeat(leaf_row, sizes)], points[cand])
                stats.distance_evals += len(cand)
                within = np.add.reduceat((d < dc).astype(np.int64), seg_off)
                counts += np.rint(
                    np.bincount(leaf_row, weights=within, minlength=m)
                ).astype(np.int64)
        pair_node, pair_row = pair_node[~is_leaf], pair_row[~is_leaf]
        if len(pair_node) == 0:
            break
        child_count = flat.child_count[pair_node]
        pair_node, _ = _expand_csr(flat.child_start[pair_node], child_count)
        pair_row = np.repeat(pair_row, child_count)
    # Every query was counted inside its own query circle (dist 0 < dc);
    # Eq. 1 excludes the object itself.
    counts -= 1
    return counts
