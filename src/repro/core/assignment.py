"""Object-to-cluster assignment (paper Section 2, step 4).

After centres are chosen, every remaining object joins the cluster of its
nearest higher-density neighbour μ.  The classic formulation processes
objects densest-first so μ's label is already known when an object is
visited; here the μ-forest is collapsed by **pointer jumping** instead:
centres (and unselected peaks, once placed at their nearest centre) point
at themselves, every other object at its μ, and ``root = root[root]``
repeats until nothing moves.  Each round doubles the hops every pointer
covers, so the loop runs ``O(log depth)`` vectorised rounds, not one per
object or per forest level, and every object ends at the labelled root of
its μ-chain.  Labels and error behaviour are identical to the sequential
pass — a μ edge pointing at an equal-or-lower-density object is reported
for exactly the object the densest-first loop would have tripped on, and
is rejected before any pointer moves.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.quantities import NO_NEIGHBOR, DPCQuantities
from repro.geometry.distance import Metric, get_metric

__all__ = ["assign_labels"]


def assign_labels(
    quantities: DPCQuantities,
    centers: np.ndarray,
    points: Optional[np.ndarray] = None,
    metric: "str | Metric" = "euclidean",
) -> np.ndarray:
    """Propagate centre labels down the μ-chains.

    Parameters
    ----------
    quantities:
        The (ρ, δ, μ) triple; ``μ`` drives the propagation.
    centers:
        Centre object ids.  Cluster ``c`` is the cluster whose centre is
        ``centers[c]`` (densest-first ordering is conventional but not
        required).
    points, metric:
        Only needed for the corner case of an *unselected peak*: an object
        with ``μ = NO_NEIGHBOR`` that is not a centre (possible under
        ``TieBreak.STRICT``, or with an approximate index whose τ hid every
        denser neighbour).  Such objects join the nearest centre by distance
        (one batched cross over all of them); without ``points`` this raises
        instead of guessing.

    Returns
    -------
    ``(n,)`` int64 labels in ``0..len(centers)-1``.
    """
    centers = np.asarray(centers, dtype=np.int64)
    if centers.ndim != 1 or len(centers) == 0:
        raise ValueError(f"centers must be a non-empty 1-D id array, got shape {centers.shape}")
    n = len(quantities)
    if np.any((centers < 0) | (centers >= n)):
        raise ValueError("center ids out of range")
    if len(np.unique(centers)) != len(centers):
        raise ValueError("duplicate center ids")

    labels = np.full(n, -1, dtype=np.int64)
    labels[centers] = np.arange(len(centers))

    mu = np.asarray(quantities.mu, dtype=np.int64)
    rank = quantities.density_order.rank
    pending = np.flatnonzero(labels == -1)
    has_parent = mu[pending] != NO_NEIGHBOR
    orphans = pending[~has_parent]  # unselected peaks
    chained = pending[has_parent]

    # Identical error behaviour to the densest-first sequential pass: it
    # trips on the *first* offending object in density order — either an
    # unselected peak with no points to fall back on, or an object whose μ
    # points at an equal-or-lower-density object (labels[mu] is then still
    # unset when the object is visited — unless that object is a centre,
    # labelled from the start).  Valid chains always step to a strictly
    # smaller rank, so induction over the order labels every earlier
    # object first.
    is_center = np.zeros(n, dtype=bool)
    is_center[centers] = True
    parents = mu[chained]
    bad = chained[(rank[parents] >= rank[chained]) & ~is_center[parents]]
    first_bad = int(bad[np.argmin(rank[bad])]) if len(bad) else None
    if points is None and len(orphans):
        first_orphan = int(orphans[np.argmin(rank[orphans])])
        if first_bad is None or rank[first_orphan] < rank[first_bad]:
            raise ValueError(
                f"object {first_orphan} is a peak (mu = NO_NEIGHBOR) but not a selected "
                "center; pass points= so it can join the nearest center"
            )
    if first_bad is not None:
        raise ValueError(
            f"mu chain broken at object {first_bad}: neighbor {int(mu[first_bad])} "
            "not yet labeled"
        )

    if len(orphans):
        # One batched cross instead of a distances_from call per peak; ties
        # resolve to the first (lowest-index) centre, like the scalar argmin.
        m = get_metric(metric)
        pts = np.ascontiguousarray(points, dtype=np.float64)
        d = m.cross(pts[orphans], pts[centers])
        labels[orphans] = d.argmin(axis=1)

    # Pointer jumping: the checks above leave every μ-chain strictly
    # densening until it meets a labelled object, which points at itself.
    root = np.arange(n, dtype=np.int64)
    root[chained] = parents
    while True:
        jumped = root[root]
        if np.array_equal(jumped, root):
            # A root reads its own label, so the gather may write into the
            # array it reads ("clip": unbuffered; every index is in range).
            # Filling the array allocated first, not a new one, keeps a
            # threaded server's peak RSS where the per-level loop left it.
            np.take(labels, root, out=labels, mode="clip")
            return labels
        root = jumped
