"""Alternative density definitions for DPC (related-work extensions).

The paper's Section 6 surveys DPC variants that redefine local density:

* the original Science'14 paper itself suggests a **Gaussian kernel**
  density ``ρ(p) = Σ_q exp(-(dist(p,q)/dc)²)`` for small samples (it breaks
  the integer ties of the cut-off kernel);
* Wang & Song [27] build density from the **k nearest neighbours** — dense
  objects have close kNN — which removes the dc parameter from step 1
  entirely.

Both produce *real-valued* densities.  Everything downstream of ρ in this
package — :class:`~repro.core.quantities.DensityOrder`, every index's
``delta_all``, centre selection, assignment — is density-dtype-agnostic, so
these variants plug straight in::

    index = KDTreeIndex().fit(points)
    rho = gaussian_density(points, dc=0.5)
    q = variant_quantities(index, rho, dc=0.5)
    centers = select_centers_auto(q)

The δ query still benefits from the index (Lemma 1/2 pruning work verbatim
with float maxrho).  The kNN density is cheapest with a fitted
:class:`~repro.indexes.list_index.ListIndex`, where the kNN distances are
just the first ``k`` columns of the N-List.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.quantities import (
    DensityOrder,
    DPCQuantities,
    TieBreak,
    check_dc,
    check_points,
)
from repro.geometry.distance import Metric, pairwise_blocks
from repro.indexes.base import DPCIndex
from repro.indexes.list_index import ListIndex

__all__ = ["gaussian_density", "knn_density", "variant_quantities"]


def gaussian_density(
    points: np.ndarray,
    dc: float,
    metric: "str | Metric" = "euclidean",
    block_rows: int = 1024,
) -> np.ndarray:
    """Gaussian-kernel density: ``ρ(p) = Σ_{q≠p} exp(-(dist(p,q)/dc)²)``.

    The soft analogue of the paper's Eq. 1 — every object contributes,
    weighted by proximity, so densities are virtually never tied.
    """
    points = check_points(points)
    dc = check_dc(dc)
    n = len(points)
    rho = np.empty(n, dtype=np.float64)
    for start, stop, block in pairwise_blocks(points, metric, block_rows):
        contrib = np.exp(-((block / dc) ** 2))
        # Remove the self-contribution exp(0) = 1 on the diagonal slice.
        rho[start:stop] = contrib.sum(axis=1) - 1.0
    return rho


def knn_density(
    list_index: ListIndex,
    k: int,
    mode: str = "mean",
) -> np.ndarray:
    """kNN-based density (Wang & Song style): inverse of the kNN radius.

    Parameters
    ----------
    list_index:
        A fitted :class:`~repro.indexes.list_index.ListIndex`; the kNN
        distances are read straight off the sorted N-Lists.
    k:
        Number of neighbours.
    mode:
        ``"mean"`` — ``ρ(p) = 1 / mean(dist to k nearest)``;
        ``"max"``  — ``ρ(p) = 1 / dist to the k-th nearest`` (the kNN radius).

    Tied densities are possible only for exactly coincident neighbourhoods,
    so the id tie-break rarely engages — one of the variant's selling points.
    """
    if not isinstance(list_index, ListIndex):
        raise TypeError("knn_density reads N-Lists; pass a fitted ListIndex")
    dists = list_index.neighbor_dists  # raises if unfitted
    n, width = dists.shape
    if not (1 <= k <= width):
        raise ValueError(f"k must be in [1, {width}], got {k}")
    if mode == "mean":
        radius = dists[:, :k].mean(axis=1)
    elif mode == "max":
        radius = dists[:, k - 1].copy()
    else:
        raise ValueError(f"mode must be 'mean' or 'max', got {mode!r}")
    # Coincident points give radius 0 = infinite density; cap at the densest
    # resolvable scale instead of emitting inf (which would break gamma).
    positive = radius[radius > 0.0]
    floor = positive.min() * 1e-3 if len(positive) else 1.0
    return 1.0 / np.maximum(radius, floor)


def variant_quantities(
    index: DPCIndex,
    rho: np.ndarray,
    dc: float,
    tie_break: "str | TieBreak" = TieBreak.ID,
) -> DPCQuantities:
    """Assemble DPC quantities from an externally supplied density.

    ``delta``/``mu`` come from the index's pruned δ query, exactly as in the
    standard pipeline; ``dc`` is recorded for provenance (the kNN variant
    has no dc of its own — pass the value used downstream, e.g. for halo).
    """
    rho = np.asarray(rho, dtype=np.float64)
    if len(rho) != index.n:
        raise ValueError(f"rho has {len(rho)} entries, index holds {index.n} points")
    order = DensityOrder(rho, tie_break)
    delta, mu = index.delta_all(order)
    return DPCQuantities(dc=float(dc), rho=order.rho, delta=delta, mu=mu, density_order=order)
