"""The original Θ(n²) DPC algorithm (the paper's comparison baseline).

This is the algorithm of Rodriguez & Laio [1] as restated in Section 2 of the
paper: compute all pairwise distances, count neighbours within ``dc`` for ρ,
then scan all denser objects for δ.  Implemented with blockwise numpy so the
quadratic *time* cost does not come with a quadratic *memory* cost.

Every index in :mod:`repro.indexes` is validated against this module.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.quantities import (
    NO_NEIGHBOR,
    DensityOrder,
    DPCQuantities,
    TieBreak,
    check_dc,
    check_points,
)
from repro.geometry.distance import Metric, get_metric, pairwise_blocks

__all__ = ["naive_rho", "naive_quantities", "estimate_dc"]


def naive_rho(
    points: np.ndarray,
    dc: float,
    metric: "str | Metric" = "euclidean",
    block_rows: int = 1024,
) -> np.ndarray:
    """Local densities by brute force: ``ρ(p) = |{q ≠ p : dist(p,q) < dc}|``.

    ``points`` and ``dc`` are validated like an index's
    (:func:`~repro.core.quantities.check_points`,
    :func:`~repro.core.quantities.check_dc`), so a bad input fails the
    oracle as it fails every family.
    """
    points = check_points(points)
    dc = check_dc(dc)
    n = len(points)
    rho = np.empty(n, dtype=np.int64)
    for start, stop, block in pairwise_blocks(points, metric, block_rows):
        within = block < dc
        counts = within.sum(axis=1)
        # The diagonal entries are the self-distances (0 < dc): subtract them.
        counts -= 1
        rho[start:stop] = counts
    return rho


def naive_quantities(
    points: np.ndarray,
    dc: float,
    metric: "str | Metric" = "euclidean",
    tie_break: "str | TieBreak" = TieBreak.ID,
    block_rows: int = 1024,
    rho: Optional[np.ndarray] = None,
) -> DPCQuantities:
    """Compute (ρ, δ, μ) by brute force.

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix.
    dc:
        Cut-off distance (paper Eq. 1, strict ``<``).
    metric:
        Any registered metric; see :func:`repro.geometry.get_metric`.
    tie_break:
        Density-tie convention; see :class:`repro.core.TieBreak`.
    block_rows:
        Row-block size for the pairwise sweeps (peak memory is
        ``O(block_rows · n)``).
    rho:
        Precomputed densities to reuse (skips the first sweep).
    """
    points = check_points(points)
    dc = check_dc(dc)
    if rho is None:
        rho = naive_rho(points, dc, metric, block_rows)
    order = DensityOrder(rho, tie_break)
    n = len(points)

    delta = np.empty(n, dtype=np.float64)
    mu = np.full(n, NO_NEIGHBOR, dtype=np.int64)
    peaks = order.global_peaks()
    peak_set = set(int(p) for p in peaks)

    for start, stop, block in pairwise_blocks(points, metric, block_rows):
        rows = np.arange(start, stop)
        if order.tie_break is TieBreak.ID:
            denser = order.rank[None, :] < order.rank[rows, None]
        else:
            denser = rho[None, :] > rho[rows, None]
        masked = np.where(denser, block, np.inf)
        arg = masked.argmin(axis=1)
        best = masked[np.arange(len(rows)), arg]
        for i, p in enumerate(rows):
            if p in peak_set:
                # Convention for the densest object: δ = max_q dist(p, q).
                delta[p] = block[i].max()
                mu[p] = NO_NEIGHBOR
            else:
                delta[p] = best[i]
                mu[p] = arg[i]
    return DPCQuantities(dc=dc, rho=rho, delta=delta, mu=mu, density_order=order)


def estimate_dc(
    points: np.ndarray,
    neighbor_fraction: float = 0.02,
    metric: "str | Metric" = "euclidean",
    sample_size: int = 2048,
    seed: int = 0,
) -> float:
    """Heuristic ``dc`` so that the average ρ is ≈ ``neighbor_fraction · n``.

    Rodriguez & Laio's rule of thumb is to choose ``dc`` so each object has,
    on average, 1–2% of the dataset as neighbours.  We estimate the
    ``neighbor_fraction`` quantile of the pairwise distance distribution from
    a random sample (exact for small inputs).
    """
    points = check_points(points)
    if not (0.0 < neighbor_fraction < 1.0):
        raise ValueError(f"neighbor_fraction must be in (0, 1), got {neighbor_fraction}")
    rng = np.random.default_rng(seed)
    n = len(points)
    if n > sample_size:
        idx = rng.choice(n, size=sample_size, replace=False)
        sample = points[idx]
    else:
        sample = points
    m = get_metric(metric)
    d = m.cross(sample, sample)
    iu = np.triu_indices(len(sample), k=1)
    flat = d[iu]
    if len(flat) == 0:
        raise ValueError("need at least 2 points to estimate dc")
    dc = float(np.quantile(flat, neighbor_fraction))
    if dc <= 0.0:
        # All sampled pairs coincide at the quantile; fall back to the
        # smallest strictly positive distance so that dc stays usable.
        positive = flat[flat > 0.0]
        if len(positive) == 0:
            raise ValueError("all points coincide; dc cannot be estimated")
        dc = float(positive.min())
    return dc
