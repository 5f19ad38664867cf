"""DBSCAN (Ester et al. [2]) — the paper's Section 1 comparison point.

The paper contrasts DPC with DBSCAN: both need a cut-off distance, DBSCAN
additionally needs ``min_pts`` to separate core from non-core objects, and a
cluster is a connected component of core objects plus their border points.
This implementation reuses the package's own tree indexes for the ε-range
queries — a nice demonstration that the index layer is not DPC-specific.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.quantities import check_points
from repro.geometry.distance import Metric, get_metric

__all__ = ["DBSCANResult", "dbscan"]

NOISE: int = -1


@dataclass
class DBSCANResult:
    """Labels (``-1`` = noise) plus the core-point mask."""

    labels: np.ndarray
    core_mask: np.ndarray
    eps: float
    min_pts: int

    @property
    def n_clusters(self) -> int:
        positive = self.labels[self.labels >= 0]
        return int(positive.max()) + 1 if len(positive) else 0

    def noise_count(self) -> int:
        return int((self.labels == NOISE).sum())


def _range_neighbors(points: np.ndarray, p: int, eps: float, metric: Metric) -> np.ndarray:
    d = metric.distances_from(points, points[p])
    neighbors = np.flatnonzero(d <= eps)
    return neighbors[neighbors != p]


def dbscan(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    metric: "str | Metric" = "euclidean",
) -> DBSCANResult:
    """Classic DBSCAN with BFS cluster expansion.

    ``min_pts`` counts neighbours *excluding* the point itself, mirroring how
    this package's ρ excludes the object (paper Eq. 1).
    """
    points = check_points(points)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    m = get_metric(metric)
    n = len(points)

    neighborhoods = [None] * n
    core = np.zeros(n, dtype=bool)
    for p in range(n):
        nb = _range_neighbors(points, p, eps, m)
        neighborhoods[p] = nb
        core[p] = len(nb) >= min_pts

    labels = np.full(n, NOISE, dtype=np.int64)
    cluster = 0
    for p in range(n):
        if labels[p] != NOISE or not core[p]:
            continue
        labels[p] = cluster
        queue = deque(neighborhoods[p])
        while queue:
            q = queue.popleft()
            if labels[q] == NOISE:
                labels[q] = cluster  # border or core point joins the cluster
                if core[q]:
                    queue.extend(neighborhoods[q])
        cluster += 1
    return DBSCANResult(labels=labels, core_mask=core, eps=eps, min_pts=min_pts)
