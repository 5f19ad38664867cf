"""Lloyd's k-means — the paper's centroid-based comparison point.

Section 1 argues density-based methods beat centroid-based ones on
arbitrary-shaped clusters and outlier handling; the comparison example uses
this implementation (k-means++ seeding, Lloyd iterations) to show it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.quantities import check_points

__all__ = ["KMeansResult", "kmeans"]


@dataclass
class KMeansResult:
    """Labels, centroids, inertia, and iteration count of one k-means run."""

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    n_iter: int

    @property
    def n_clusters(self) -> int:
        return len(self.centroids)


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each next centroid sampled ∝ squared distance."""
    n = len(points)
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(n)]
    closest_sq = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total == 0.0:
            centroids[i:] = centroids[0]
            break
        probs = closest_sq / total
        centroids[i] = points[rng.choice(n, p=probs)]
        d = ((points - centroids[i]) ** 2).sum(axis=1)
        np.minimum(closest_sq, d, out=closest_sq)
    return centroids


def kmeans(
    points: np.ndarray,
    k: int,
    max_iter: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ initialisation (squared-Euclidean)."""
    points = check_points(points)
    if not (1 <= k <= len(points)):
        raise ValueError(f"k must be in [1, {len(points)}], got {k}")
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(points, k, rng)

    labels = np.zeros(len(points), dtype=np.int64)
    inertia = np.inf
    for iteration in range(1, max_iter + 1):
        # Assignment step.
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        new_inertia = float(d2[np.arange(len(points)), labels].sum())
        # Update step; empty clusters re-seed at the farthest point.
        for c in range(k):
            members = points[labels == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                farthest = int(d2.min(axis=1).argmax())
                centroids[c] = points[farthest]
        if abs(inertia - new_inertia) <= tol * max(inertia, 1.0):
            inertia = new_inertia
            break
        inertia = new_inertia
    return KMeansResult(
        labels=labels, centroids=centroids, inertia=inertia, n_iter=iteration
    )
