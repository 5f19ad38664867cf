"""Decision graph and cluster-centre selection (paper Section 2, step 3).

Centres are objects with simultaneously high ρ and anomalously large δ; the
paper (like the original Science'14 algorithm) reads them manually off a
ρ-vs-δ scatter plot.  A library cannot stop for manual input, so three
selection strategies are provided:

* :func:`select_centers_threshold` — the manual procedure encoded as two
  thresholds (exactly what a user does by drawing a box on the plot);
* :func:`select_centers_top_k` — the widely used γ = ρ·δ ranking when the
  number of clusters is known;
* :func:`select_centers_auto` — a deterministic largest-gap heuristic on the
  sorted γ sequence for when it is not.

:class:`DecisionGraph` bundles the plot data so examples can render it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.quantities import DPCQuantities

__all__ = [
    "DecisionGraph",
    "select_centers_threshold",
    "select_centers_top_k",
    "select_centers_auto",
    "suggest_outliers",
]


@dataclass(frozen=True)
class DecisionGraph:
    """The ρ-vs-δ scatter data of one clustering run.

    ``gamma`` is the ρ·δ product used by the ranking strategies; all arrays
    are aligned by object id.
    """

    rho: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray

    @classmethod
    def from_quantities(cls, q: DPCQuantities) -> "DecisionGraph":
        return cls(rho=q.rho.copy(), delta=q.delta.copy(), gamma=q.gamma)

    def __len__(self) -> int:
        return len(self.rho)

    def top_gamma(self, k: int) -> np.ndarray:
        """Ids of the ``k`` largest-γ objects, densest-first for ties.

        The order is the full ``(-γ, -ρ, id)`` lexsort, run over only the
        objects whose γ reaches the ``k``-th largest value (one
        ``np.partition``): every top-``k`` member is among them, and all
        others sort after them, so the first ``k`` are the same.
        """
        n = len(self)
        if not (1 <= k <= n):
            raise ValueError(f"k must be in [1, {n}], got {k}")
        neg = -self.gamma
        ids = np.arange(n)
        if k < n:
            kth = np.partition(neg, k - 1)[k - 1]
            if not np.isnan(kth):  # NaN sorts last: then every object competes
                ids = np.flatnonzero(neg <= kth)
        order = np.lexsort((ids, -self.rho[ids], neg[ids]))
        return ids[order[:k]]

    def as_table(self, limit: int = 10) -> str:
        """Plain-text rendering of the top-γ corner of the graph."""
        ids = self.top_gamma(min(limit, len(self)))
        lines = [f"{'id':>8} {'rho':>8} {'delta':>12} {'gamma':>12}"]
        for p in ids:
            lines.append(
                f"{p:>8d} {self.rho[p]:>8d} {self.delta[p]:>12.6g} {self.gamma[p]:>12.6g}"
            )
        return "\n".join(lines)


def select_centers_threshold(
    quantities: DPCQuantities,
    rho_min: float,
    delta_min: float,
) -> np.ndarray:
    """Centres = objects with ``ρ ≥ rho_min`` **and** ``δ ≥ delta_min``.

    This is the encoded form of the manual decision-graph procedure: the user
    draws the lower-left corner of the "anomalously large" region.
    Returns centre ids sorted densest-first.
    """
    mask = (quantities.rho >= rho_min) & (quantities.delta >= delta_min)
    centers = np.flatnonzero(mask)
    if len(centers) == 0:
        raise ValueError(
            f"no object satisfies rho >= {rho_min} and delta >= {delta_min}; "
            "lower the thresholds or use select_centers_top_k"
        )
    return centers[np.argsort(quantities.density_order.rank[centers])]


def select_centers_top_k(quantities: DPCQuantities, k: int) -> np.ndarray:
    """The ``k`` objects with the largest γ = ρ·δ, densest-first."""
    graph = DecisionGraph.from_quantities(quantities)
    centers = graph.top_gamma(k)
    return centers[np.argsort(quantities.density_order.rank[centers])]


def select_centers_auto(
    quantities: DPCQuantities,
    max_centers: Optional[int] = None,
    min_centers: int = 1,
    z_threshold: float = 3.5,
) -> np.ndarray:
    """Deterministic reading of "anomalously large" off the decision graph.

    Centres are objects whose ``log γ`` is a robust outlier above the bulk:
    more than ``z_threshold`` MAD-scaled deviations over the median (the
    standard modified z-score).  This matches how a user reads the graph —
    centres sit far above the cloud regardless of how many there are — and,
    unlike a largest-gap cut, does not collapse when the dataset has many
    similar centres (e.g. Birch's 100 grid clusters).

    Falls back to a largest-ratio gap cut when the γ distribution is too
    degenerate for MAD (more than half the values identical).  Exposed so
    examples, tests and the harness never need interactive input; it is a
    convenience, not a contribution of the paper.
    """
    graph = DecisionGraph.from_quantities(quantities)
    n = len(graph)
    if min_centers < 1:
        raise ValueError(f"min_centers must be >= 1, got {min_centers}")
    cap = n if max_centers is None else min(max_centers, n)
    if cap < min_centers:
        raise ValueError(f"max_centers {max_centers} < min_centers {min_centers}")

    gamma = graph.gamma
    tiny = np.finfo(np.float64).tiny
    log_gamma = np.log(np.maximum(gamma, tiny))
    median = np.median(log_gamma)
    mad = np.median(np.abs(log_gamma - median))
    if mad > 0.0:
        z = 0.6745 * (log_gamma - median) / mad  # modified z-score
        chosen = np.flatnonzero(z > z_threshold)
        chosen = chosen[np.argsort(-gamma[chosen], kind="stable")]
    else:
        # Degenerate bulk: cut the sorted γ sequence at its largest ratio.
        candidates = graph.top_gamma(min(max(2 * min_centers, 32), n))
        g = gamma[candidates]
        ratios = (g[:-1] + tiny) / (g[1:] + tiny)
        cut = int(np.argmax(ratios)) + 1
        chosen = candidates[:cut]

    if len(chosen) < min_centers:
        chosen = graph.top_gamma(min_centers)
    elif len(chosen) > cap:
        chosen = chosen[:cap]
    return chosen[np.argsort(quantities.density_order.rank[chosen])]


def suggest_outliers(
    quantities: DPCQuantities,
    rho_max: float,
    delta_min: float,
) -> np.ndarray:
    """Objects in the top-*left* corner of the decision graph.

    The paper's Figure 2b reads outliers (ids 26–28 in the toy example) as
    objects with *small* ρ but *large* δ: isolated points far from any denser
    region.  Returned sorted by descending δ.
    """
    mask = (quantities.rho <= rho_max) & (quantities.delta >= delta_min)
    outliers = np.flatnonzero(mask)
    return outliers[np.argsort(-quantities.delta[outliers])]
