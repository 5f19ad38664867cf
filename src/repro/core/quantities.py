"""DPC quantities (ρ, δ, μ) and the density total order.

The paper defines (Section 2):

* ``ρ(p)`` — number of objects ``q ≠ p`` with ``dist(p, q) < dc`` (Eq. 1);
* ``δ(p)`` — minimum distance to any *higher-density* object (Eq. 2), with
  ``δ = max_q dist(p, q)`` for the globally densest object;
* ``μ(p)`` — the higher-density object realising ``δ(p)``.

Density ties
------------
With integer densities, ties are common (uniform regions, tiny ``dc``).  Under
the strict reading of Eq. 2 every object tied at a locally maximal density has
*no* higher-density neighbour, which sprays spurious peaks across flat
regions.  The paper's own worked example breaks ties by object id ("suppose a
smaller object ID represents a higher local density", Example 1), matching the
original Rodriguez–Laio implementation which processes objects in a fixed
density-descending order.  We support both conventions:

* :data:`TieBreak.ID` (default) — ``q`` is denser than ``p`` iff
  ``ρ(q) > ρ(p)`` or (``ρ(q) = ρ(p)`` and ``q < p``).  This is a total order;
  exactly one object (the *global peak*) has no denser object.
* :data:`TieBreak.STRICT` — Eq. 2 verbatim; every object at the global
  maximum density gets ``δ = max_q dist(p, q)`` and ``μ = NO_NEIGHBOR``.

All indexes in :mod:`repro.indexes` honour the same convention, so exact
indexes reproduce the naive baseline bit-for-bit (the cross-index contract in
DESIGN.md §2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "TieBreak",
    "DensityOrder",
    "DPCQuantities",
    "DPCResult",
    "NO_NEIGHBOR",
    "check_dc",
    "check_points",
]

#: Sentinel stored in ``μ`` for objects with no higher-density neighbour.
NO_NEIGHBOR: int = -1


def check_dc(dc) -> float:
    """``dc`` as a float; ``ValueError`` unless it is finite and positive.

    A plain ``dc <= 0`` test lets NaN through (it compares false with
    everything) and ``inf`` (JSON's ``Infinity`` parses to it); either one
    turns Eq. 1 into nonsense that differs per index family.
    ``DPCIndex.quantities``, ``DPCIndex.rho_all``, the multi-``dc`` sweeps
    and serving admission validate through this helper.
    """
    dc = float(dc)
    if not (np.isfinite(dc) and dc > 0):
        raise ValueError(f"dc must be positive and finite, got {dc}")
    return dc


def check_points(points, name: str = "points") -> np.ndarray:
    """``points`` as a C-contiguous float64 ``(n, d)`` array; ``ValueError``
    unless it holds at least one point of at least one coordinate, and
    every coordinate is finite.

    A NaN or ±inf coordinate fails differently per consumer (NaN δ on the
    trees and ``list``, ``OverflowError`` in ``grid``, a negative bincount
    length in ``ch``, NaN answers from the brute-force oracle), and so does
    a point of no coordinates.  ``DPCIndex.fit`` / ``add_points``, the
    oracle (:mod:`repro.core.baseline`) and the density variants validate
    through this helper, as every cut-off goes through :func:`check_dc`.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or 0 in points.shape:
        raise ValueError(f"{name} must be a non-empty (n, d) array, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError(f"{name} must be finite: NaN and ±inf coordinates are rejected")
    return points


class TieBreak(str, enum.Enum):
    """How equal densities are ordered (see module docstring)."""

    ID = "id"
    STRICT = "strict"

    @classmethod
    def coerce(cls, value: "str | TieBreak") -> "TieBreak":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"tie_break must be one of {[m.value for m in cls]}, got {value!r}"
            ) from None


class DensityOrder:
    """A resolved density ordering over ``n`` objects.

    Wraps a ρ array together with the tie-break convention and precomputes the
    density-descending permutation used by δ queries and cluster assignment.

    Attributes
    ----------
    rho:
        ``(n,)`` local densities.  Integer counts (paper Eq. 1) stay int64;
        real-valued densities (the Gaussian-kernel and kNN variants in
        :mod:`repro.extras.variants`) stay float64 — the ordering logic is
        dtype-agnostic.
    order:
        ``(n,)`` object ids sorted densest-first (ties by ascending id).
    rank:
        ``(n,)`` inverse permutation: ``rank[p]`` is ``p``'s position in
        ``order``; under :data:`TieBreak.ID`, ``q`` is denser than ``p`` iff
        ``rank[q] < rank[p]``.
    """

    __slots__ = ("rho", "tie_break", "order", "rank")

    def __init__(self, rho: np.ndarray, tie_break: "str | TieBreak" = TieBreak.ID):
        rho = np.asarray(rho)
        if rho.ndim != 1:
            raise ValueError(f"rho must be 1-D, got shape {rho.shape}")
        if np.issubdtype(rho.dtype, np.integer) or rho.dtype == np.bool_:
            self.rho = rho.astype(np.int64, copy=False)
        elif np.issubdtype(rho.dtype, np.floating):
            if np.isnan(rho).any():
                raise ValueError("rho contains NaN")
            self.rho = rho.astype(np.float64, copy=False)
        else:
            raise ValueError(f"rho must be numeric, got dtype {rho.dtype}")
        self.tie_break = TieBreak.coerce(tie_break)
        ids = np.arange(len(rho))
        # lexsort: last key is primary -> sort by -rho, tie-break ascending id.
        self.order = np.lexsort((ids, -self.rho))
        self.rank = np.empty(len(rho), dtype=np.int64)
        self.rank[self.order] = ids

    def __len__(self) -> int:
        return len(self.rho)

    def is_denser(self, q: int, p: int) -> bool:
        """Is object ``q`` denser than object ``p`` under the convention?"""
        if self.tie_break is TieBreak.ID:
            return bool(self.rank[q] < self.rank[p])
        return bool(self.rho[q] > self.rho[p])

    def denser_mask(self, p: int, candidates: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`is_denser` over an id array ``candidates``."""
        if self.tie_break is TieBreak.ID:
            return self.rank[candidates] < self.rank[p]
        return self.rho[candidates] > self.rho[p]

    def node_may_contain_denser(self, p: int, node_maxrho: float) -> bool:
        """Density-pruning test (Lemma 1) that stays safe under ties.

        A node whose maximum density is *strictly below* ``ρ(p)`` can never
        contain a denser object.  Equality must be kept: under
        :data:`TieBreak.ID` a tied object with a smaller id is denser.
        """
        return node_maxrho >= self.rho[p]

    def global_peaks(self) -> np.ndarray:
        """Ids of objects with no denser object.

        Exactly one id under :data:`TieBreak.ID`; all objects at the maximum
        density under :data:`TieBreak.STRICT`.
        """
        if self.tie_break is TieBreak.ID:
            return self.order[:1].copy()
        return np.flatnonzero(self.rho == self.rho.max())


@dataclass
class DPCQuantities:
    """The (ρ, δ, μ) triple for one ``dc``, plus the order used to derive δ.

    ``mu[p] == NO_NEIGHBOR`` marks objects with no denser neighbour (the
    global peak, or — in the approximate indexes — objects whose denser
    neighbour lies beyond the truncation radius τ).
    """

    dc: float
    rho: np.ndarray
    delta: np.ndarray
    mu: np.ndarray
    density_order: DensityOrder = field(repr=False)

    def __post_init__(self) -> None:
        n = len(self.rho)
        if not (len(self.delta) == len(self.mu) == n):
            raise ValueError(
                f"inconsistent lengths: rho={n}, delta={len(self.delta)}, mu={len(self.mu)}"
            )
        if self.dc <= 0:
            raise ValueError(f"dc must be positive, got {self.dc}")

    def __len__(self) -> int:
        return len(self.rho)

    @property
    def gamma(self) -> np.ndarray:
        """The ``γ = ρ · δ`` centre score (finite δ only; peaks keep their δ)."""
        return self.rho.astype(np.float64) * self.delta


@dataclass
class DPCResult:
    """A complete clustering: quantities + centres + labels (+ halo).

    ``labels[p]`` is the cluster id of object ``p`` (``0..k-1``); objects in
    the halo keep their label, with ``halo[p] = True`` flagging them as
    border/noise per the original DPC paper.
    """

    quantities: DPCQuantities
    centers: np.ndarray
    labels: np.ndarray
    halo: Optional[np.ndarray] = None

    @property
    def n_clusters(self) -> int:
        return len(self.centers)

    @property
    def dc(self) -> float:
        return self.quantities.dc

    @property
    def rho(self) -> np.ndarray:
        return self.quantities.rho

    @property
    def delta(self) -> np.ndarray:
        return self.quantities.delta

    @property
    def mu(self) -> np.ndarray:
        return self.quantities.mu

    def cluster_sizes(self) -> np.ndarray:
        """Number of objects per cluster (halo included)."""
        return np.bincount(self.labels, minlength=self.n_clusters)

    def core_mask(self) -> np.ndarray:
        """Objects not in the halo (all objects when halo was not computed)."""
        if self.halo is None:
            return np.ones(len(self.labels), dtype=bool)
        return ~self.halo
