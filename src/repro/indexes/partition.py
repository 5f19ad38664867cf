"""Partitioned execution: dataset sharding with halo-exchange ρ and
scatter/gather δ.

Every other index in this package accelerates one monolithic structure; the
execution backend (:mod:`repro.indexes.parallel`) shards *queries* over that
one image, so the ceiling stays a single structure on a single box.
:class:`PartitionedIndex` shards the *dataset*: the point set is split into
``partitions`` contiguous space-filling-curve tiles, one per-partition index
of any exact family is fitted per tile, and the two DPC queries recombine
exactly — following the exact-parallel decompositions of "Faster Parallel
Exact Density Peaks Clustering" (arXiv:2305.11335) and the MPI
matrix-formulation DPC (arXiv:2406.12297).

How exactness survives the cut
------------------------------
*Tiling.*  Points are quantised to uniform cells, cells are ordered along a
Morton curve (``scheme="morton"``) or by row-major raveling
(``scheme="grid"``), and the curve order is packed into ``partitions``
equal-count tiles.  Correctness never depends on the tile shapes — only on
the tiles being a deterministic disjoint cover — so the scheme is purely a
locality/balance knob.

*Halo-exchange ρ.*  Each tile's sub-index is fitted over its **core** points
plus a **halo**: every outside point within ``halo_`` (metric units, same
units as ``dc``) of the core bounding box, measured with the metric's exact
``rect_mindist``.  Since ``rect_mindist(q, box) ≤ dist(q, p)`` for any core
point ``p`` (per-axis gaps are dominated coordinate-wise, and the metric's
monotone reductions preserve that under FP), every point strictly within
``dc ≤ halo_`` of a core point is a member of its tile — so the sub-index's
purely local counts *are* the global counts for core rows.  ρ is then a
scatter of core rows by global id.  The halo grows on demand: a query whose
``dc`` exceeds the current width refits the sub-indexes with the wider strip
(``dc`` larger than a tile means the halo swallows whole neighbours — still
exact, just less local).

*Scatter/gather δ.*  Members are ordered by ascending global id, so each
sub-index's local tie-breaks (both conventions) coincide with the global
ones restricted to its members.  A core point whose local nearest-denser
distance ``δ_loc`` satisfies ``δ_loc ≤ halo_`` is **settled** locally: any
global denser point within ``δ_loc`` would be a member too (same
``rect_mindist`` containment), ties included.  The rest gather: partition
summaries (min density-order key ≡ the tie-aware form of the paper's maxrho
Lemma 1 bound) mean only candidate partitions that can hold a denser object
are probed, partitions whose core box lies strictly beyond the running best
distance are skipped (Lemma 2 across shards), and the probed partitions'
per-tile minima merge under the lexicographic ``(distance, id)`` rule.
Global peaks take one blocked max-distance sweep over all points.  Every
path reduces the same elementwise metric arithmetic the monolithic indexes
use, so (ρ, δ, μ) — and therefore labels — are **bit-identical** to a
single-partition fit for every ``dc``, tie-break and exact family.

Execution
---------
All sub-indexes share the parent's one
:class:`~repro.indexes.parallel.ExecutionBackend`: under
``backend="process"`` each per-partition query runs as supervised tasks
over that partition's own ``ShmPack`` image, with the executor's
retry/degradation ladder intact.  Probe counters from the sub-indexes are
folded into the parent's :class:`~repro.indexes.base.IndexStats`; the
partition-level exchange adds its own (:meth:`PartitionedIndex.partition_stats`).
Counters are *not* bit-identical to a monolithic fit — results are.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.quantities import NO_NEIGHBOR, DensityOrder
from repro.geometry.distance import Metric, rect_bounds_many
from repro.indexes.base import DPCIndex, IndexStats
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.obs import trace as obs_trace
from repro.indexes.kernels import (
    delta_multi_from_orders,
    gather_min_denser,
    merge_delta_candidates,
)

__all__ = ["PartitionedIndex", "assign_partitions", "PARTITION_SCHEMES"]

#: Recognised tiling curves (a locality knob, never a correctness one).
PARTITION_SCHEMES = ("morton", "grid")


def _interleave_bits(cells: np.ndarray, bits: int) -> np.ndarray:
    """Morton key: interleave ``bits`` bits of every column of ``cells``."""
    n, d = cells.shape
    key = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        for j in range(d):
            key |= ((cells[:, j] >> b) & 1) << (b * d + j)
    return key


def assign_partitions(points: np.ndarray, partitions: int, scheme: str) -> np.ndarray:
    """Deterministic ``(n,)`` tile id per point (0..partitions-1).

    Points quantise to a uniform cell grid, cells order along the chosen
    curve, and the curve order packs into ``partitions`` equal-count
    contiguous tiles (ties inside a cell break by ascending global id).
    Every tile is non-empty whenever ``partitions <= n``.
    """
    if scheme not in PARTITION_SCHEMES:
        raise ValueError(
            f"scheme must be one of {PARTITION_SCHEMES}, got {scheme!r}"
        )
    n, d = points.shape
    if partitions <= 1:
        return np.zeros(n, dtype=np.int64)
    # Enough cells that tiles can follow the curve, few enough that the
    # interleaved key fits comfortably in an int64 for any dimensionality.
    bits = max(1, min(int(np.ceil(np.log2(partitions))) + 3, 62 // d, 16))
    cells_per_axis = 1 << bits
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    width = np.where(span > 0, span / cells_per_axis, 1.0)
    cell = np.clip(
        ((points - lo) / width).astype(np.int64), 0, cells_per_axis - 1
    )
    if scheme == "morton":
        key = _interleave_bits(cell, bits)
    else:  # row-major raveling of the cell grid
        key = np.zeros(n, dtype=np.int64)
        for j in range(d):
            key = key * cells_per_axis + cell[:, j]
    ids = np.arange(n)
    curve_order = np.lexsort((ids, key))
    assign = np.empty(n, dtype=np.int64)
    # Equal-count packing: curve position p lands in tile p*partitions//n.
    assign[curve_order] = (ids * partitions) // n
    return assign


class PartitionedIndex(DPCIndex):
    """An exact DPC index over ``partitions`` per-tile sub-indexes.

    Parameters
    ----------
    family:
        Registry name of the per-partition index family (any *exact*
        family: ``list``/``ch``/``kdtree``/``quadtree``/``rtree``/``grid``).
    partitions:
        Number of dataset tiles (clamped at fit time so every tile keeps at
        least two core points).
    halo:
        Initial halo width in metric units (same units as ``dc``; for
        ``sqeuclidean`` that means squared units).  ``None`` starts at 0
        and lets queries grow it on demand — results are independent of
        the resolved width, it only moves work between the local and the
        gather path.
    scheme:
        Tiling curve, ``"morton"`` (default) or ``"grid"``.
    family_params:
        Extra constructor keywords for the family (e.g. ``leaf_size``).
        Execution knobs are rejected here — the parent's backend is shared
        by every sub-index.
    """

    name = "partitioned"
    exact = True

    def __init__(
        self,
        metric: "str | Metric" = "euclidean",
        family: str = "rtree",
        partitions: int = 4,
        halo: Optional[float] = None,
        scheme: str = "morton",
        family_params: Optional[Dict[str, Any]] = None,
        backend: "str | Any" = "serial",
        n_jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ):
        super().__init__(
            metric=metric, backend=backend, n_jobs=n_jobs, chunk_size=chunk_size
        )
        from repro.indexes.registry import INDEX_CLASSES

        if family not in INDEX_CLASSES:
            raise ValueError(
                f"unknown family {family!r}; available: {tuple(sorted(INDEX_CLASSES))}"
            )
        if family == self.name:
            raise ValueError("partitioned indexes do not nest")
        if not INDEX_CLASSES[family].exact:
            raise ValueError(
                f"family {family!r} is approximate; partitioned execution "
                "requires an exact family (its truncated δ sentinels are "
                "ambiguous across tiles)"
            )
        if not self.metric.supports_rect_bounds:
            raise ValueError(
                f"metric {self.metric.name!r} has no exact rectangle bounds; "
                "halo membership needs rect_mindist"
            )
        if int(partitions) < 1:
            raise ValueError(f"partitions must be >= 1, got {partitions}")
        if halo is not None and float(halo) < 0:
            raise ValueError(f"halo must be >= 0, got {halo}")
        if scheme not in PARTITION_SCHEMES:
            raise ValueError(
                f"scheme must be one of {PARTITION_SCHEMES}, got {scheme!r}"
            )
        family_params = dict(family_params or {})
        for key in ("metric", "backend", "n_jobs", "chunk_size"):
            if key in family_params:
                raise ValueError(
                    f"family_params may not override {key!r}; it is inherited "
                    "from the partitioned index"
                )
        self.family = family
        self.partitions = int(partitions)
        self.halo = None if halo is None else float(halo)
        self.scheme = scheme
        self.family_params = family_params
        self.required_ndim = INDEX_CLASSES[family].required_ndim

        self.partitions_: Optional[int] = None
        self.halo_: Optional[float] = None
        self._assign: Optional[np.ndarray] = None
        self._cores: List[np.ndarray] = []
        self._bbox_lo: Optional[np.ndarray] = None
        self._bbox_hi: Optional[np.ndarray] = None
        self._members: List[np.ndarray] = []
        self._core_rows: List[np.ndarray] = []
        self._subs: List[DPCIndex] = []
        self._pstats: Dict[str, int] = {}

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        points = self.points
        # Clamp so every tile keeps at least two core points — some families
        # (e.g. list) refuse singleton fits, and a singleton tile carries no
        # locality anyway.
        self.partitions_ = max(1, min(self.partitions, len(points) // 2))
        self._assign = assign_partitions(points, self.partitions_, self.scheme)
        self._cores = [
            np.flatnonzero(self._assign == t) for t in range(self.partitions_)
        ]
        self._bbox_lo = np.stack([points[c].min(axis=0) for c in self._cores])
        self._bbox_hi = np.stack([points[c].max(axis=0) for c in self._cores])
        self.halo_ = float(self.halo) if self.halo is not None else 0.0
        self._pstats = {
            "halo_regrows": 0,
            "local_settled": 0,
            "gathered": 0,
            "gather_probes": 0,
            "partitions_pruned_density": 0,
            "partitions_pruned_distance": 0,
        }
        self._fit_subs()

    def _fit_subs(self) -> None:
        """(Re)fit one sub-index per tile for the current halo width."""
        points = self.points
        mindist_many, _ = rect_bounds_many(self.metric)
        members: List[np.ndarray] = []
        for t in range(self.partitions_):
            near = mindist_many(points, self._bbox_lo[t], self._bbox_hi[t])
            members.append(
                np.flatnonzero((self._assign == t) | (near <= self.halo_))
            )
        self._adopt_members(members)

    def _adopt_members(self, members: List[np.ndarray]) -> None:
        """Fit one sub-index per tile over the given member-id arrays."""
        from repro.indexes.registry import make_index

        for sub in self._subs:
            sub.release_execution()
        points = self.points
        backend = self._execution()
        core_rows: List[np.ndarray] = []
        subs: List[DPCIndex] = []
        for t, mem in enumerate(members):
            core_rows.append(np.flatnonzero(self._assign[mem] == t))
            sub = make_index(
                self.family,
                metric=self.metric,
                backend=backend,
                **self.family_params,
            )
            sub.fit(points[mem])
            subs.append(sub)
        self._members = list(members)
        self._core_rows = core_rows
        self._subs = subs

    def _restore_layout(
        self,
        points: np.ndarray,
        halo: float,
        assign: np.ndarray,
        members: List[np.ndarray],
    ) -> None:
        """Adopt a persisted per-partition layout (persist.py load path).

        The tile assignment, resolved halo width and per-tile member arrays
        come from the payload (integrity-checked there); the sub-indexes
        refit deterministically over their stored members, skipping the
        curve sort and the halo rect pass.
        """
        self._release_shards()
        self._fingerprint_ = None
        self._stats.reset()
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        self.partitions_ = len(members)
        self._assign = np.ascontiguousarray(assign, dtype=np.int64)
        self._cores = [
            np.flatnonzero(self._assign == t) for t in range(self.partitions_)
        ]
        self._bbox_lo = np.stack([self.points[c].min(axis=0) for c in self._cores])
        self._bbox_hi = np.stack([self.points[c].max(axis=0) for c in self._cores])
        self.halo_ = float(halo)
        self._pstats = {
            "halo_regrows": 0,
            "local_settled": 0,
            "gathered": 0,
            "gather_probes": 0,
            "partitions_pruned_density": 0,
            "partitions_pruned_distance": 0,
        }
        self._adopt_members([np.asarray(m, dtype=np.int64) for m in members])

    def _ensure_halo(self, needed: float) -> None:
        """Grow the halo (and refit the tiles) when a query's dc demands."""
        if needed > self.halo_:
            self.halo_ = float(needed)
            self._pstats["halo_regrows"] += 1
            if obs_runtime._ENABLED:
                obs_metrics.counter(
                    "repro_partition_halo_regrows_total",
                    "Halo strips regrown (tiles refitted) because a query dc outgrew them",
                ).inc()
            self._fit_subs()

    # -- lifecycle plumbing --------------------------------------------------

    def _release_shards(self) -> None:
        # Cascade: each sub-index owns its own per-tile ShmPack.  The shared
        # ExecutionBackend instance is not theirs, so release never tears
        # down the parent's pool.  (Also called from fit() before _subs
        # exists, hence the getattr.)
        for sub in getattr(self, "_subs", ()):
            sub.release_execution()
        super()._release_shards()

    def _drain_substats(self) -> None:
        """Fold sub-index probe counters into the parent's and reset them."""
        for sub in self._subs:
            stats = sub.stats()
            for f in dataclass_fields(IndexStats):
                setattr(
                    self._stats,
                    f.name,
                    getattr(self._stats, f.name) + getattr(stats, f.name),
                )
            sub.reset_stats()

    # -- ρ: local counts + halo exchange -------------------------------------

    def _rho_all(self, dc: float) -> np.ndarray:
        return self.rho_all_multi([dc])[0]

    def rho_all_multi(self, dcs) -> np.ndarray:
        points = self._require_fitted()
        dcs = self._validate_dcs(dcs)
        self._ensure_halo(float(dcs.max()))
        out = np.empty((len(dcs), len(points)), dtype=np.int64)
        for t, sub in enumerate(self._subs):
            local = sub.rho_all_multi(dcs)
            out[:, self._cores[t]] = local[:, self._core_rows[t]]
        self._drain_substats()
        return out

    # -- δ: local settle + maxrho scatter/gather ------------------------------

    def delta_all(self, order: DensityOrder) -> Tuple[np.ndarray, np.ndarray]:
        self._require_fitted()
        return self.delta_all_multi([order])[0]

    def delta_all_multi(self, orders) -> "list[Tuple[np.ndarray, np.ndarray]]":
        points = self._require_fitted()
        orders = list(orders)

        def run_engine(qid, qord, rho_rows, key_rows):
            return self._partitioned_delta_engine(
                orders, qid, qord, key_rows
            )

        return delta_multi_from_orders(
            points, orders, run_engine, self.metric, self._stats
        )

    def _partitioned_delta_engine(self, orders, qid, qord, key_rows):
        """(δ, μ) for the flattened non-peak queries of every order."""
        points = self.points
        n = len(points)
        n_orders = len(orders)
        # Local pass: every tile answers every order over its members.  The
        # gid-ascending member layout makes the sub-index's id tie-breaks
        # equal to the global ones restricted to the tile.
        loc_delta = np.empty((n_orders, n), dtype=np.float64)
        loc_mu = np.full((n_orders, n), NO_NEIGHBOR, dtype=np.int64)
        with obs_trace.span("partition.local", tiles=len(self._subs)):
            for t, sub in enumerate(self._subs):
                mem = self._members[t]
                rows = self._core_rows[t]
                local_orders = [
                    DensityOrder(order.rho[mem], order.tie_break) for order in orders
                ]
                for o, (d_l, m_l) in enumerate(sub.delta_all_multi(local_orders)):
                    loc_delta[o, self._cores[t]] = d_l[rows]
                    m_core = m_l[rows]
                    has = m_core != NO_NEIGHBOR
                    loc_mu[o, self._cores[t]] = np.where(
                        has, mem[np.where(has, m_core, 0)], NO_NEIGHBOR
                    )
            self._drain_substats()

        halo = self.halo_
        delta_q = np.empty(len(qid), dtype=np.float64)
        mu_q = np.empty(len(qid), dtype=np.int64)
        settled_total = 0
        with obs_trace.span("partition.gather", orders=n_orders) as gather_span:
            for o in range(n_orders):
                sel = np.flatnonzero(qord == o)
                ids = qid[sel]
                d_loc = loc_delta[o, ids]
                m_loc = loc_mu[o, ids]
                # Settled iff the local candidate exists and every global point
                # within δ_loc is provably a member (rect_mindist ≤ d ≤ halo).
                settled = (m_loc != NO_NEIGHBOR) & (d_loc <= halo)
                settled_total += int(settled.sum())
                self._pstats["local_settled"] += int(settled.sum())
                out_d = np.where(settled, d_loc, np.inf)
                out_mu = np.where(settled, m_loc, n)
                open_rows = np.flatnonzero(~settled)
                if len(open_rows):
                    g_d, g_mu = self._gather(ids[open_rows], key_rows[o])
                    out_d[open_rows] = g_d
                    out_mu[open_rows] = g_mu
                if not np.isfinite(out_d).all():  # pragma: no cover - invariant
                    raise RuntimeError(
                        "partitioned gather left a non-peak query unresolved"
                    )
                delta_q[sel] = out_d
                mu_q[sel] = out_mu
            gather_span.set("settled", settled_total)
            gather_span.set("gathered", len(qid) - settled_total)
        if obs_runtime._ENABLED:
            split = obs_metrics.counter(
                "repro_partition_delta_queries_total",
                "Non-peak delta queries by resolution path (settled in-tile vs gathered)",
                ("path",),
            )
            if settled_total:
                split.labels("settled").inc(settled_total)
            if len(qid) - settled_total:
                split.labels("gathered").inc(len(qid) - settled_total)
        return delta_q, mu_q

    def _gather(self, ids: np.ndarray, key: np.ndarray):
        """Exact cross-tile nearest-denser search for the unsettled queries.

        Partition-level Lemma 1: a tile whose minimum density-order key is
        not below the query's cannot hold a denser object (for ``TieBreak.ID``
        this is the tie-aware refinement of "maxrho exceeds ρ(p)"; for
        STRICT it is exactly ``maxrho > ρ(p)``).  Partition-level Lemma 2:
        a tile whose core box lies *strictly* beyond the running best
        distance cannot improve it (equality is kept — a tie there may win
        on a smaller id).
        """
        points = self.points
        n = len(points)
        self._pstats["gathered"] += len(ids)
        record = obs_runtime._ENABLED
        q_points = points[ids]
        q_key = key[ids]
        best_d = np.full(len(ids), np.inf)
        best_mu = np.full(len(ids), n, dtype=np.int64)
        mindist_many, _ = rect_bounds_many(self.metric)
        for t in range(self.partitions_):
            cores = self._cores[t]
            min_key = key[cores].min()
            denser_possible = min_key < q_key
            pruned_density = int((~denser_possible).sum())
            self._pstats["partitions_pruned_density"] += pruned_density
            near = mindist_many(q_points, self._bbox_lo[t], self._bbox_hi[t])
            in_range = near <= best_d
            pruned_distance = int((denser_possible & ~in_range).sum())
            self._pstats["partitions_pruned_distance"] += pruned_distance
            if record:
                pruned = obs_metrics.counter(
                    "repro_partition_pruned_total",
                    "Tile probes skipped by the partition-level lemmas",
                    ("lemma",),
                )
                if pruned_density:
                    pruned.labels("density").inc(pruned_density)
                if pruned_distance:
                    pruned.labels("distance").inc(pruned_distance)
            active = np.flatnonzero(denser_possible & in_range)
            if not len(active):
                continue
            self._pstats["gather_probes"] += 1
            if record:
                obs_metrics.counter(
                    "repro_partition_gather_probes_total",
                    "Cross-tile gather probes actually executed",
                ).inc()
            denser = key[cores][None, :] < q_key[active][:, None]
            d_t, mu_t = gather_min_denser(
                q_points[active],
                points[cores],
                cores,
                denser,
                self.metric,
                self._stats,
                no_candidate_id=n,
            )
            best_d[active], best_mu[active] = merge_delta_candidates(
                best_d[active], best_mu[active], d_t, mu_t
            )
        return best_d, best_mu

    def snapshot_copy(self) -> "DPCIndex":
        clone = super().snapshot_copy()
        # Sub-indexes are shared arrays + per-instance stats/shard state;
        # give the clone its own instances so the original's stat drains and
        # halo regrows never touch what the clone is serving from.
        clone._subs = [sub.snapshot_copy() for sub in self._subs]
        clone._pstats = dict(self._pstats)
        return clone

    # -- bookkeeping ---------------------------------------------------------

    def memory_bytes(self) -> int:
        self._require_fitted()
        layout = self._assign.nbytes + self._bbox_lo.nbytes + self._bbox_hi.nbytes
        layout += sum(m.nbytes for m in self._members)
        layout += sum(r.nbytes for r in self._core_rows)
        layout += sum(c.nbytes for c in self._cores)
        return layout + sum(sub.memory_bytes() for sub in self._subs)

    def partition_stats(self) -> Dict[str, Any]:
        """Partition-level observability: layout + exchange counters."""
        self._require_fitted()
        halo_points = sum(
            len(m) - len(c) for m, c in zip(self._members, self._cores)
        )
        return {
            "partitions": self.partitions_,
            "halo": self.halo_,
            "scheme": self.scheme,
            "family": self.family,
            "core_sizes": [len(c) for c in self._cores],
            "member_sizes": [len(m) for m in self._members],
            "halo_points": halo_points,
            **self._pstats,
        }

    def describe(self) -> Dict[str, Any]:
        info = super().describe()
        info["family"] = self.family
        info["partitions"] = self.partitions_
        info["halo"] = self.halo_
        return info
