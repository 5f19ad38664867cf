"""Uniform grid index for DPC (extension; cf. the grid-based related work).

The related-work section of the paper cites grid-based accelerations of DPC
(Wu et al. [22], Xu et al. [24]) that *approximate* densities at grid
granularity.  This index keeps the grid idea but stays **exact**: cells are
just containers over which the same contained / discarded / intersected
classification of Observation 1 runs, and the δ query expands outward ring
by ring with the density pruning of Lemma 1 and the distance pruning of
Lemma 2 applied per cell.  The default ``delta_mode="batched"`` runs the δ
expansion through :func:`repro.indexes.kernels.grid_delta_batched`: all
still-unresolved queries advance one ring outward per Python step, each
ring's candidate cells expanding into one flat ``(query, cell)`` pair array
that is pruned and resolved in single vectorised passes;
``delta_mode="scalar"`` keeps the per-object reference expansion the
batched path is property-tested against.

The ρ query is evaluated cell-batched: query points are grouped by home
cell and every candidate cell is classified for the whole group with the
batched rectangle bounds of :func:`repro.geometry.distance.rect_bounds_many`
— per-point classifications (and therefore results *and* probe counters)
are identical to the scalar formulation, but the Python-level loop shrinks
from ``n`` objects to ``n / occupancy`` occupied cells.

The grid is a flat (non-hierarchical) structure, so it shines when ``dc`` is
small relative to the data extent and degrades towards a full scan for huge
``dc`` — a trade-off the ablation benchmarks make visible.
2-D only, matching the paper's spatial datasets.

``cell_size`` keeps the configured value (``None`` = auto) and the per-fit
resolved edge length lives in ``cell_size_``, so refitting on a different
dataset re-resolves the automatic sizing.
"""

from __future__ import annotations

from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.quantities import NO_NEIGHBOR, DensityOrder
from repro.geometry.distance import Metric
from repro.indexes import parallel
from repro.indexes.base import DPCIndex
from repro.indexes.kernels import delta_multi_from_orders, peak_delta_sweep

__all__ = ["GridIndex"]


class GridIndex(DPCIndex):
    """Exact uniform-grid DPC index (2-D).

    Parameters
    ----------
    cell_size:
        Edge length of the square cells; ``None`` picks the size that puts
        ``target_occupancy`` objects in the average occupied cell.  The
        resolved per-fit value is ``cell_size_``.
    target_occupancy:
        Mean objects per cell for the automatic sizing.
    delta_mode:
        ``"batched"`` (default) — cell-batched expanding-ring δ via
        :func:`repro.indexes.kernels.grid_delta_batched`; ``"scalar"`` —
        the per-object reference expansion.  Both produce bit-identical
        (δ, μ).
    """

    name: ClassVar[str] = "grid"
    required_ndim: ClassVar[Optional[int]] = 2

    def __init__(
        self,
        metric: "str | Metric" = "euclidean",
        cell_size: Optional[float] = None,
        target_occupancy: int = 16,
        delta_mode: str = "batched",
        backend: "str" = "serial",
        n_jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ):
        super().__init__(metric, backend=backend, n_jobs=n_jobs, chunk_size=chunk_size)
        if not self.metric.supports_rect_bounds:
            raise ValueError(
                f"metric {self.metric.name!r} has no exact rectangle bounds"
            )
        if cell_size is not None and cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        if target_occupancy < 1:
            raise ValueError(f"target_occupancy must be >= 1, got {target_occupancy}")
        if delta_mode not in ("batched", "scalar"):
            raise ValueError(
                f"delta_mode must be 'batched' or 'scalar', got {delta_mode!r}"
            )
        self.cell_size = cell_size
        self.target_occupancy = target_occupancy
        self.delta_mode = delta_mode
        self.cell_size_: Optional[float] = None  # resolved per fit
        self._lo: Optional[np.ndarray] = None
        self._shape: Tuple[int, int] = (0, 0)
        self._offsets: Optional[np.ndarray] = None  # (ncells+1,) CSR into _ids
        self._ids: Optional[np.ndarray] = None
        self._cell_of: Optional[np.ndarray] = None  # flat cell id per object
        self._cell_maxrho: Optional[np.ndarray] = None

    # -- construction -----------------------------------------------------------

    def _build(self) -> None:
        points = self.points
        n = len(points)
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        extent = np.maximum(hi - lo, 1e-300)
        if self.cell_size is None:
            # Aim for target_occupancy points per cell on average:
            # ncells ≈ n / occupancy  ⇒  w ≈ sqrt(area · occupancy / n).
            # Degenerate (collinear / near-collinear) data makes the area
            # formula collapse to ~0 and the cell grid explode, so floor the
            # width at the 1-D rule — n/occupancy cells along the longest
            # axis.
            area = float(extent[0] * extent[1])
            span = float(extent.max())
            w_2d = float(np.sqrt(area * self.target_occupancy / n))
            w_1d = span * self.target_occupancy / n
            self.cell_size_ = max(w_2d, w_1d)
            if not np.isfinite(self.cell_size_) or self.cell_size_ <= 0.0:
                self.cell_size_ = 1.0
        else:
            self.cell_size_ = float(self.cell_size)
        w = float(self.cell_size_)
        nx = max(1, int(np.floor(extent[0] / w)) + 1)
        ny = max(1, int(np.floor(extent[1] / w)) + 1)
        cx = np.minimum((points[:, 0] - lo[0]) // w, nx - 1).astype(np.int64)
        cy = np.minimum((points[:, 1] - lo[1]) // w, ny - 1).astype(np.int64)
        flat = cx * ny + cy
        order = np.argsort(flat, kind="stable")
        counts = np.bincount(flat, minlength=nx * ny)
        offsets = np.zeros(nx * ny + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self._lo = lo
        self._shape = (nx, ny)
        self._offsets = offsets
        self._ids = np.arange(n, dtype=np.int64)[order]
        self._cell_of = flat

    def occupied_cells(self) -> int:
        self._require_fitted()
        return int((np.diff(self._offsets) > 0).sum())

    def _cell_box(self, ix: int, iy: int) -> Tuple[np.ndarray, np.ndarray]:
        w = self.cell_size_
        lo = self._lo + np.array([ix * w, iy * w])
        return lo, lo + w

    # -- sharded-execution image (repro.indexes.parallel) ----------------------------

    def _shard_arrays(self):
        return {
            "points": self.points,
            "offsets": self._offsets,
            "ids": self._ids,
            "cell_of": self._cell_of,
            "grid_lo": self._lo,
        }

    def _shard_meta(self):
        return {"shape": self._shape, "w": float(self.cell_size_)}

    # -- ρ query -------------------------------------------------------------------

    def _rho_all(self, dc: float) -> np.ndarray:
        # Cell-batched Observation-1 classification, moved to
        # :func:`repro.indexes.kernels.grid_rho_batched` and sharded over
        # query chunks by the execution backend (bit-identical across
        # backends — each query's candidate cells and classification
        # sequence depend only on the query itself).
        return self._sharded_rho(parallel.grid_rho_task, [float(dc)])[0]

    def rho_all_multi(self, dcs) -> np.ndarray:
        """ρ for a whole cut-off grid as one sharded ``(dc, chunk)`` wave."""
        self._require_fitted()
        dcs = self._validate_dcs(dcs)
        return np.stack(self._sharded_rho(parallel.grid_rho_task, dcs))

    def _sharded_rho(self, task, dcs) -> "list[np.ndarray]":
        """Cell-locality override of the generic ``(dc, chunk)`` sharding.

        Chunks slice the *cell-sorted* id array (``self._ids``) rather than
        raw id ranges, so each shard walks only its own contiguous run of
        home cells — an id-range shard would re-sweep every occupied cell
        per task.  Any partition of the queries is bit-identical; this one
        is just the cache- and loop-friendly partition.  Counts scatter
        back into object-id order here.
        """
        chunks = self._execution().plan(self.n)
        payloads = [
            {"dc": float(dc), "start": start, "stop": stop}
            for dc in dcs
            for start, stop in chunks
        ]
        outs = self._dispatch(task, payloads)
        per_dc = len(chunks)
        rows = []
        for i in range(len(dcs)):
            rho = np.empty(self.n, dtype=np.int64)
            for j, (start, stop) in enumerate(chunks):
                rho[self._ids[start:stop]] = outs[i * per_dc + j]["rho"]
            rows.append(rho)
        return rows

    # -- δ query --------------------------------------------------------------------

    def _annotate_cell_maxrho(self, rho_rows: np.ndarray) -> np.ndarray:
        """Per-cell density bounds for every order, one ``reduceat`` pass.

        ``rho_rows`` is ``(n_orders, n)``; returns ``(n_orders, ncells)``.
        The grid analogue of the trees' maxrho annotation, reduced over the
        cell-sorted CSR layout: gathering densities in ``self._ids`` order
        makes every occupied cell a contiguous run, so one
        ``np.maximum.reduceat`` per call annotates every order of a sweep at
        once (empty cells keep ``-inf``) — the same bottom-up reduction shape
        the trees use, replacing the per-order Python ``zip`` scatter loop.
        """
        rho_rows = np.asarray(rho_rows, dtype=np.float64)
        nx, ny = self._shape
        maxrho = np.full((len(rho_rows), nx * ny), -np.inf, dtype=np.float64)
        occupied = np.flatnonzero(np.diff(self._offsets) > 0)
        if len(occupied):
            vals = rho_rows[:, self._ids]
            maxrho[:, occupied] = np.maximum.reduceat(
                vals, self._offsets[occupied], axis=1
            )
        return maxrho

    def delta_all(self, order: DensityOrder) -> Tuple[np.ndarray, np.ndarray]:
        if self.delta_mode == "batched":
            return self.delta_all_multi([order])[0]
        points = self._require_fitted()
        n = len(points)
        if len(order) != n:
            raise ValueError(f"order has {len(order)} objects, index has {n}")
        self._cell_maxrho = self._annotate_cell_maxrho(
            np.asarray(order.rho)[None, :]
        )[0]
        delta = np.empty(n, dtype=np.float64)
        mu = np.full(n, NO_NEIGHBOR, dtype=np.int64)
        # δ of the densest object(s): one blocked cross over all peak rows.
        peaks = order.global_peaks()
        delta[peaks] = peak_delta_sweep(points, peaks, self.metric, self._stats)
        is_peak = np.zeros(n, dtype=bool)
        is_peak[peaks] = True
        for p in np.flatnonzero(~is_peak):
            delta[p], mu[p] = self._delta_one(int(p), order)
        return delta, mu

    def delta_all_multi(
        self, orders: "Sequence[DensityOrder]"
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """δ/μ for several density orders over the one built grid.

        With the default batched mode, the whole sweep shares one cell-maxrho
        annotation per order and one home-cell-grouped ring schedule —
        element ``i`` is bit-identical to ``delta_all(orders[i])``.
        """
        points = self._require_fitted()
        n = len(points)
        orders = list(orders)
        for order in orders:
            if len(order) != n:
                raise ValueError(f"order has {len(order)} objects, index has {n}")
        if self.delta_mode != "batched":
            return [self.delta_all(order) for order in orders]
        if not orders:
            return []

        def run_engine(qid, qord, rho_rows, key_rows):
            # Annotate every order in one pass; traverse per (order, chunk)
            # task — the single-order gather paths beat one interleaved
            # union run, and the chunks are what the execution backend
            # shards over workers.
            cell_maxrho = self._annotate_cell_maxrho(rho_rows)
            self._cell_maxrho = cell_maxrho[-1]
            return self._sharded_delta_engine(
                parallel.grid_delta_task,
                qid,
                qord,
                len(rho_rows),
                {
                    "qid": qid,
                    "rho_rows": rho_rows,
                    "key_rows": key_rows,
                    "cell_maxrho": cell_maxrho,
                },
            )

        return delta_multi_from_orders(
            points, orders, run_engine, self.metric, self._stats
        )

    def _delta_one(self, p: int, order: DensityOrder) -> Tuple[float, int]:
        q = self.points[p]
        w = self.cell_size_
        nx, ny = self._shape
        mindist = self.metric.rect_mindist
        dist_from = self.metric.distances_from
        stats = self._stats
        rho_p = order.rho[p]
        maxrho = self._cell_maxrho
        offsets = self._offsets
        home = self._cell_of[p]
        hx, hy = divmod(int(home), ny)
        best_d, best_id = np.inf, -1
        max_ring = max(nx, ny)

        def visit(ix: int, iy: int) -> None:
            nonlocal best_d, best_id
            flat = ix * ny + iy
            start, stop = offsets[flat], offsets[flat + 1]
            if start == stop:
                return
            if maxrho[flat] < rho_p:
                stats.nodes_pruned_density += 1
                return
            clo, chi = self._cell_box(ix, iy)
            if mindist(q, clo, chi) > best_d:
                stats.nodes_pruned_distance += 1
                return
            stats.nodes_visited += 1
            ids = self._ids[start:stop]
            denser = order.denser_mask(p, ids)
            stats.objects_scanned += len(ids)
            if not denser.any():
                return
            cand = ids[denser]
            d = dist_from(self.points[cand], q)
            stats.distance_evals += len(cand)
            k = np.lexsort((cand, d))[0]
            dk, ck = float(d[k]), int(cand[k])
            if dk < best_d or (dk == best_d and ck < best_id):
                best_d, best_id = dk, ck

        cr = getattr(self.metric, "coord_radius", None)
        for r in range(0, max_ring + 1):
            # Any cell in ring r is at least (r-1)·w away from q (q lies
            # inside its home cell); once that bound exceeds the candidate's
            # coordinate radius, no farther ring can improve it (Lemma 2 at
            # ring granularity, in coordinate units).
            if best_d < np.inf and (r - 1) * w > (
                best_d if cr is None else cr(best_d)
            ):
                break
            x0, x1 = hx - r, hx + r
            y0, y1 = hy - r, hy + r
            if r == 0:
                visit(hx, hy)
                continue
            any_in_range = False
            for ix in range(max(0, x0), min(nx - 1, x1) + 1):
                for iy in (y0, y1):
                    if 0 <= iy < ny:
                        any_in_range = True
                        visit(ix, iy)
            for iy in range(max(0, y0 + 1), min(ny - 1, y1 - 1) + 1):
                for ix in (x0, x1):
                    if 0 <= ix < nx:
                        any_in_range = True
                        visit(ix, iy)
            if not any_in_range and (x0 < 0 and x1 >= nx and y0 < 0 and y1 >= ny):
                break  # ring is entirely outside the grid
        return best_d, best_id

    # -- bookkeeping ------------------------------------------------------------------

    def memory_bytes(self) -> int:
        if self._offsets is None:
            return 0
        total = self._offsets.nbytes + self._ids.nbytes + self._cell_of.nbytes
        if self._cell_maxrho is not None:
            total += self._cell_maxrho.nbytes
        return int(total)
