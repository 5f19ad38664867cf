"""Approximate list-based indexes — the RN-List of paper Section 3.3.

For memory-constrained systems the paper truncates every N-List at a
*neighbour threshold* τ: only neighbours with ``dist < τ`` are stored (the
Reduced Neighbor List).  Consequences, all reproduced here:

* ρ is **exact** whenever ``dc ≤ τ``; for ``dc > τ`` no search is performed
  and the (undercounted) list length is returned — the paper's "running time
  drops at the expense of loss of accuracy";
* δ is exact for objects whose denser neighbour lies within τ (the vast
  majority: non-peaks have small δ); objects whose RN-List contains no denser
  neighbour get δ set to a large value so they still surface in the decision
  graph as centre/outlier candidates;
* memory shrinks from Θ(n²) to Θ(n·k_τ), the paper's Figure 9b.

A row that happens to contain *all* ``n-1`` neighbours is provably complete,
so its peak δ uses the exact ``max_q dist`` convention — which makes a
τ ≥ diameter RN-List bit-identical to the exact List Index (tested).

:class:`RNCHIndex` layers cumulative histograms over the truncated lists,
i.e. the approximate variant of the CH Index (the paper applies the
approximation "to the above indices", plural).

Both the ρ search and the δ scan run through the batched CSR kernels in
:mod:`repro.indexes.kernels`; ``rho_all_multi`` answers a whole ``dc`` grid
in one call and ``quantities_multi`` shares the pre-gathered first scan
block across the grid.
"""

from __future__ import annotations

from typing import ClassVar, Optional, Tuple

import numpy as np

from repro.core.quantities import NO_NEIGHBOR, DensityOrder, DPCQuantities, TieBreak
from repro.geometry.distance import Metric
from repro.indexes import parallel
from repro.indexes.base import DPCIndex
from repro.indexes.ch_index import CumulativeHistogramMixin
from repro.indexes.list_index import sharded_delta_scan, sweep_quantities

__all__ = ["RNListIndex", "RNCHIndex"]


class RNListIndex(DPCIndex):
    """Truncated (approximate) List Index with neighbour threshold τ.

    Parameters
    ----------
    tau:
        Truncation radius.  The paper's guidance: "usually τ should be set to
        a large value greater than any possible value of dc to be tested".
    metric, build_block_rows, scan_block:
        As in :class:`~repro.indexes.list_index.ListIndex`.
    """

    name: ClassVar[str] = "rn-list"
    exact: ClassVar[bool] = False

    def __init__(
        self,
        tau: float,
        metric: "str | Metric" = "euclidean",
        build_block_rows: int = 512,
        scan_block: int = 32,
        backend: "str" = "serial",
        n_jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ):
        super().__init__(metric, backend=backend, n_jobs=n_jobs, chunk_size=chunk_size)
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        if build_block_rows <= 0:
            raise ValueError(f"build_block_rows must be positive, got {build_block_rows}")
        if scan_block <= 0:
            raise ValueError(f"scan_block must be positive, got {scan_block}")
        self.tau = float(tau)
        self.build_block_rows = build_block_rows
        self.scan_block = scan_block
        # CSR layout: row p occupies [offsets[p], offsets[p+1]) in ids/dists.
        self._offsets: Optional[np.ndarray] = None
        self._ids: Optional[np.ndarray] = None
        self._dists: Optional[np.ndarray] = None
        self._big_delta: float = float("inf")

    # -- construction ------------------------------------------------------------

    def _build(self) -> None:
        points = self.points
        n = len(points)
        if n < 2:
            raise ValueError(f"{type(self).__name__} needs at least 2 points")
        all_ids = np.arange(n, dtype=np.int32)
        row_ids: list = []
        row_dists: list = []
        lengths = np.empty(n, dtype=np.int64)
        max_seen = 0.0
        for start in range(0, n, self.build_block_rows):
            stop = min(start + self.build_block_rows, n)
            block = self.metric.cross(points[start:stop], points)
            max_seen = max(max_seen, float(block.max()))
            for i, p in enumerate(range(start, stop)):
                row = block[i]
                keep = (row < self.tau) & (all_ids != p)
                neigh = all_ids[keep]
                d = row[keep]
                sorting = np.argsort(d, kind="stable")
                row_ids.append(neigh[sorting])
                row_dists.append(d[sorting])
                lengths[p] = len(neigh)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        self._offsets = offsets
        self._ids = (
            np.concatenate(row_ids) if offsets[-1] else np.empty(0, dtype=np.int32)
        )
        self._dists = (
            np.concatenate(row_dists) if offsets[-1] else np.empty(0, dtype=np.float64)
        )
        # "A large value" for truncated peaks: anything ≥ the data diameter
        # keeps them at the top of the decision graph.
        self._big_delta = max(max_seen, self.tau)

    def row_lengths(self) -> np.ndarray:
        self._require_fitted()
        return np.diff(self._offsets)

    # -- sharded-execution image (repro.indexes.parallel) -------------------------

    def _shard_arrays(self):
        return {"ids": self._ids, "dists": self._dists, "offsets": self._offsets}

    def _shard_meta(self):
        return {"n": self.n}

    # -- ρ query -------------------------------------------------------------------

    def _rho_all(self, dc: float) -> np.ndarray:
        if dc > self.tau:
            # Paper 5.3.1: beyond τ no search happens; the truncated length is
            # the (approximate) answer.
            return np.diff(self._offsets)
        return self._csr_rho(float(dc))

    def _csr_rho(self, needles):
        payloads = [
            {"start": start, "stop": stop, "needles": needles}
            for start, stop in self._execution().plan(self.n)
        ]
        outs = self._dispatch(parallel.csr_rho_task, payloads)
        return np.concatenate([o["rho"] for o in outs]).astype(np.int64, copy=False)

    def rho_all_multi(self, dcs) -> np.ndarray:
        """One sharded batched binary search for every ``dc ≤ τ`` of the grid."""
        self._require_fitted()
        dcs = self._validate_dcs(dcs)
        rho = np.empty((len(dcs), self.n), dtype=np.int64)
        beyond = dcs > self.tau
        if beyond.any():
            rho[beyond] = np.diff(self._offsets)[None, :]
        within = np.flatnonzero(~beyond)
        if len(within):
            pos = self._csr_rho([float(dc) for dc in dcs[within]])
            rho[within] = pos.T
        return rho

    # -- δ query ---------------------------------------------------------------------

    def delta_all(self, order: DensityOrder) -> Tuple[np.ndarray, np.ndarray]:
        self._require_fitted()
        if len(order) != self.n:
            raise ValueError(f"order has {len(order)} objects, index has {self.n}")
        return self._delta_sweep([order], prefetch_width=0)[0]

    def _delta_sweep(self, orders, prefetch_width: int = 0):
        """Sharded near-to-far scans over the stored τ-neighbourhoods."""
        return sharded_delta_scan(self, orders, prefetch_width)

    def _finish_unresolved(self, delta: np.ndarray, mu: np.ndarray) -> None:
        # No denser neighbour within τ.  Two cases:
        n = self.n
        offsets, dists = self._offsets, self._dists
        lengths = np.diff(offsets)
        for p in np.flatnonzero(mu == NO_NEIGHBOR):
            if lengths[p] == n - 1:
                # Complete row ⇒ p is a true peak; exact convention applies.
                delta[p] = dists[offsets[p + 1] - 1]
            else:
                delta[p] = self._big_delta

    # -- multi-dc sweep ----------------------------------------------------------------

    def _quantities_multi_impl(
        self, dcs, tie_break: "str | TieBreak"
    ) -> "list[DPCQuantities]":
        return sweep_quantities(self, dcs, tie_break)

    # -- bookkeeping --------------------------------------------------------------------

    def memory_bytes(self) -> int:
        if self._offsets is None:
            return 0
        return int(self._offsets.nbytes + self._ids.nbytes + self._dists.nbytes)


class RNCHIndex(CumulativeHistogramMixin, RNListIndex):
    """Approximate CH Index: cumulative histograms over truncated RN-Lists.

    ρ queries use the O(1) bin lookup of Algorithm 4 restricted to the stored
    τ-neighbourhood; δ queries are inherited from :class:`RNListIndex`.
    As in :class:`~repro.indexes.ch_index.CHIndex`, ``bin_width`` is the
    configured value (``None`` = auto) and ``bin_width_`` the one resolved at
    fit time, so refits never reuse a stale width.
    """

    name: ClassVar[str] = "rn-ch"
    exact: ClassVar[bool] = False

    def __init__(
        self,
        tau: float,
        metric: "str | Metric" = "euclidean",
        bin_width: Optional[float] = None,
        default_bins: int = 64,
        build_block_rows: int = 512,
        scan_block: int = 32,
        backend: "str" = "serial",
        n_jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ):
        super().__init__(
            tau,
            metric,
            build_block_rows,
            scan_block,
            backend=backend,
            n_jobs=n_jobs,
            chunk_size=chunk_size,
        )
        self._init_bin_width(bin_width, default_bins)
        self._hist_offsets: Optional[np.ndarray] = None
        self._hist_values: Optional[np.ndarray] = None

    def _build(self) -> None:
        super()._build()
        if self.bin_width is None:
            self.bin_width_ = self.tau / self.default_bins
        else:
            self.bin_width_ = float(self.bin_width)
        # Bins must cover every stored neighbour, i.e. up to τ.
        n_bins = np.full(self.n, int(np.floor(self.tau / self.bin_width_)) + 1, dtype=np.int64)
        self._store_histograms(self._dists, self._offsets, n_bins)

    def _shard_arrays(self):
        arrays = super()._shard_arrays()
        arrays["hist_offsets"] = self._hist_offsets
        arrays["hist_values"] = self._hist_values
        return arrays

    def _rho_all(self, dc: float) -> np.ndarray:
        if dc > self.tau:
            return super()._rho_all(dc)
        return self._ch_rho_wave([float(dc)])[0]

    def rho_all_multi(self, dcs) -> np.ndarray:
        """Histogram-guided ρ for every ``dc ≤ τ`` in one ``(dc, chunk)``
        wave; cut-offs beyond τ take the no-search truncated-length answer."""
        self._require_fitted()
        dcs = self._validate_dcs(dcs)
        rho = np.empty((len(dcs), self.n), dtype=np.int64)
        beyond = dcs > self.tau
        if beyond.any():
            rho[beyond] = np.diff(self._offsets)[None, :]
        within = np.flatnonzero(~beyond)
        if len(within):
            rows = self._ch_rho_wave([float(dcs[i]) for i in within])
            for i, row in zip(within, rows):
                rho[i] = row
        return rho

    def histogram_memory_bytes(self) -> int:
        if self._hist_values is None:
            return 0
        return int(self._hist_values.nbytes + self._hist_offsets.nbytes)

    def memory_bytes(self) -> int:
        return super().memory_bytes() + self.histogram_memory_bytes()
