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

The RN-List is the N-List truncated at τ, so it shares the CSR rows and
every query of :class:`~repro.indexes.list_index.NListIndex` and differs
only in its build and its append (a refit).  :class:`RNCHIndex` layers
cumulative histograms over the truncated lists, i.e. the approximate
variant of the CH Index (the paper applies the approximation "to the above
indices", plural).
"""

from __future__ import annotations

from typing import ClassVar, Optional

import numpy as np

from repro.geometry.distance import Metric
from repro.indexes.ch_index import CumulativeHistogramMixin
from repro.indexes.list_index import NListIndex

__all__ = ["RNListIndex", "RNCHIndex"]


class RNListIndex(NListIndex):
    """Truncated (approximate) List Index with neighbour threshold τ.

    Parameters
    ----------
    tau:
        Truncation radius.  The paper's guidance: "usually τ should be set to
        a large value greater than any possible value of dc to be tested".
    metric, build_block_rows, scan_block, backend, n_jobs, chunk_size:
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
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        super().__init__(
            metric,
            build_block_rows,
            scan_block,
            backend=backend,
            n_jobs=n_jobs,
            chunk_size=chunk_size,
        )
        self.tau = float(tau)

    @property
    def _reach(self) -> float:
        return self.tau

    # -- construction ------------------------------------------------------------

    def _build(self) -> None:
        row_ids: list = []
        row_dists: list = []
        lengths = np.empty(len(self.points), dtype=np.int64)
        # "A large value" for truncated peaks: anything ≥ the data diameter
        # keeps them at the top of the decision graph.
        big_delta = self.tau
        for first, ids, dists, pass_lengths, far in self._sorted_rows():
            big_delta = max(big_delta, far)
            valid = np.arange(ids.shape[1]) < pass_lengths[:, None]
            row_ids.append(ids[valid])
            row_dists.append(dists[valid])
            lengths[first : first + len(pass_lengths)] = pass_lengths
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        self._offsets = offsets
        self._ids = np.concatenate(row_ids, dtype=np.int32)
        self._dists = np.concatenate(row_dists)
        self._big_delta = big_delta


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
        self._init_histograms(bin_width, default_bins)

    def _histogram_bins(self) -> np.ndarray:
        # The automatic width splits τ; the bins of every row cover every
        # stored neighbour, i.e. up to τ.
        if self.bin_width is None:
            self.bin_width_ = self.tau / self.default_bins
        else:
            self.bin_width_ = float(self.bin_width)
        return np.full(self.n, int(np.floor(self.tau / self.bin_width_)) + 1, dtype=np.int64)
