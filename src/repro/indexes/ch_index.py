"""Cumulative Histogram (CH) Index — paper Section 3.2, Algorithms 3–4.

The CH Index augments every N-List with a *cumulative histogram*: bin ``k``
stores how many neighbours lie within distance ``(k+1)·w`` (equivalently, the
N-List position of the last such neighbour).  A ρ query then

1. locates ``targetBin = ⌊dc / w⌋`` — here by a binary search of ``dc`` in
   the stored edge grid ``fl(w·(k+1))``, once per cut-off for every row
   (:func:`~repro.indexes.kernels.target_bins`), because the quotient can
   miss a stored edge by one in floating point,
2. reads the section boundaries from the two surrounding bins, and
3. binary-searches only that tiny N-List section.

With a well-chosen ``w`` the section length is near-constant, so computing ρ
for all objects is O(n) (Theorem 2) — versus O(n log n) for the plain List
Index.  Steps 2–3 are the List's own ρ search
(:func:`~repro.indexes.parallel.csr_rho_task`) with each row's range
narrowed to its section (:func:`~repro.indexes.kernels.histogram_sections`),
or emptied where a bin holds the answer.  δ queries are inherited unchanged
from the List Index (the paper's Fig. 8 discussion: for fixed ``w`` the two
indexes differ only in ρ time).

The histograms cost extra space on top of the already-quadratic N-List
(paper Table 3 shows CH ≈ List + a few hundred KB); ``memory_bytes`` reports
both so the harness can reproduce that comparison, and
``histogram_memory_bytes`` isolates the histogram part (Figure 9a).

Refit contract
--------------
``bin_width`` holds what the caller configured (possibly ``None`` = auto)
and is never mutated; the width actually used by a fit is resolved into
``bin_width_``.  Re-fitting the same instance on a different dataset
therefore re-resolves the automatic width instead of silently reusing the
first dataset's (a seed bug this split fixed).

Histogram construction and the ρ query both run through the batched kernels
in :mod:`repro.indexes.kernels` — no per-object Python loops: bin ``k`` of
every row is one row search for the stored edge ``fl(w·(k+1))``
(:func:`~repro.indexes.kernels.bin_edges`, the grid the ρ query resolves
its target bins in).
"""

from __future__ import annotations

from typing import ClassVar, Optional, Tuple

import numpy as np

from repro.geometry.distance import Metric
from repro.indexes.kernels import bin_edges, bounded_searchsorted, target_bins
from repro.indexes.list_index import ListIndex

__all__ = ["CumulativeHistogramMixin", "CHIndex"]

#: Bins one histogram block searches at once (its rows × the largest
#: histogram's bins): 128 KB per int64 temporary of the search, and each
#: search pass reads only the block's rows of distances.
_HIST_BLOCK_ELEMS = 1 << 14


class CumulativeHistogramMixin:
    """Cumulative histograms over the sorted rows of a list-family index,
    shared by the exact (:class:`CHIndex`) and truncated
    (:class:`~repro.indexes.rn_list.RNCHIndex`) histogram indexes, which
    differ only in their bin rule (:meth:`_histogram_bins`).

    The mixin narrows the List's ρ search to Algorithm 4's sections (by
    the target bins it resolves) and adds the histograms to the shard
    image and the memory count.  ``bin_width`` is
    what the caller asked for (``None`` = auto) and is never mutated; each
    fit resolves the width actually used into ``bin_width_``; queries on a
    restored index fall back to the configured value when no resolution
    survived deserialisation.
    """

    def _init_histograms(self, bin_width: Optional[float], default_bins: int) -> None:
        if bin_width is not None and bin_width <= 0:
            raise ValueError(f"bin_width must be positive, got {bin_width}")
        if default_bins <= 0:
            raise ValueError(f"default_bins must be positive, got {default_bins}")
        self.bin_width = bin_width
        self.default_bins = default_bins
        self.bin_width_: Optional[float] = None  # resolved per fit
        self._hist_offsets: Optional[np.ndarray] = None  # (n+1,) int64 CSR offsets
        self._hist_values: Optional[np.ndarray] = None  # flat int64 bin densities

    def _resolved_bin_width(self) -> float:
        if self.bin_width_ is not None:
            return float(self.bin_width_)
        if self.bin_width is not None:
            # Restored indexes (persist.py) may carry only the configured w.
            return float(self.bin_width)
        raise RuntimeError(f"{type(self).__name__} has no resolved bin width; fit first")

    # -- construction (Algorithm 3, vectorised) ---------------------------------

    def _build(self) -> None:
        super()._build()
        self._store_histograms()

    def _store_histograms(self) -> None:
        """Algorithm 3 for every row at once.

        :meth:`_histogram_bins` resolves ``bin_width_`` and gives row ``p``
        its bin count; bin ``k`` stores how many of its entries lie below
        the edge ``fl(w·(k+1))`` — one
        :func:`~repro.indexes.kernels.bounded_searchsorted` of the edge grid
        per row — and the last bin is forced to the whole row (Algorithm 3
        line 13).  Rows go in blocks so the dense ``(rows, bins)`` grid
        stays bounded when ``w`` is tiny.
        """
        n_bins = self._histogram_bins()
        dists, offsets = self._dists, self._offsets
        n = len(n_bins)
        max_bins = int(n_bins.max())
        edges = bin_edges(self._resolved_bin_width(), max_bins)
        hist_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(n_bins, out=hist_offsets[1:])
        values = np.empty(int(hist_offsets[-1]), dtype=np.int64)
        block = max(1, _HIST_BLOCK_ELEMS // max_bins)
        for start in range(0, n, block):
            stop = min(start + block, n)
            nb = n_bins[start:stop]
            starts, stops = offsets[start:stop, None], offsets[start + 1 : stop + 1, None]
            counts = bounded_searchsorted(dists, starts, stops, edges[None, : int(nb.max())])
            counts -= starts
            # Row-major boolean selection keeps each row's first nb bins, in
            # CSR order.
            values[hist_offsets[start] : hist_offsets[stop]] = counts[
                np.arange(counts.shape[1]) < nb[:, None]
            ]
        values[hist_offsets[1:] - 1] = np.diff(offsets)
        self._hist_offsets = hist_offsets
        self._hist_values = values

    # -- ρ query (Algorithm 4) ----------------------------------------------------

    def _target_bins(self, dcs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Algorithm 4's target bin of every cut-off, resolved once for all
        rows in the stored edge grid, extended by one edge past the largest
        histogram; a cut-off beyond τ (RN-CH) lies past every histogram, so
        no row searches it (paper 5.3.1)."""
        past = int(np.diff(self._hist_offsets).max()) + 1
        bins, on_edge = target_bins(bin_edges(self._resolved_bin_width(), past), dcs)
        bins[dcs > self._reach] = past
        return bins, on_edge

    # -- sharded-execution image and bookkeeping ---------------------------------

    def _shard_arrays(self):
        arrays = super()._shard_arrays()
        arrays["hist_offsets"] = self._hist_offsets
        arrays["hist_values"] = self._hist_values
        return arrays

    def histogram_memory_bytes(self) -> int:
        """Space of the cumulative histograms alone (paper Figure 9a)."""
        if self._hist_values is None:
            return 0
        return int(self._hist_values.nbytes + self._hist_offsets.nbytes)

    def memory_bytes(self) -> int:
        return super().memory_bytes() + self.histogram_memory_bytes()

    def n_bins_of(self, p: int) -> int:
        """Bin count of object ``p``'s histogram (white-box tests)."""
        self._require_fitted()
        return int(self._hist_offsets[p + 1] - self._hist_offsets[p])


class CHIndex(CumulativeHistogramMixin, ListIndex):
    """Exact CH Index: N-Lists plus per-object cumulative histograms.

    Parameters
    ----------
    bin_width:
        Histogram bin width ``w`` (same units as the metric).  ``None``
        (default) picks ``diameter / default_bins`` at fit time — the paper
        stresses that ``w`` trades query time against space (Fig. 7/9a), so
        the constructor exposes it directly.  The per-fit resolved value is
        ``bin_width_``.
    default_bins:
        Target bin count for the automatic ``w``.
    """

    name: ClassVar[str] = "ch"

    def __init__(
        self,
        metric: "str | Metric" = "euclidean",
        bin_width: Optional[float] = None,
        default_bins: int = 128,
        build_block_rows: int = 512,
        scan_block: int = 32,
        backend: "str" = "serial",
        n_jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ):
        super().__init__(
            metric,
            build_block_rows,
            scan_block,
            backend=backend,
            n_jobs=n_jobs,
            chunk_size=chunk_size,
        )
        self._init_histograms(bin_width, default_bins)

    def _append(self, new_points: np.ndarray) -> None:
        # The N-Lists merge in place (ListIndex); the histograms must be
        # recomputed outright — appended points can grow the diameter, and
        # the automatic bin width resolves from it.
        super()._append(new_points)
        self._store_histograms()

    def _histogram_bins(self) -> np.ndarray:
        # Per object p: the bins cover its whole N-List, i.e. up to the
        # farthest neighbour (Algorithm 3 loops until the list is
        # exhausted); the automatic width splits the diameter.
        farthest = self._dists[self._offsets[1:] - 1]
        if self.bin_width is None:
            # Coincident points (diameter 0) give every row its one forced
            # bin, which any positive width keeps exact.
            diameter = float(farthest.max())
            self.bin_width_ = diameter / self.default_bins if diameter > 0.0 else 1.0
        else:
            self.bin_width_ = float(self.bin_width)
        return np.floor(farthest / self.bin_width_).astype(np.int64) + 1
