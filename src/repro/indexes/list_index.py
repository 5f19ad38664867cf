"""List Index — the paper's N-List structure (Section 3.1, Algorithms 1–2),
and the sorted-row layout and queries the whole list family shares.

For every object ``p`` the index stores the other objects sorted by
non-decreasing distance to ``p`` (the *N-List*).  Then:

* ``ρ(p)`` is the position of the farthest object with ``dist < dc`` — one
  binary search per object (Algorithm 2 lines 2–6), ``O(n log n)`` total;
* ``δ(p)`` is found by scanning the N-List near-to-far until the first
  denser object appears (Algorithm 2 lines 7–13) — expected ``O(1)`` probes
  per non-peak object (Theorem 1), so ``O(n)`` total in expectation.

Construction is ``O(n² log n)`` time and — the index's Achilles heel the
paper keeps returning to — ``Θ(n²)`` space.  The builder computes the
distances in blocks of ``build_block_rows`` rows and sorts each block in
passes of whole rows with :func:`~repro.indexes.kernels.argsort_rows`
(NumPy's SIMD sort of unique integer keys, ties by id), so peak
*transient* memory stays one block and one pass; the resident index is
still quadratic, so use :class:`~repro.indexes.rn_list.RNListIndex` when
that does not fit (paper Section 3.3).

One layout for the list family
------------------------------
:class:`NListIndex` keeps the sorted rows in CSR form: row ``p`` is the
slice ``[offsets[p], offsets[p+1])`` of the flat ``ids`` / ``dists``
arrays.  The exact :class:`ListIndex` keeps complete rows of ``n - 1``
entries; the RN-List keeps only the neighbours closer than τ, so the exact
index is the τ = ∞ case of one structure and every query is written once,
here, over the batched kernels of :mod:`repro.indexes.kernels`:

* ρ is one task (:func:`~repro.indexes.parallel.csr_rho_task`) and one
  :func:`~repro.indexes.kernels.bounded_searchsorted` call over a grid of
  search ranges, all objects × all ``dc`` of a sweep, sharded over row
  chunks.  A range is the whole row (which drops the search's bounds
  checks when every row has one length), or empty at the row's end for a
  cut-off beyond τ, which is not searched: the row length is the answer.
  The histogram indexes (:mod:`repro.indexes.ch_index`) differ only in
  the ranges: each cut-off's section of its target bin (Algorithm 4);
* δ is the blockwise vectorised near-to-far scan, sharded over row chunks,
  which keeps the expected-O(1)-probes-per-object behaviour without a
  per-object Python loop.  A single order and a sweep of many run the one
  schedule: a chunk gathers its first few columns once and scans every
  order against them;
* a row the scan leaves without a denser object is a peak: a complete row
  ends at ``max_q dist(p, q)``, the paper's δ of a peak, and a truncated
  one gets a large δ.

Distance ties are ordered by ascending id (the stable argsort's order),
matching the baseline's argmin convention.
"""

from __future__ import annotations

from typing import ClassVar, Optional, Tuple

import numpy as np

from repro.core.quantities import NO_NEIGHBOR, DensityOrder
from repro.geometry.distance import Metric
from repro.indexes import parallel
from repro.indexes.base import DPCIndex
from repro.indexes.kernels import argsort_rows, bounded_searchsorted, density_order_key

__all__ = ["NListIndex", "ListIndex"]

#: Entries one build pass sorts at once: its sort keys and sorted values
#: take 2 MB each (passes 4x smaller or larger built no faster).
_SORT_PASS_ELEMS = 1 << 18


def _sort_without_self(rows: np.ndarray, first: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(ids, dists)`` of distance rows ``rows`` of objects ``first``,
    ``first + 1``, ...: every other object, near to far (ties by id).  Each
    object's own entry is set to −inf in ``rows`` so it sorts first, and is
    dropped."""
    own = np.arange(len(rows))
    rows[own, first + own] = -np.inf
    order, dists = argsort_rows(rows)
    return order[:, 1:], dists[:, 1:]


class NListIndex(DPCIndex):
    """Sorted neighbour rows in CSR form, and every query over them.

    Subclasses build the rows.  ``_reach`` is the radius within which a row
    holds every neighbour (τ for the truncated lists, ∞ for complete rows),
    and ``_big_delta`` the δ of a peak whose row is truncated.

    Parameters
    ----------
    metric:
        Any registered metric (list indexes need no rectangle bounds).
    build_block_rows:
        Rows of each distance block computed during construction; each block
        is sorted in passes of whole rows and freed before the next, so
        transient memory stays ``O(block · n)``.  The rows built do not
        depend on it.
    scan_block:
        Smallest column-block width of the vectorised δ scan after its
        prefetched first ``min(8, scan_block)`` columns; later blocks are
        as wide as the columns already scanned, so a row that walks its
        whole list takes a logarithmic number of passes.  Small blocks
        waste Python overhead, large blocks waste probes; 32 is a good
        default for the expected-constant-probe regime.
    backend, n_jobs, chunk_size:
        Query-execution policy (:mod:`repro.indexes.parallel`): both queries
        shard over row chunks; results are bit-identical across backends.
    """

    _reach = float("inf")
    _big_delta = float("inf")

    def __init__(
        self,
        metric: "str | Metric" = "euclidean",
        build_block_rows: int = 512,
        scan_block: int = 32,
        backend: "str" = "serial",
        n_jobs: "int | None" = None,
        chunk_size: "int | None" = None,
    ):
        super().__init__(metric, backend=backend, n_jobs=n_jobs, chunk_size=chunk_size)
        if build_block_rows <= 0:
            raise ValueError(f"build_block_rows must be positive, got {build_block_rows}")
        if scan_block <= 0:
            raise ValueError(f"scan_block must be positive, got {scan_block}")
        self.build_block_rows = build_block_rows
        self.scan_block = scan_block
        # CSR layout: row p occupies [offsets[p], offsets[p+1]) in ids/dists.
        self._offsets: Optional[np.ndarray] = None  # (n+1,) int64
        self._ids: Optional[np.ndarray] = None  # int32
        self._dists: Optional[np.ndarray] = None  # float64

    # -- construction (Algorithm 1) -------------------------------------------

    def _sorted_rows(self):
        """Yield ``(first, ids, dists, lengths, far)`` for consecutive passes
        over the objects, in order.

        Row ``i`` of the 2-D ``ids`` / ``dists`` belongs to object
        ``first + i``: its first ``lengths[i]`` entries are the neighbours
        within reach, near to far (ties by id), and the rest is padding.
        ``far`` is the largest distance from a row of the pass to any
        object.  Distances are computed ``build_block_rows`` rows at a time
        and sorted in passes of at most ``_SORT_PASS_ELEMS`` entries; what
        a pass yields holds no view of its distance block, so each block
        is freed before the next one is computed.
        """
        points = self.points
        n = len(points)
        if n < 2:
            raise ValueError(f"{type(self).__name__} needs at least 2 points")
        reach = self._reach
        pass_rows = max(1, _SORT_PASS_ELEMS // n)
        for start in range(0, n, self.build_block_rows):
            block = self.metric.cross(points[start : start + self.build_block_rows], points)
            for lo in range(0, len(block), pass_rows):
                first = start + lo
                rows = block[lo : lo + pass_rows]
                if reach == np.inf:
                    ids, dists = _sort_without_self(rows, first)
                    lengths = np.full(len(rows), n - 1)
                    yield first, ids, dists, lengths, float(dists[:, -1].max())
                    continue
                far = float(rows.max())
                keep = rows < reach
                keep[np.arange(len(rows)), np.arange(first, first + len(rows))] = False
                # The kept entries, compacted to the front of +inf-padded rows.
                kept = np.flatnonzero(keep)
                row_of, cols = np.divmod(kept, n)
                lengths = np.bincount(row_of, minlength=len(rows))
                valid = np.arange(lengths.max()) < lengths[:, None]
                padded = np.full(valid.shape, np.inf)
                padded[valid] = rows.ravel()[kept]
                ids = np.zeros(valid.shape, dtype=np.int32)
                ids[valid] = cols
                order, dists = argsort_rows(padded)
                yield first, np.take_along_axis(ids, order, axis=1), dists, lengths, far
            del block, rows

    def row_lengths(self) -> np.ndarray:
        self._require_fitted()
        return np.diff(self._offsets)

    # -- sharded-execution image (repro.indexes.parallel) ------------------------

    def _shard_arrays(self):
        return {"ids": self._ids, "dists": self._dists, "offsets": self._offsets}

    def _shard_meta(self):
        return {"n": self.n}

    # -- ρ query (Algorithm 2, lines 2-6) --------------------------------------

    def _rho_all(self, dc: float) -> np.ndarray:
        return self._rho_rows(np.array([dc], dtype=np.float64))[0]

    def rho_all_multi(self, dcs) -> np.ndarray:
        """All objects × all cut-offs in one sharded batched search."""
        self._require_fitted()
        return self._rho_rows(self._validate_dcs(dcs))

    def _rho_rows(self, dcs: np.ndarray) -> np.ndarray:
        # searchsorted(side="left") == index of farthest object with
        # dist < dc, which *is* ρ(p) (Example 1 of the paper); one batched
        # binary search per object and cut-off over its search range,
        # sharded over row chunks.
        bins, on_edge = self._target_bins(dcs)
        payloads = [
            {
                "start": start,
                "stop": stop,
                "needles": dcs.tolist(),
                "bins": bins.tolist(),
                "on_edge": on_edge.tolist(),
            }
            for start, stop in self._execution().plan(self.n)
        ]
        outs = self._dispatch(parallel.csr_rho_task, payloads)
        return np.ascontiguousarray(np.concatenate([o["rho"] for o in outs]).T)

    def _target_bins(self, dcs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each cut-off's bin of a row and whether it sits on a stored edge
        (:func:`~repro.indexes.kernels.target_bins`).  Without histograms a
        row is one bin, searched whole; a cut-off beyond τ lies past it:
        paper 5.3.1, no search happens, and the truncated length is the
        (approximate) answer."""
        return (dcs > self._reach).astype(np.int64), np.zeros(len(dcs), dtype=bool)

    # -- δ query (Algorithm 2, lines 7-13) --------------------------------------

    def delta_all(self, order: DensityOrder) -> Tuple[np.ndarray, np.ndarray]:
        return self.delta_all_multi([order])[0]

    def delta_all_multi(self, orders) -> "list[Tuple[np.ndarray, np.ndarray]]":
        """δ/μ per density order via the sharded near-to-far CSR scan.

        One task per row chunk, each scanning *all* density orders of the
        sweep against one shared prefetch gather (the candidate layout is
        ``dc``-independent, so a per-order regather would multiply the
        dominant gather by the sweep width).  A single order runs the same
        schedule, so its answer and counters equal the sweep's.
        """
        self._require_fitted()
        orders = list(orders)
        for order in orders:
            if len(order) != self.n:
                raise ValueError(f"order has {len(order)} objects, index has {self.n}")
        if not orders:
            return []
        keys = np.stack([density_order_key(order) for order in orders])
        payloads = [
            {"start": start, "stop": stop, "block": self.scan_block}
            for start, stop in self._execution().plan(self.n)
        ]
        outs = self._dispatch(parallel.scan_delta_task, payloads, {"keys": keys})
        results = []
        for o in range(len(keys)):
            delta = np.concatenate([out["delta"][o] for out in outs])
            mu = np.concatenate([out["mu"][o] for out in outs])
            self._finish_unresolved(delta, mu)
            results.append((delta, mu))
        return results

    def _finish_unresolved(self, delta: np.ndarray, mu: np.ndarray) -> None:
        # Whatever the scan left has no denser object in its row.  A complete
        # row makes it a true peak (the single global peak under TieBreak.ID,
        # every maximal-density object under STRICT), and the paper's δ is
        # max_q dist(p, q), the row's last entry.  A truncated row has no
        # denser object within τ: the large δ keeps it at the top of the
        # decision graph as a centre/outlier candidate.
        peaks = np.flatnonzero(mu == NO_NEIGHBOR)
        ends = self._offsets[peaks + 1]
        complete = ends - self._offsets[peaks] == self.n - 1
        delta[peaks[complete]] = self._dists[ends[complete] - 1]
        delta[peaks[~complete]] = self._big_delta

    # -- bookkeeping -------------------------------------------------------------

    def memory_bytes(self) -> int:
        if self._offsets is None:
            return 0
        return int(self._offsets.nbytes + self._ids.nbytes + self._dists.nbytes)


class ListIndex(NListIndex):
    """Exact N-List index (paper Algorithms 1–2): every row is complete.

    Parameters are those of :class:`NListIndex`.
    """

    name: ClassVar[str] = "list"

    def _build(self) -> None:
        n = len(self.points)
        # Complete rows are preallocated, so the build holds one copy of
        # the lists (plus one block of distances and one sort pass).
        ids = np.empty((n, n - 1), dtype=np.int32)
        dists = np.empty((n, n - 1), dtype=np.float64)
        for first, pass_ids, pass_dists, _lengths, _far in self._sorted_rows():
            ids[first : first + len(pass_ids)] = pass_ids
            dists[first : first + len(pass_dists)] = pass_dists
        self._store_complete_rows(ids, dists)

    def _store_complete_rows(self, ids: np.ndarray, dists: np.ndarray) -> None:
        n, m = ids.shape
        self._offsets = np.arange(n + 1, dtype=np.int64) * m
        self._ids = ids.reshape(-1)
        self._dists = dists.reshape(-1)

    # -- incremental maintenance -------------------------------------------------

    def _append(self, new_points: np.ndarray) -> None:
        """Merge a batch into every N-List instead of refitting.

        The N-List rows are per-object sorted runs, so a batch folds in as
        one batched sorted merge: each old row's ``k`` new distances are
        sorted, one :func:`~repro.indexes.kernels.bounded_searchsorted` call
        finds every insertion point (``side="right"`` — new ids are larger,
        so distance ties keep ascending-id order), and new and old entries
        scatter into the grown rows through a position mask.  Each new
        object gets a freshly sorted full row.  Only the ``O(k·n)`` new
        distances are evaluated (bit-identical to what a fresh build would
        compute), versus ``O(n²)`` for a refit; the result is
        indistinguishable from ``fit`` on the combined points.
        """
        base = self.points
        base_n = len(base)
        combined = np.concatenate([base, new_points])
        n = len(combined)
        k = n - base_n
        cross_no = self.metric.cross(new_points, base)  # (k, base_n)
        cross_nn = self.metric.cross(new_points, new_points)
        ids = np.empty((n, n - 1), dtype=np.int32)
        dists = np.empty((n, n - 1), dtype=np.float64)
        # Old rows: entry j of row p's sorted new distances lands after the
        # j new entries sorted before it.  ``ins`` is its insertion point in
        # the old flat lists, p·(base_n - 1) + (its place in row p), so its
        # slot in the grown flat lists is ins + p·k + j.
        srt, d_new = argsort_rows(np.ascontiguousarray(cross_no.T))
        offsets = self._offsets
        ins = bounded_searchsorted(
            self._dists, offsets[:-1, None], offsets[1:, None], d_new, side="right"
        )
        pos = (ins + np.arange(base_n)[:, None] * k + np.arange(k)).ravel()
        is_new = np.zeros(base_n * (n - 1), dtype=bool)
        is_new[pos] = True
        old_ids, old_dists = ids[:base_n].reshape(-1), dists[:base_n].reshape(-1)
        old_ids[pos] = (srt + base_n).ravel()
        old_dists[pos] = d_new.ravel()
        is_old = ~is_new
        old_ids[is_old] = self._ids
        old_dists[is_old] = self._dists
        # New rows: every other object, sorted (ties by id).
        ids[base_n:], dists[base_n:] = _sort_without_self(
            np.concatenate([cross_no, cross_nn], axis=1), base_n
        )
        self.points = combined
        self._store_complete_rows(ids, dists)

    # The complete rows as dense (n, n-1) views, for the kNN density variant
    # and white-box tests.
    @property
    def neighbor_ids(self) -> np.ndarray:
        self._require_fitted()
        return self._ids.reshape(self.n, -1)

    @property
    def neighbor_dists(self) -> np.ndarray:
        self._require_fitted()
        return self._dists.reshape(self.n, -1)
