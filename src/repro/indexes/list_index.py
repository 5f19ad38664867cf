"""List Index — the paper's N-List structure (Section 3.1, Algorithms 1–2).

For every object ``p`` the index stores *all* other objects sorted by
non-decreasing distance to ``p`` (the *N-List*).  Then:

* ``ρ(p)`` is the position of the farthest object with ``dist < dc`` — one
  binary search per object (Algorithm 2 lines 2–6), ``O(n log n)`` total;
* ``δ(p)`` is found by scanning the N-List near-to-far until the first
  denser object appears (Algorithm 2 lines 7–13) — expected ``O(1)`` probes
  per non-peak object (Theorem 1), so ``O(n)`` total in expectation.

Construction is ``O(n² log n)`` time and — the index's Achilles heel the
paper keeps returning to — ``Θ(n²)`` space.  The builder works in row blocks
so peak *transient* memory stays bounded, but the resident index is still
quadratic; use :class:`~repro.indexes.rn_list.RNListIndex` when that does not
fit (paper Section 3.3).

Implementation notes
--------------------
The N-Lists are stored as two ``(n, n-1)`` arrays (ids, distances).  Both
queries run through the batched kernels of :mod:`repro.indexes.kernels`:
ρ is one vectorised row-wise binary search over all objects (and, via
``rho_all_multi``, over all objects × all ``dc`` values of a sweep at once),
δ is the blockwise vectorised near-to-far scan, which preserves the
expected-O(1)-probes-per-object behaviour without a per-object Python loop.
Distance ties are ordered by ascending id (stable argsort), matching the
baseline's argmin convention.
"""

from __future__ import annotations

from typing import ClassVar, Optional, Tuple

import numpy as np

from repro.core.quantities import NO_NEIGHBOR, DensityOrder, DPCQuantities, TieBreak
from repro.geometry.distance import Metric
from repro.indexes import parallel
from repro.indexes.base import DPCIndex
from repro.indexes.kernels import density_order_key, row_searchsorted

__all__ = ["ListIndex"]

# Kept as the historical private name; the shared implementation lives with
# the batched kernels so every index family encodes the density total order
# identically.
_order_key = density_order_key


def sweep_quantities(index, dcs, tie_break) -> "list[DPCQuantities]":
    """Shared batched-sweep assembly for the list-family indexes.

    ``index`` supplies ``rho_all_multi`` and ``_delta_sweep``.  One sharded
    ρ pass answers the whole grid, then the δ scans run as one
    ``(dc, chunk)`` task grid; each chunk gathers its own narrow prefetch
    block — narrow because it still resolves the overwhelming majority of
    rows (Theorem 1) while keeping the per-``dc`` key-compare cheap, with
    the scan continuing in geometrically widening blocks (the first
    ``scan_block`` wide) for the stragglers.
    """
    dcs = index._validate_dcs(dcs)
    rhos = index.rho_all_multi(dcs)
    orders = [DensityOrder(rho, tie_break) for rho in rhos]
    deltas = index._delta_sweep(orders, prefetch_width=min(8, index.scan_block))
    return [
        DPCQuantities(dc=float(dc), rho=rho, delta=delta, mu=mu, density_order=order)
        for dc, rho, order, (delta, mu) in zip(dcs, rhos, orders, deltas)
    ]


def sharded_delta_scan(index, orders, prefetch_width: int):
    """δ/μ per density order via the sharded near-to-far CSR scan.

    The chunked task grid shared by the N-List and RN-List indexes: one
    task per row chunk, each scanning *all* density orders of the sweep
    against one shared prefetch gather (the candidate layout is
    ``dc``-independent, so a per-order regather would multiply the
    dominant gather by the sweep width).  Unresolved rows
    (``mu == NO_NEIGHBOR``) are handed back to the index's
    ``_finish_unresolved`` hook — the peak convention differs between the
    exact and truncated lists.
    """
    keys = np.stack([_order_key(order) for order in orders])
    payloads = [
        {
            "start": start,
            "stop": stop,
            "block": index.scan_block,
            "prefetch_width": prefetch_width,
        }
        for start, stop in index._execution().plan(index.n)
    ]
    outs = index._dispatch(parallel.scan_delta_task, payloads, {"keys": keys})
    results = []
    for o in range(len(orders)):
        delta = np.concatenate([out["delta"][o] for out in outs])
        mu = np.concatenate([out["mu"][o] for out in outs])
        index._finish_unresolved(delta, mu)
        results.append((delta, mu))
    return results


class ListIndex(DPCIndex):
    """Exact N-List index (paper Algorithms 1–2).

    Parameters
    ----------
    metric:
        Any registered metric (list indexes need no rectangle bounds).
    build_block_rows:
        Row-block size used during construction; bounds transient memory at
        ``O(block · n)`` without changing the result.
    scan_block:
        First (and smallest) column-block width of the vectorised δ scan;
        later blocks are as wide as the columns already scanned, so a row
        that walks its whole list takes a logarithmic number of passes.
        Small blocks waste Python overhead, large blocks waste probes; 32
        is a good default for the expected-constant-probe regime.
    backend, n_jobs, chunk_size:
        Query-execution policy (:mod:`repro.indexes.parallel`): both queries
        shard over row chunks; results are bit-identical across backends.
    """

    name: ClassVar[str] = "list"

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
        self._neighbor_ids: Optional[np.ndarray] = None  # (n, n-1) int32
        self._neighbor_dists: Optional[np.ndarray] = None  # (n, n-1) float64

    # -- construction (Algorithm 1) -------------------------------------------

    def _build(self) -> None:
        points = self.points
        n = len(points)
        if n < 2:
            raise ValueError("ListIndex needs at least 2 points")
        ids = np.empty((n, n - 1), dtype=np.int32)
        dists = np.empty((n, n - 1), dtype=np.float64)
        all_ids = np.arange(n, dtype=np.int32)
        for start in range(0, n, self.build_block_rows):
            stop = min(start + self.build_block_rows, n)
            block = self.metric.cross(points[start:stop], points)
            for i, p in enumerate(range(start, stop)):
                row = block[i]
                # Drop self, then stable-sort by distance (ties by id).
                keep = all_ids != p
                neigh = all_ids[keep]
                d = row[keep]
                sorting = np.argsort(d, kind="stable")
                ids[p] = neigh[sorting]
                dists[p] = d[sorting]
        self._neighbor_ids = ids
        self._neighbor_dists = dists

    # -- incremental maintenance -------------------------------------------------

    def _append(self, new_points: np.ndarray) -> None:
        """Merge a batch into every N-List instead of refitting.

        The N-List rows are per-object sorted runs, so a batch folds in as
        one batched sorted merge: each old row's ``k`` new distances are
        sorted, one :func:`~repro.indexes.kernels.row_searchsorted` call
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
        # Old rows: entry j of row p's sorted new distances lands at
        # ins[p, j] + j, after the j new entries sorted before it.
        d_new = np.ascontiguousarray(cross_no.T)
        srt = np.argsort(d_new, axis=1, kind="stable")
        d_new = np.take_along_axis(d_new, srt, axis=1)
        ins = row_searchsorted(self._neighbor_dists, d_new, side="right")
        pos = (ins + np.arange(base_n)[:, None] * (n - 1) + np.arange(k)).ravel()
        is_new = np.zeros(base_n * (n - 1), dtype=bool)
        is_new[pos] = True
        old_ids, old_dists = ids[:base_n].reshape(-1), dists[:base_n].reshape(-1)
        old_ids[pos] = (srt + base_n).ravel()
        old_dists[pos] = d_new.ravel()
        is_old = ~is_new
        old_ids[is_old] = self._neighbor_ids.ravel()
        old_dists[is_old] = self._neighbor_dists.ravel()
        # New rows: every other object, sorted (ties by id).
        row = np.concatenate([cross_no, cross_nn], axis=1)  # (k, n)
        keep = np.ones((k, n), dtype=bool)
        keep[np.arange(k), base_n + np.arange(k)] = False
        d_row = row[keep].reshape(k, n - 1)
        id_row = np.broadcast_to(np.arange(n, dtype=np.int32), (k, n))[keep]
        sorting = np.argsort(d_row, axis=1, kind="stable")
        ids[base_n:] = np.take_along_axis(id_row.reshape(k, n - 1), sorting, axis=1)
        dists[base_n:] = np.take_along_axis(d_row, sorting, axis=1)
        self.points = combined
        self._neighbor_ids = ids
        self._neighbor_dists = dists

    # CSR view of the dense rows, shared with the kernels (row p occupies
    # [p·(n-1), (p+1)·(n-1)) in the flat arrays).
    def _row_offsets(self) -> np.ndarray:
        n, m = self._neighbor_dists.shape
        return np.arange(n + 1, dtype=np.int64) * m

    # -- sharded-execution image (repro.indexes.parallel) ------------------------

    def _shard_arrays(self):
        return {
            "ids": self._neighbor_ids,
            "dists": self._neighbor_dists,
            "offsets": self._row_offsets(),
        }

    def _shard_meta(self):
        n, m = self._neighbor_dists.shape
        return {"n": n, "row_len": m}

    # -- ρ query (Algorithm 2, lines 2-6) --------------------------------------

    def _rho_all(self, dc: float) -> np.ndarray:
        # searchsorted(side="left") == index of farthest object with
        # dist < dc, which *is* ρ(p) (Example 1 of the paper); one batched
        # binary search per object, sharded over row chunks.
        return self._list_rho(float(dc))

    def rho_all_multi(self, dcs) -> np.ndarray:
        """All objects × all cut-offs in one sharded batched binary search."""
        self._require_fitted()
        dcs = self._validate_dcs(dcs)
        pos = self._list_rho([float(dc) for dc in dcs])
        return np.ascontiguousarray(pos.T).astype(np.int64, copy=False)

    def _list_rho(self, needles):
        payloads = [
            {"start": start, "stop": stop, "needles": needles}
            for start, stop in self._execution().plan(self.n)
        ]
        outs = self._dispatch(parallel.list_rho_task, payloads)
        return np.concatenate([o["rho"] for o in outs]).astype(np.int64, copy=False)

    # -- δ query (Algorithm 2, lines 7-13) --------------------------------------

    def delta_all(self, order: DensityOrder) -> Tuple[np.ndarray, np.ndarray]:
        self._require_fitted()
        if len(order) != len(self._neighbor_ids):
            raise ValueError(
                f"order has {len(order)} objects, index has {len(self._neighbor_ids)}"
            )
        return self._delta_sweep([order], prefetch_width=0)[0]

    def _delta_sweep(self, orders, prefetch_width: int = 0):
        """Sharded near-to-far scans, one ``(order, chunk)`` task grid."""
        return sharded_delta_scan(self, orders, prefetch_width)

    def _finish_unresolved(self, delta: np.ndarray, mu: np.ndarray) -> None:
        # Whatever the scan left has no denser object at all: the single
        # global peak under TieBreak.ID, every maximal-density object under
        # STRICT.  Paper convention: δ = max_q dist(p, q) = last list entry.
        peaks = np.flatnonzero(mu == NO_NEIGHBOR)
        delta[peaks] = self._neighbor_dists[peaks, -1]

    # -- multi-dc sweep -----------------------------------------------------------

    def _quantities_multi_impl(
        self, dcs, tie_break: "str | TieBreak"
    ) -> "list[DPCQuantities]":
        """Batched sweep: one sharded ρ search for the whole grid, then the
        δ scans as one ``(dc, chunk)`` task grid (each chunk gathering its
        ``dc``-independent prefetch block)."""
        return sweep_quantities(self, dcs, tie_break)

    # -- bookkeeping -------------------------------------------------------------

    def memory_bytes(self) -> int:
        if self._neighbor_ids is None:
            return 0
        return int(self._neighbor_ids.nbytes + self._neighbor_dists.nbytes)

    # Exposed for CHIndex, which builds its histograms over these arrays, and
    # for white-box tests.
    @property
    def neighbor_ids(self) -> np.ndarray:
        self._require_fitted()
        return self._neighbor_ids

    @property
    def neighbor_dists(self) -> np.ndarray:
        self._require_fitted()
        return self._neighbor_dists
