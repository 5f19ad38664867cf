"""The per-row N-List build, kept as the test reference.

This is the build :class:`repro.indexes.list_index.NListIndex` had before it
sorted whole row passes with :func:`repro.indexes.kernels.argsort_rows`: one
Python iteration and one stable argsort per object, over distance blocks of
``build_block_rows`` rows.  Its rows (``_offsets``, ``_ids``, ``_dists``),
the RN-List's large δ and its peak transient memory define what the
production build must reproduce (``tests/unit/test_list_build.py``).
"""

from __future__ import annotations

import numpy as np

from repro.indexes.ch_index import CumulativeHistogramMixin
from repro.indexes.list_index import NListIndex
from repro.indexes.rn_list import RNListIndex


def reference_sorted_rows(index: NListIndex):
    """Yield ``(p, row, ids, dists)`` for every object ``p``: its distances
    to all objects, and the ids and distances of its neighbours within
    reach, near to far (ties by id)."""
    points = index.points
    n = len(points)
    if n < 2:
        raise ValueError(f"{type(index).__name__} needs at least 2 points")
    all_ids = np.arange(n, dtype=np.int32)
    reach = index._reach
    for start in range(0, n, index.build_block_rows):
        block = index.metric.cross(points[start : start + index.build_block_rows], points)
        for p, row in enumerate(block, start):
            keep = all_ids != p
            if reach < np.inf:
                keep &= row < reach
            d = row[keep]
            sorting = np.argsort(d, kind="stable")
            yield p, row, all_ids[keep][sorting], d[sorting]


def _build_complete(index: NListIndex) -> None:
    n = len(index.points)
    ids = np.empty((n, n - 1), dtype=np.int32)
    dists = np.empty((n, n - 1), dtype=np.float64)
    for p, _row, row_ids, row_dists in reference_sorted_rows(index):
        ids[p] = row_ids
        dists[p] = row_dists
    index._offsets = np.arange(n + 1, dtype=np.int64) * (n - 1)
    index._ids = ids.reshape(-1)
    index._dists = dists.reshape(-1)


def _build_truncated(index: RNListIndex) -> None:
    row_ids: list = []
    row_dists: list = []
    lengths = np.empty(len(index.points), dtype=np.int64)
    big_delta = index.tau
    for p, row, ids, dists in reference_sorted_rows(index):
        big_delta = max(big_delta, float(row.max()))
        row_ids.append(ids)
        row_dists.append(dists)
        lengths[p] = len(ids)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    index._offsets = offsets
    index._ids = np.concatenate(row_ids)
    index._dists = np.concatenate(row_dists)
    index._big_delta = big_delta


def reference_fit(index: NListIndex, points: np.ndarray) -> NListIndex:
    """Fit ``index`` on ``points`` through the reference build: the rows,
    then (for the histogram indexes) the histograms, as ``fit`` builds
    them."""
    index.points = np.ascontiguousarray(points, dtype=np.float64)
    if isinstance(index, RNListIndex):
        _build_truncated(index)
    else:
        _build_complete(index)
    if isinstance(index, CumulativeHistogramMixin):
        index._store_histograms()
    return index
