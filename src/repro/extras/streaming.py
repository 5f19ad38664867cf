"""Streaming DPC: keep clustering as points arrive (extension).

The paper's real datasets are check-in streams, but its indexes are static.
This module used to answer that with the classic *amortised rebuild*
(geometric rebuilding) technique — buffer arrivals, refit from scratch when
the buffer outgrows the index, brute-force-patch queries in between.  It now
rides the LSM-style delta segments the index families grew instead
(:meth:`repro.indexes.base.DPCIndex.add_points`): every batch folds into a
small sorted side image of the live index, queries merge the (base, delta)
pair at kernel time and stay **exact** at every moment, and the side image
compacts into the main image — a sorted-merge for the tree/grid families,
far cheaper than a refit — only when it outgrows ``rebuild_factor`` times
the base.

Cost: for n arrivals the base image compacts O(log_f n) times and each
ingest does O(batch) image-building work, so total maintenance stays within
a constant factor of one final build — while every intermediate clustering
is available without brute-force patching.

This composes with every index family; the list/CH indexes merge their
per-object sorted rows on every ingest (their ``delta_size`` stays 0), the
tree and grid families carry a real delta segment between compactions.

Answers are repaired, not recomputed.  The stream keeps its last
:meth:`StreamingDPC.quantities` answer per ``(dc, tie_break)``; an ingest
keeps it, a compaction drops it.  The next ask hands the kept answer to
:meth:`~repro.indexes.base.DPCIndex.quantities_after_append`, which the tree
families answer by recomputing only what the new points can change: ρ grows
by the new neighbours of each point, and δ/μ move only where a new point or
a point whose ρ rose is now the nearest denser one.  That is exact because
nothing leaves an append-only stream, so no ρ falls.  The cost is one O(n)
answer per asked key, held until the next compaction.

Beyond the exact full-stream quantities, the stream offers two *recency*
views for evolving data: :meth:`StreamingDPC.windowed_quantities` clusters
only the trailing window, and :meth:`StreamingDPC.decayed_quantities`
exponentially down-weights old arrivals in the density (a float ρ through
the same δ/μ machinery).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.baseline import naive_quantities
from repro.core.quantities import DPCQuantities, TieBreak
from repro.geometry.distance import pairwise_blocks
from repro.indexes.base import DPCIndex
from repro.indexes.rtree import RTreeIndex

__all__ = ["StreamingDPC"]


class StreamingDPC:
    """Exact DPC over an append-only point stream.

    Parameters
    ----------
    index_factory:
        Zero-argument callable producing a fresh unfitted index
        (default: STR R-tree).
    rebuild_factor:
        Compact the delta segment into the base image when
        ``delta > rebuild_factor · base`` (and at least ``min_buffer``
        points are pending).  Smaller = tighter base image, more
        compaction work; queries are exact either way.
    min_buffer:
        Grace size below which no compaction triggers (tiny streams would
        otherwise compact on every arrival).
    """

    def __init__(
        self,
        index_factory: Optional[Callable[[], DPCIndex]] = None,
        rebuild_factor: float = 0.5,
        min_buffer: int = 64,
    ):
        if rebuild_factor <= 0:
            raise ValueError(f"rebuild_factor must be positive, got {rebuild_factor}")
        if min_buffer < 1:
            raise ValueError(f"min_buffer must be >= 1, got {min_buffer}")
        self.index_factory = index_factory or (lambda: RTreeIndex())
        self.rebuild_factor = rebuild_factor
        self.min_buffer = min_buffer
        self._index: Optional[DPCIndex] = None
        self._rebuild_subscribers: list = []
        self._ingest_subscribers: list = []
        self._points_cache: Optional[np.ndarray] = None
        # (dc, tie_break) -> the last answer; it covers the first len(answer)
        # points.  Kept across ingests, dropped at a compaction.
        self._answers: dict = {}
        self.rebuild_count: int = 0

    @property
    def index(self) -> Optional[DPCIndex]:
        """A frozen snapshot of the index over everything seen so far
        (None before the first arrival).  The live index mutates only by
        attribute rebinding, so the snapshot keeps answering for exactly
        its stream prefix while later batches ingest."""
        if self._index is None:
            return None
        return self._index.snapshot_copy()

    def subscribe_rebuild(self, callback: Callable[[DPCIndex], None]) -> Callable[[], None]:
        """Call ``callback(index_snapshot)`` after the initial fit and after
        every compaction.

        This is how the serving layer keeps a hot snapshot of a stream:
        :meth:`repro.serving.service.ClusteringService.attach_stream`
        registers a callback that atomically publishes the compacted index
        (and invalidates the replaced snapshot's cache entries).  Returns
        an unsubscribe function.
        """
        self._rebuild_subscribers.append(callback)

        def unsubscribe() -> None:
            if callback in self._rebuild_subscribers:
                self._rebuild_subscribers.remove(callback)

        return unsubscribe

    def subscribe_ingest(
        self, callback: Callable[[DPCIndex, np.ndarray], None]
    ) -> Callable[[], None]:
        """Call ``callback(index_snapshot, new_points)`` after every delta
        ingest that did *not* trigger a compaction.

        Together with :meth:`subscribe_rebuild` this gives downstream
        consumers the full LSM event stream: small deltas arrive through
        here (the serving layer forwards them as
        :meth:`repro.serving.snapshots.SnapshotStore.publish_delta`), and
        compactions arrive as full-image rebuild events.  Returns an
        unsubscribe function.
        """
        self._ingest_subscribers.append(callback)

        def unsubscribe() -> None:
            if callback in self._ingest_subscribers:
                self._ingest_subscribers.remove(callback)

        return unsubscribe

    # -- stream ingestion -----------------------------------------------------

    def add(self, points: np.ndarray) -> "StreamingDPC":
        """Append one point or a batch of points to the stream."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError(f"expected (k, d) points, got shape {points.shape}")
        if self._index is not None and points.shape[1] != self._index.points.shape[1]:
            raise ValueError(
                f"dimension mismatch: stream is {self._index.points.shape[1]}-D, "
                f"got {points.shape[1]}-D"
            )
        self._points_cache = None
        if self._index is None:
            self._index = self.index_factory().fit(points)
            self.rebuild_count += 1
            self._notify_rebuild()
            return self
        self._index.add_points(points)
        if not self._maybe_compact():
            for callback in tuple(self._ingest_subscribers):
                callback(self._index.snapshot_copy(), points)
        return self

    @property
    def n(self) -> int:
        return 0 if self._index is None else self._index.n

    @property
    def n_buffered(self) -> int:
        """Points currently living in the delta segment (0 right after a
        compaction, and always 0 for the merge-on-append list family)."""
        return 0 if self._index is None else self._index.delta_size

    def points(self) -> np.ndarray:
        """All stream points, in arrival order, as one array.

        The view is materialised once per ingest state and cached;
        :meth:`add` invalidates it.
        """
        if self._index is None:
            raise ValueError("the stream is empty")
        if self._points_cache is None:
            self._points_cache = self._index.points
        return self._points_cache

    def _maybe_compact(self) -> bool:
        delta = self._index.delta_size
        base = self._index.n - delta
        if delta < self.min_buffer:
            return False
        if delta > self.rebuild_factor * base:
            self._compact()
            return True
        return False

    def _compact(self) -> None:
        self._answers.clear()
        self._index.compact()
        self.rebuild_count += 1
        self._notify_rebuild()

    def _notify_rebuild(self) -> None:
        for callback in tuple(self._rebuild_subscribers):
            callback(self._index.snapshot_copy())

    # -- exact queries over the (base, delta) pair ------------------------------

    def quantities(
        self, dc: float, tie_break: "str | TieBreak" = TieBreak.ID
    ) -> DPCQuantities:
        """Exact (ρ, δ, μ) over everything seen so far.

        The stream keeps its last answer per ``(dc, tie_break)`` and hands
        it out again while no point has arrived.  After an ingest, that
        answer goes to :meth:`~repro.indexes.base.DPCIndex.quantities_after_append`,
        which the tree families answer by *repairing* it over the
        (base, delta) image pair: only ρ of the points near the new ones,
        and δ/μ of the points a change can reach, are computed again.  The
        repair is exact because the stream is append-only — no ρ falls, so
        a point can only gain denser neighbours among the new points and
        the old points whose ρ rose (see the method for the argument).  A
        first ask of a ``(dc, tie_break)``, or one after a compaction, runs
        the full computation.  Answers returned earlier are never modified.

        Memory: one O(n) answer per asked ``(dc, tie_break)`` until the next
        compaction drops them all.
        """
        if self._index is None:
            raise ValueError("the stream is empty")
        key = (float(dc), str(TieBreak.coerce(tie_break)))
        prev = self._answers.get(key)
        if prev is not None and len(prev) == self._index.n:
            return prev
        if prev is None:
            answer = self._index.quantities(dc, tie_break)
        else:
            answer = self._index.quantities_after_append(prev, len(prev))
        self._answers[key] = answer
        return answer

    def cluster(self, dc: float, **kwargs):
        """Convenience: full DPC over the current stream contents.

        Compacts any pending delta first — clustering goes through the
        index pipeline, and the fold was going to happen at the next
        threshold crossing anyway.  Accepts the same selection/halo
        keywords as :meth:`repro.indexes.DPCIndex.cluster`.
        """
        if self._index is None:
            raise ValueError("the stream is empty")
        if self._index.delta_size:
            self._compact()
        return self._index.cluster(dc, **kwargs)

    # -- recency-weighted views --------------------------------------------------

    def windowed_quantities(
        self,
        dc: float,
        window: int,
        tie_break: "str | TieBreak" = TieBreak.ID,
    ) -> DPCQuantities:
        """Exact (ρ, δ, μ) over only the most recent ``window`` arrivals.

        The trailing window is its own clustering problem (row ``i`` of the
        result is stream point ``n - len(window) + i``); older points do
        not contribute density.  This is the hard-cut-off recency view —
        see :meth:`decayed_quantities` for the smooth one.
        """
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        pts = self.points()
        win = pts[-int(window):]
        if len(win) < 2:
            raise ValueError(
                f"window needs at least 2 stream points, have {len(win)}"
            )
        return naive_quantities(
            win, dc, metric=self._index.metric, tie_break=tie_break
        )

    def decayed_quantities(
        self,
        dc: float,
        half_life: float,
        tie_break: "str | TieBreak" = TieBreak.ID,
    ) -> DPCQuantities:
        """(ρ, δ, μ) with exponentially decayed densities over all arrivals.

        Each point's contribution to its neighbours' density is
        ``0.5 ** (age / half_life)`` where age counts arrivals since it
        (the newest point has age 0).  ρ becomes a float sum of neighbour
        weights; δ/μ run through the standard machinery on that density —
        hotspots that stopped receiving points fade instead of vanishing
        at a window edge.
        """
        if half_life <= 0:
            raise ValueError(f"half_life must be positive, got {half_life}")
        pts = self.points()
        n = len(pts)
        age = (n - 1) - np.arange(n, dtype=np.float64)
        weights = 0.5 ** (age / float(half_life))
        rho = np.empty(n, dtype=np.float64)
        for start, stop, block in pairwise_blocks(pts, self._index.metric):
            within = block < dc
            # The diagonal self-match contributes its own weight; remove it.
            rho[start:stop] = within @ weights - weights[start:stop]
        return naive_quantities(
            pts, dc, metric=self._index.metric, tie_break=tie_break, rho=rho
        )
