"""Streaming DPC: keep clustering as points arrive (extension).

The paper's real datasets are check-in streams, but its indexes are static.
:class:`StreamingDPC` keeps one index over everything seen so far and grows
it with :meth:`repro.indexes.base.DPCIndex.add_points`: the tree and grid
families refit (their bulk builds take milliseconds), the list/CH indexes
merge the new points into their per-object sorted rows instead of paying
their ``O(n²)`` build again.  Every answer is **exact** at every moment.

Answers are repaired, not recomputed.  The stream keeps its last
:meth:`StreamingDPC.quantities` answer per ``(dc, tie_break)``; the next
ask after an ingest hands it to
:meth:`~repro.indexes.base.DPCIndex.quantities_after_append`, which the
tree families answer by recomputing only what the new points can change:
ρ grows by the new neighbours of each point, and δ/μ move only where a new
point or a point whose ρ rose is now the nearest denser one.  That is exact
because nothing leaves an append-only stream, so no ρ falls.  The cost is
one O(n) answer per kept key; the stream keeps the
:data:`MAX_ANSWERS` most recently asked.

Beyond the exact full-stream quantities, the stream offers two *recency*
views for evolving data: :meth:`StreamingDPC.windowed_quantities` clusters
only the trailing window, and :meth:`StreamingDPC.decayed_quantities`
exponentially down-weights old arrivals in the density (a float ρ through
the same δ/μ machinery).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional

import numpy as np

from repro.core.baseline import naive_quantities
from repro.core.quantities import DPCQuantities, TieBreak
from repro.geometry.distance import pairwise_blocks
from repro.indexes.base import DPCIndex
from repro.indexes.rtree import RTreeIndex

__all__ = ["StreamingDPC"]

#: Stored answers per stream: one per ``(dc, tie_break)``, the least
#: recently asked evicted first.
MAX_ANSWERS = 8


class StreamingDPC:
    """Exact DPC over an append-only point stream.

    Parameters
    ----------
    index_factory:
        Zero-argument callable producing a fresh unfitted index
        (default: STR R-tree).
    """

    def __init__(self, index_factory: Optional[Callable[[], DPCIndex]] = None):
        self.index_factory = index_factory or (lambda: RTreeIndex())
        self._index: Optional[DPCIndex] = None
        self._subscribers: list = []
        # (dc, tie_break) -> the last answer, which covers the first
        # len(answer) points; least recently asked first.
        self._answers: "OrderedDict[tuple, DPCQuantities]" = OrderedDict()
        #: Index builds from scratch: the first ``add`` fits, every later
        #: one ingests into that index (1 once the stream holds a point).
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

    def subscribe(self, callback: Callable[[DPCIndex], None]) -> Callable[[], None]:
        """Call ``callback(index_snapshot)`` after every :meth:`add`.

        This is how the serving layer keeps a hot snapshot of a stream:
        :meth:`repro.serving.service.ClusteringService.attach_stream`
        registers a callback that atomically publishes each snapshot (and
        invalidates the replaced snapshot's cache entries).  Returns an
        unsubscribe function.
        """
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

        return unsubscribe

    # -- stream ingestion -----------------------------------------------------

    def add(self, points: np.ndarray) -> "StreamingDPC":
        """Append one point or a batch of points to the stream.

        The first batch goes to ``fit`` and later ones to ``add_points``,
        which reject an empty batch, one of another width, and NaN or ±inf
        coordinates with a ``ValueError`` before anything changes: the
        stream and its subscribers then see nothing of the batch.
        """
        points = np.atleast_2d(points)
        if self._index is None:
            self._index = self.index_factory().fit(points)
            self.rebuild_count += 1
        else:
            self._index.add_points(points)
        for callback in tuple(self._subscribers):
            callback(self._index.snapshot_copy())
        return self

    @property
    def n(self) -> int:
        return 0 if self._index is None else self._index.n

    @property
    def n_buffered(self) -> int:
        """Points not yet folded into the index: always 0, every ``add``
        ingests its batch at once."""
        return 0

    def points(self) -> np.ndarray:
        """All stream points, in arrival order, as one array (the index's
        own points, not a copy)."""
        if self._index is None:
            raise ValueError("the stream is empty")
        return self._index.points

    # -- exact queries ----------------------------------------------------------

    def quantities(
        self, dc: float, tie_break: "str | TieBreak" = TieBreak.ID
    ) -> DPCQuantities:
        """Exact (ρ, δ, μ) over everything seen so far.

        The stream keeps its last answer per ``(dc, tie_break)`` and hands
        it out again while no point has arrived.  After an ingest, that
        answer goes to :meth:`~repro.indexes.base.DPCIndex.quantities_after_append`,
        which the tree families answer by *repairing* it: only ρ of the
        points near the new ones, and δ/μ of the points a change can reach,
        are computed again.  The repair is exact because the stream is
        append-only — no ρ falls, so a point can only gain denser
        neighbours among the new points and the old points whose ρ rose
        (see the method for the argument).  A first ask of a
        ``(dc, tie_break)``, or one evicted since, runs the full
        computation.  Answers returned earlier are never modified.

        Memory: one O(n) answer for each of the :data:`MAX_ANSWERS` most
        recently asked keys.
        """
        if self._index is None:
            raise ValueError("the stream is empty")
        key = (float(dc), str(TieBreak.coerce(tie_break)))
        prev = self._answers.get(key)
        if prev is None:
            answer = self._index.quantities(dc, tie_break)
        elif len(prev) == self._index.n:
            answer = prev
        else:
            answer = self._index.quantities_after_append(prev, len(prev))
        self._answers[key] = answer
        self._answers.move_to_end(key)
        if len(self._answers) > MAX_ANSWERS:
            self._answers.popitem(last=False)
        return answer

    def cluster(self, dc: float, tie_break: "str | TieBreak" = TieBreak.ID, **selection):
        """Convenience: full DPC over the current stream contents.

        Accepts the same selection/halo keywords as
        :meth:`repro.indexes.DPCIndex.cluster`.  The quantities come from
        :meth:`quantities`, so a kept answer is reused or repaired, never
        recomputed; the result equals ``index.cluster(dc, ...)``.
        """
        q = self.quantities(dc, tie_break)  # raises on an empty stream
        return self._index.cluster_from_quantities(q, **selection)

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
