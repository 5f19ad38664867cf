"""Named, fingerprinted, hot-swappable fitted-index snapshots.

The paper's workflow is *index once, query many times*; a serving process
extends that across requests and clients: a :class:`SnapshotStore` holds
fitted indexes under stable names, and every publish **atomically** replaces
the previous snapshot for that name.  A :class:`Snapshot` is an immutable
handle — name, the fitted :class:`~repro.indexes.base.DPCIndex`, its content
fingerprint (:func:`repro.indexes.persist.index_fingerprint`) and a
monotonically increasing version — so a request that resolved a snapshot
keeps a consistent view for its whole lifetime even if a newer fit lands
mid-flight.

Subscribers (the serving result cache, metrics) are notified of every swap
with both the new and the replaced snapshot, *after* the store switched —
by the time a subscriber runs, no new reader can resolve the old snapshot,
which is what makes "invalidate on swap" race-free (see
:meth:`repro.serving.cache.ResultCache.put`'s guard for the other half).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import faults
from repro.indexes.base import DPCIndex
from repro.indexes.registry import make_index
from repro.obs import metrics as obs_metrics

__all__ = ["Snapshot", "SnapshotStore"]


@dataclass(frozen=True)
class Snapshot:
    """An immutable handle on one published fitted index.

    ``fingerprint`` identifies the *content* (family + params + points):
    re-publishing the same data under the same config yields a new version
    but the same fingerprint, so caches keyed on it stay warm across
    no-op republishes.
    """

    name: str
    index: DPCIndex
    fingerprint: str
    version: int
    published_at: float = field(compare=False)

    @property
    def n(self) -> int:
        return self.index.n

    def info(self) -> Dict[str, Any]:
        """JSON-friendly summary (the ``GET /v1/snapshots`` row)."""
        return {
            "name": self.name,
            "index": self.index.name,
            "fingerprint": self.fingerprint,
            "version": self.version,
            "n": self.index.n,
            "dims": int(self.index.points.shape[1]),
            "metric": self.index.metric.name,
            "exact": self.index.exact,
            "published_at": self.published_at,
        }


#: ``callback(name, new_snapshot, old_snapshot_or_None)`` fired on publish/drop
#: (``new_snapshot`` is None for a drop).
SwapCallback = Callable[[str, Optional[Snapshot], Optional[Snapshot]], None]


class SnapshotStore:
    """Thread-safe registry of named snapshots with atomic hot-swap.

    All mutation happens under one lock; readers (:meth:`get`) take the
    same lock only for the dict lookup and then work with the immutable
    :class:`Snapshot`, so a swap can never hand out a half-replaced view.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._snapshots: Dict[str, Snapshot] = {}
        self._subscribers: List[SwapCallback] = []
        self._version = 0
        #: Swap callbacks that raised (swallowed; the swap itself is
        #: already durable by the time subscribers run).
        self.subscriber_errors = 0
        self.last_subscriber_error: Optional[str] = None

    # -- publishing -----------------------------------------------------------

    def publish(self, name: str, index: DPCIndex) -> Snapshot:
        """Atomically (re)bind ``name`` to a fitted ``index``.

        The fingerprint is computed *before* the swap (it hashes the point
        bytes); subscribers run after the swap, outside no lock — they see
        a store in which the new snapshot is already the only resolvable
        one for ``name``.
        """
        if not isinstance(index, DPCIndex):
            raise TypeError(f"expected a DPCIndex, got {type(index).__name__}")
        if not index.is_fitted:
            raise ValueError("cannot publish an unfitted index; call fit(points) first")
        fingerprint = index.fingerprint()
        # Chaos point: a publish that fails *here* fails before the swap —
        # the store still serves the last good snapshot, nothing is torn.
        faults.trip("snapshots.publish")
        obs_metrics.counter(
            "repro_snapshot_swaps_total", "Snapshot publishes (atomic name swaps)"
        ).inc()
        with self._lock:
            previous = self._snapshots.get(name)
            self._version += 1
            snapshot = Snapshot(
                name=name,
                index=index,
                fingerprint=fingerprint,
                version=self._version,
                published_at=time.time(),
            )
            self._snapshots[name] = snapshot
            subscribers = tuple(self._subscribers)
        self._notify(subscribers, name, snapshot, previous)
        return snapshot

    def _notify(self, callbacks: Tuple[Callable, ...], *args: Any) -> None:
        """Run subscriber callbacks; a raising subscriber is recorded, not
        propagated — by the time callbacks run the swap is already durable,
        and one broken metrics hook must not fail the publish (or starve
        the remaining subscribers, e.g. the cache invalidator)."""
        for callback in callbacks:
            try:
                callback(*args)
            except Exception as exc:
                with self._lock:
                    self.subscriber_errors += 1
                    self.last_subscriber_error = f"{type(exc).__name__}: {exc}"

    def fit(
        self,
        name: str,
        points: np.ndarray,
        index: "str | DPCIndex" = "kdtree",
        **index_params: Any,
    ) -> Snapshot:
        """Fit a fresh index over ``points`` and publish it under ``name``."""
        built = index if isinstance(index, DPCIndex) else make_index(index, **index_params)
        built.fit(np.ascontiguousarray(points, dtype=np.float64))
        return self.publish(name, built)

    def load(self, name: str, path: str, quarantine: bool = True) -> Snapshot:
        """Load a persisted index (:func:`repro.indexes.persist.load_index`)
        and publish it under ``name``; the on-disk fingerprint is verified
        during the load, so a corrupt payload never reaches the store.
        ``quarantine`` is passed through: ``False`` leaves a corrupt file
        where it is instead of renaming it to ``<path>.corrupt``."""
        from repro.indexes.persist import load_index

        return self.publish(name, load_index(path, quarantine=quarantine))

    def drop(self, name: str) -> None:
        """Remove ``name``; subscribers are told so caches can purge."""
        with self._lock:
            previous = self._snapshots.pop(name, None)
            subscribers = tuple(self._subscribers)
        if previous is not None:
            for callback in subscribers:
                callback(name, None, previous)

    # -- reading --------------------------------------------------------------

    def get(self, name: str) -> Snapshot:
        with self._lock:
            try:
                return self._snapshots[name]
            except KeyError:
                raise KeyError(
                    f"no snapshot named {name!r}; available: {sorted(self._snapshots)}"
                ) from None

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._snapshots))

    def is_current(self, snapshot: Snapshot) -> bool:
        """Is this exact snapshot object still the live one for its name?

        The serving cache calls this under its own lock right before
        inserting a computed result: a snapshot replaced mid-computation
        fails the check, so a slow in-flight batch can never re-populate
        entries that the swap just invalidated.
        """
        with self._lock:
            return self._snapshots.get(snapshot.name) is snapshot

    def holds_fingerprint(self, fingerprint: str) -> bool:
        """Does any live snapshot (under any name) serve this content?

        Cache invalidation consults this on swap: entries are keyed by
        fingerprint, so they stay valid as long as *some* snapshot still
        serves that exact content, even if it was another name's swap.
        """
        with self._lock:
            return any(s.fingerprint == fingerprint for s in self._snapshots.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._snapshots)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._snapshots

    # -- subscriptions --------------------------------------------------------

    def subscribe(self, callback: SwapCallback) -> Callable[[], None]:
        """Register a swap/drop observer; returns an unsubscribe function."""
        with self._lock:
            self._subscribers.append(callback)

        def unsubscribe() -> None:
            with self._lock:
                if callback in self._subscribers:
                    self._subscribers.remove(callback)

        return unsubscribe

    def describe(self) -> List[Dict[str, Any]]:
        with self._lock:
            snapshots = list(self._snapshots.values())
        return [snapshot.info() for snapshot in sorted(snapshots, key=lambda s: s.name)]
