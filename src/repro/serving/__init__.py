"""Serving layer: hot snapshots, request coalescing, exact result caching.

The paper makes one fitted index cheap to query for many ``dc``; this
package makes that amortisation *multi-tenant*: a
:class:`~repro.serving.snapshots.SnapshotStore` keeps named fitted indexes
hot (fit in-process, loaded via :mod:`repro.indexes.persist`, or published
by a :class:`~repro.extras.streaming.StreamingDPC` after every add), a :class:`~repro.serving.coalescer.RequestCoalescer` batches
concurrent requests through the multi-``dc`` kernels, and a
:class:`~repro.serving.cache.ResultCache` memoises exact results keyed on
content fingerprints.  :class:`~repro.serving.service.ClusteringService`
ties them together; :mod:`repro.serving.http` puts a stdlib HTTP/JSON
front-end on top (``python -m repro serve``).

Contract: every served response — cache hits and coalesced batches
included — is bit-identical to a direct ``quantities()``/``cluster()``
call on the same data, or fails fast with a typed
:class:`~repro.serving.errors.ServingError` (shed, deadline, dispatcher
crash) — never a hang.
"""

from repro.serving.cache import CacheStats, ResultCache, result_key
from repro.serving.coalescer import RequestCoalescer, ServeRequest
from repro.serving.errors import (
    DeadlineExceededError,
    DispatcherCrashError,
    LoadShedError,
    ServingError,
)
from repro.serving.http import ClusteringServer, make_server
from repro.serving.loadgen import LoadReport, run_load
from repro.serving.service import ClusteringService, ServeResult
from repro.serving.snapshots import Snapshot, SnapshotStore

__all__ = [
    "CacheStats",
    "ClusteringServer",
    "ClusteringService",
    "DeadlineExceededError",
    "DispatcherCrashError",
    "LoadReport",
    "LoadShedError",
    "RequestCoalescer",
    "ResultCache",
    "ServeRequest",
    "ServeResult",
    "ServingError",
    "Snapshot",
    "SnapshotStore",
    "make_server",
    "result_key",
    "run_load",
]
