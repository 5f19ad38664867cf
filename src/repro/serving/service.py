"""The clustering service: snapshots + coalescing dispatch + result cache.

:class:`ClusteringService` is the one object a front-end (HTTP, CLI, a
benchmark harness) talks to.  Its contract, property-tested in
``tests/properties/test_prop_serving.py``:

* **Exactness** — every response (cache hit, coalesced batch, serial
  dispatch alike) is bit-identical to a direct ``index.quantities(dc)`` /
  ``index.cluster(dc, ...)`` call on the snapshot's data.
* **Point-in-time consistency** — a request is answered entirely from the
  snapshot it resolved at admission; a hot swap mid-flight never mixes old
  and new data in one response.
* **No stale serving** — after a snapshot swap (refit, streaming ingest),
  no response derived from the replaced data is served to *new* requests:
  they resolve the new snapshot, whose fingerprint keys different cache
  entries; the old fingerprint's entries are purged on swap, and in-flight
  computations for the old snapshot are barred from re-inserting them
  (the ``guard`` handshake with :meth:`ResultCache.put`).
* **Fail fast, never hang** — a request either completes (bit-identical)
  or its future fails promptly with a typed
  :class:`~repro.serving.errors.ServingError`: shed at admission when the
  dispatch queue is full (``max_queue``), expired when its per-request
  deadline (``timeout_s``) passes before dispatch, failed fast when the
  dispatcher crashes (and is restarted) underneath it.  Cache hits bypass
  the queue entirely, so exact cached results keep flowing even while the
  service sheds; a failed stream publish rolls back its ordering token and
  keeps the last good snapshot serving.  :meth:`health` summarises all of
  it as ``healthy`` / ``degraded`` / ``shedding``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.core.quantities import TieBreak
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.obs import trace as obs_trace
from repro.serving.cache import ResultCache, result_key
from repro.serving.coalescer import OPS, RequestCoalescer, ServeRequest
from repro.serving.errors import (
    DeadlineExceededError,
    LoadShedError,
    ServingError,
)
from repro.serving.snapshots import Snapshot, SnapshotStore

__all__ = ["ServeResult", "ClusteringService"]

#: Dispatch policies: "serial" = one engine call per request (max_batch=1),
#: "coalesce" = batch concurrent requests through the multi-dc kernels.
DISPATCH_MODES = ("serial", "coalesce")


@dataclass
class ServeResult:
    """A served value plus how it was produced.

    ``value`` is a :class:`~repro.core.quantities.DPCQuantities` (op
    ``"quantities"``) or :class:`~repro.core.quantities.DPCResult` (op
    ``"cluster"``); ``meta`` holds ``fingerprint``, ``snapshot_version``,
    ``cache_hit``, ``batch_size``/``batch_dcs``/``coalesced`` (engine
    dispatches only) and ``elapsed_ms``.
    """

    value: Any
    meta: Dict[str, Any]


class ClusteringService:
    """Keeps fitted indexes hot and serves exact DPC queries against them."""

    def __init__(
        self,
        store: Optional[SnapshotStore] = None,
        cache: Optional[ResultCache] = None,
        coalescer: Optional[RequestCoalescer] = None,
        dispatch: str = "coalesce",
        cache_entries: int = 256,
        cache_ttl: Optional[float] = None,
        max_batch: int = 64,
        linger_ms: float = 2.0,
        max_queue: Optional[int] = None,
        default_timeout_s: Optional[float] = None,
        workers: int = 0,
        heartbeat_s: float = 0.25,
        batch_timeout_s: float = 30.0,
    ) -> None:
        if dispatch not in DISPATCH_MODES:
            raise ValueError(f"dispatch must be one of {DISPATCH_MODES}, got {dispatch!r}")
        if default_timeout_s is not None and not default_timeout_s > 0:
            raise ValueError(
                f"default_timeout_s must be positive, got {default_timeout_s}"
            )
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.dispatch = dispatch
        self.default_timeout_s = default_timeout_s
        self.store = store if store is not None else SnapshotStore()
        self.cache = cache if cache is not None else ResultCache(cache_entries, cache_ttl)
        # The replicated tier: N supervised worker processes sharing
        # snapshot images over shared memory.  ``workers=0`` (default)
        # keeps the single-process behaviour; the pool degrades to it
        # anyway whenever it cannot serve, so exactness never depends on
        # worker health.
        self.pool = None
        if workers > 0:
            from repro.serving.workers import WorkerPool

            self.pool = WorkerPool(
                self.store,
                workers=workers,
                heartbeat_s=heartbeat_s,
                batch_timeout_s=batch_timeout_s,
            )
        executor = self.pool.submit if self.pool is not None else None
        if coalescer is not None:
            self.coalescer = coalescer
            if executor is not None and self.coalescer.executor is None:
                self.coalescer.executor = executor
        elif dispatch == "serial":
            self.coalescer = RequestCoalescer(
                max_batch=1, linger_ms=0.0, max_queue=max_queue, executor=executor
            )
        else:
            self.coalescer = RequestCoalescer(
                max_batch=max_batch,
                linger_ms=linger_ms,
                max_queue=max_queue,
                executor=executor,
            )
        self._draining = False
        self._unsubscribe = self.store.subscribe(self._on_swap)
        self._streams: Dict[str, Any] = {}
        # Last publish failure per snapshot name (streams swallow callback
        # publish errors after rolling back — record them for health()).
        self._publish_errors: Dict[str, str] = {}
        self._publish_errors_lock = threading.Lock()

    # -- snapshot lifecycle ---------------------------------------------------

    def fit_snapshot(
        self, name: str, points: np.ndarray, index: str = "kdtree", **index_params: Any
    ) -> Snapshot:
        """Fit an index over ``points`` in-process and publish it."""
        return self.store.fit(name, points, index=index, **index_params)

    def load_snapshot(self, name: str, path: str, quarantine: bool = True) -> Snapshot:
        """Load a persisted index from ``path`` and publish it.

        ``serve --load`` keeps the default: a corrupt payload is renamed to
        ``<path>.corrupt`` so a crash-looping restart fails cleanly.  The
        HTTP publish route passes ``False``: a path a client names is
        never renamed.
        """
        return self.store.load(name, path, quarantine=quarantine)

    def drop_snapshot(self, name: str) -> None:
        """Remove a snapshot; a stream attached under ``name`` is detached
        first, so a later ingest cannot resurrect the dropped name."""
        self.detach_stream(name)
        self.store.drop(name)

    def attach_stream(self, name: str, stream: Any) -> Snapshot:
        """Serve a :class:`~repro.extras.streaming.StreamingDPC` under ``name``.

        Every :meth:`~repro.extras.streaming.StreamingDPC.add` atomically
        publishes a fresh frozen snapshot of the whole stream (and, through
        the swap subscription, invalidates the replaced fingerprint's cache
        entries), so the served snapshot never lags the stream.

        Returns the initially published snapshot; the stream must hold at
        least one point.  Re-attaching a name replaces the previous
        stream; :meth:`drop_snapshot` and :meth:`close` detach.
        """
        if stream.index is None:
            raise ValueError("cannot attach an empty stream; add points first")
        self.detach_stream(name)  # a replaced stream must stop publishing

        # Monotonic, detachable publisher.  The initial publish below and
        # the stream callbacks (which fire on the producer's thread) race;
        # ordering by the point count of the published index guarantees an
        # older snapshot can never overwrite a newer one, since every add
        # grows it.  The same lock gates detachment: once detach flips
        # `active`, no already-captured callback can republish a name after
        # drop_snapshot removed it.
        guard = threading.Lock()
        latest = -1
        active = True

        def publish(index: Any, reraise: bool = False) -> Optional[Snapshot]:
            nonlocal latest
            with guard:
                if not active or index.n <= latest:
                    return None
                previous_n = latest
                latest = index.n
                try:
                    snapshot = self.store.publish(name, index)
                except BaseException as exc:
                    # Failed before the swap: the last good snapshot still
                    # serves.  Roll the ordering token back so a *later*
                    # stream event (which republishes the whole state) is
                    # not mistaken for stale and retries the publish.
                    latest = previous_n
                    self._record_publish_error(name, exc)
                    if reraise:
                        raise
                    return None
                self._clear_publish_error(name)
                return snapshot

        unsubscribe = stream.subscribe(publish)

        def detach() -> None:
            nonlocal active
            with guard:
                active = False
            unsubscribe()

        self._streams[name] = detach
        # The initial publish re-raises: attach is a synchronous API call
        # and the caller must learn the snapshot never went live.  Callback
        # publishes (producer thread, no caller to tell) record instead.
        try:
            snapshot = publish(stream.index, reraise=True)
        except BaseException:
            self.detach_stream(name)  # failed attach must not keep publishing
            raise
        return snapshot if snapshot is not None else self.store.get(name)

    def detach_stream(self, name: str) -> None:
        """Stop an attached stream from publishing under ``name`` (no-op if
        none is attached); the current snapshot stays served."""
        unsubscribe = self._streams.pop(name, None)
        if unsubscribe is not None:
            unsubscribe()

    def _record_publish_error(self, name: str, exc: BaseException) -> None:
        with self._publish_errors_lock:
            self._publish_errors[name] = f"{type(exc).__name__}: {exc}"

    def _clear_publish_error(self, name: str) -> None:
        with self._publish_errors_lock:
            self._publish_errors.pop(name, None)

    def _on_swap(self, name: str, new: Optional[Snapshot], old: Optional[Snapshot]) -> None:
        if old is None:
            return
        # Same fingerprint ⇒ same answers ⇒ the warm entries stay valid;
        # likewise when another live snapshot (any name) still serves the
        # replaced content — keys are content-addressed, so those entries
        # remain exactly right for it.
        if new is not None and new.fingerprint == old.fingerprint:
            return
        if self.store.holds_fingerprint(old.fingerprint):
            return
        self.cache.invalidate_fingerprint(old.fingerprint)

    # -- request path ---------------------------------------------------------

    def submit(
        self,
        name: str,
        op: str,
        dc: float,
        tie_break: "str | TieBreak" = TieBreak.ID,
        n_centers: Optional[int] = None,
        rho_min: Optional[float] = None,
        delta_min: Optional[float] = None,
        halo: bool = False,
        use_cache: bool = True,
        timeout_s: Optional[float] = None,
    ) -> "Future[ServeResult]":
        """Admit one request; returns a future resolving to a :class:`ServeResult`.

        The snapshot is resolved *now* — this request is answered from it
        even if a swap lands before the engine runs.

        The returned future never hangs: it resolves with the result or
        fails with a typed error — a
        :class:`~repro.serving.errors.LoadShedError` when admission is
        refused (queue full), a
        :class:`~repro.serving.errors.DeadlineExceededError` when
        ``timeout_s`` (default :attr:`default_timeout_s`) expires before
        dispatch, a :class:`~repro.serving.errors.DispatcherCrashError`
        when the dispatcher died mid-batch.  Cache hits resolve before
        admission, so they are served even while shedding.
        """
        if op not in OPS:
            raise ValueError(f"op must be one of {OPS}, got {op!r}")
        snapshot = self.store.get(name)
        tie_break = TieBreak.coerce(tie_break)
        started = time.perf_counter()
        key = result_key(
            snapshot.fingerprint, op, dc, tie_break.value,
            n_centers=n_centers, rho_min=rho_min, delta_min=delta_min, halo=halo,
        )
        outer: "Future[ServeResult]" = Future()
        root_span = obs_trace.begin_span(
            "serve.request", snapshot=name, op=op, dc=float(dc)
        )
        base_meta = {
            "snapshot": name,
            "fingerprint": snapshot.fingerprint,
            "snapshot_version": snapshot.version,
            "op": op,
        }
        if root_span.trace_id is not None:
            base_meta["trace_id"] = root_span.trace_id

        def finalize(outcome: str) -> None:
            """Close the request's root span and record request metrics."""
            root_span.set("outcome", outcome)
            root_span.finish()
            if obs_runtime._ENABLED:
                obs_metrics.counter(
                    "repro_serving_requests_total",
                    "Requests served, by operation and outcome",
                    ("op", "outcome"),
                ).labels(op, outcome).inc()
                obs_metrics.histogram(
                    "repro_serving_request_seconds",
                    "End-to-end request latency (admission to resolution)",
                ).observe(time.perf_counter() - started)

        def outcome_of(exc: BaseException) -> str:
            if isinstance(exc, LoadShedError):
                return "shed"
            if isinstance(exc, DeadlineExceededError):
                return "expired"
            return "error"

        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                finalize("cache_hit")
                outer.set_result(
                    ServeResult(
                        cached,
                        {
                            **base_meta,
                            "cache_hit": True,
                            "elapsed_ms": (time.perf_counter() - started) * 1e3,
                        },
                    )
                )
                return outer
        request = ServeRequest(
            snapshot=snapshot,
            op=op,
            dc=dc,
            tie_break=tie_break,
            n_centers=n_centers,
            rho_min=rho_min,
            delta_min=delta_min,
            halo=halo,
            timeout_s=timeout_s if timeout_s is not None else self.default_timeout_s,
        )
        request.span = root_span if root_span.trace_id is not None else None

        def finish(inner: Future) -> None:
            exc = inner.exception()
            if exc is not None:
                finalize(outcome_of(exc))
                outer.set_exception(exc)
                return
            value, batch_meta = inner.result()
            if use_cache:
                # guard: refuse the insert if the snapshot was swapped while
                # we computed — the invalidation already happened and must win.
                self.cache.put(key, value, guard=lambda: self.store.is_current(snapshot))
            finalize("ok")
            outer.set_result(
                ServeResult(
                    value,
                    {
                        **base_meta,
                        **batch_meta,
                        "cache_hit": False,
                        "elapsed_ms": (time.perf_counter() - started) * 1e3,
                    },
                )
            )

        try:
            self.coalescer.submit(request).add_done_callback(finish)
        except ServingError as exc:
            # Admission refused (load shed).  Surface it through the future
            # so every caller path — blocking helpers, HTTP front-end, load
            # generator — observes one uniform contract.
            finalize(outcome_of(exc))
            outer.set_exception(exc)
        return outer

    def quantities(self, name: str, dc: float, **kwargs: Any) -> ServeResult:
        """Blocking ``quantities`` request (see :meth:`submit`)."""
        return self.submit(name, "quantities", dc, **kwargs).result()

    def cluster(self, name: str, dc: float, **kwargs: Any) -> ServeResult:
        """Blocking ``cluster`` request (see :meth:`submit`)."""
        return self.submit(name, "cluster", dc, **kwargs).result()

    # -- observability / lifecycle --------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """A point-in-time copy throughout — callers may mutate or serialise
        it freely while the dispatcher keeps counting."""
        return {
            "dispatch": self.dispatch,
            "snapshots": self.store.describe(),
            "cache": self.cache.describe(),
            "coalescer": self.coalescer.stats_snapshot(),
            "health": self.health(),
        }

    def health(self) -> Dict[str, Any]:
        """Service health: ``healthy`` / ``degraded`` / ``shedding`` /
        ``draining``.

        ``draining`` — a graceful shutdown is flushing in-flight requests;
        new admissions are refused.  ``shedding`` — admission control is
        refusing new requests right now (cache hits still serve).
        ``degraded`` — everything is being served exactly, but not on the
        happy path: an execution backend fell down its degradation ladder
        (process → threads → serial), the worker pool fell back to
        in-process dispatch (or has a worker down), or a stream's snapshot
        publish failed and the last good snapshot is serving.  Per-snapshot
        and per-worker detail rides along for ``healthz``.
        """
        with self._publish_errors_lock:
            publish_errors = dict(self._publish_errors)
        snapshots: Dict[str, Any] = {}
        any_degraded = False
        for name in self.store.names():
            try:
                snapshot = self.store.get(name)
            except KeyError:  # dropped while we iterate
                continue
            execution = snapshot.index.execution_health()
            publish_error = publish_errors.get(name)
            degraded = bool(publish_error) or bool(execution and execution["degraded"])
            any_degraded = any_degraded or degraded
            snapshots[name] = {
                "state": "degraded" if degraded else "healthy",
                "version": snapshot.version,
                "n": snapshot.n,
                "execution": execution,
                "publish_error": publish_error,
            }
        shedding = self.coalescer.shedding
        coalescer_stats = self.coalescer.stats_snapshot()
        pool_health = self.pool.health() if self.pool is not None else None
        if pool_health is not None and pool_health["state"] == "degraded":
            any_degraded = True
        draining = self._draining or (
            pool_health is not None and pool_health["state"] == "draining"
        )
        health = {
            "state": (
                "draining"
                if draining
                else "shedding"
                if shedding
                else "degraded"
                if any_degraded
                else "healthy"
            ),
            "shedding": shedding,
            "draining": draining,
            "queue_depth": self.coalescer.queue_depth(),
            "dispatcher_restarts": coalescer_stats["dispatcher_restarts"],
            "shed": coalescer_stats["shed"],
            "expired": coalescer_stats["expired"],
            "subscriber_errors": self.store.subscriber_errors,
            "snapshots": snapshots,
        }
        if pool_health is not None:
            health["workers"] = pool_health
        return health

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Gracefully wind the service down: refuse new requests, flush
        everything in flight, stop the worker pool, detach streams.

        Returns ``True`` for a clean drain (all in-flight requests resolved
        within ``timeout_s``); ``False`` when the deadline forced shutdown.
        Idempotent with :meth:`close` — drain ends in a closed service.
        """
        self._draining = True
        deadline = time.perf_counter() + max(0.0, float(timeout_s))
        clean = self.coalescer.drain(timeout_s=timeout_s)
        if self.pool is not None:
            remaining = max(0.0, deadline - time.perf_counter())
            clean = self.pool.drain(timeout_s=remaining) and clean
        if obs_runtime._ENABLED:
            obs_metrics.counter(
                "repro_serving_drains_total",
                "Graceful drains completed, by outcome",
                ("outcome",),
            ).labels("clean" if clean else "forced").inc()
        self.close()
        return clean

    def close(self) -> None:
        """Stop the dispatcher and the worker pool, detach streams and
        store hooks (idempotent)."""
        self.coalescer.close()
        if self.pool is not None:
            self.pool.close()
        for name in list(self._streams):
            self.detach_stream(name)
        self._unsubscribe()

    def __enter__(self) -> "ClusteringService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
