"""Coalesce concurrent requests into the batched multi-``dc`` kernels.

A naive server answers each request with one ``index.cluster(dc)`` call; N
concurrent clients cost N full engine runs.  But PR 1–3 made the engine
*batch-shaped*: ``quantities_multi`` answers a whole grid of cut-offs
against one fitted structure far cheaper than per-``dc`` serial calls (one
flattened-tree image, one all-orders annotation pass, one sharded task
wave).  The :class:`RequestCoalescer` exploits that: requests queue up, a
single dispatcher thread drains them in small time windows (``linger_ms``),
groups them by (snapshot, tie-break), deduplicates the cut-offs and runs
**one** ``quantities_multi`` per group.  ``cluster`` requests then finish
with :meth:`~repro.indexes.base.DPCIndex.cluster_from_quantities` — the
exact tail of ``cluster()`` — so every response is bit-identical to the
direct per-request call, which is the serving contract
(``tests/properties/test_prop_serving.py``).

A single dispatcher thread is also what makes the engine safe to share:
index probe counters and lazy per-fit caches are only ever touched from one
thread, regardless of how many clients are blocked on futures.

Fault tolerance
---------------
The dispatcher is *supervised*: an exception escaping a dispatch cycle
(including injected chaos faults at the ``coalescer.dispatch`` point) fails
every unresolved future of the in-flight batch with a typed
:class:`~repro.serving.errors.DispatcherCrashError` — futures are never
left hanging — and the loop restarts for the next batch; a hard thread
death is additionally healed by :meth:`RequestCoalescer.submit`, which
respawns a dead dispatcher.  Admission is bounded (``max_queue``): when the
backlog is full, :meth:`submit` sheds with a
:class:`~repro.serving.errors.LoadShedError` instead of growing queue
latency without bound.  Requests carry optional deadlines
(``timeout_s``): a request whose deadline passed while it queued is failed
fast with :class:`~repro.serving.errors.DeadlineExceededError` instead of
riding (and slowing) the coalesced engine call of its batch-mates.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import faults
from repro.core.quantities import TieBreak, check_dc
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.obs import trace as obs_trace
from repro.serving.errors import (
    DeadlineExceededError,
    DispatcherCrashError,
    LoadShedError,
    ServiceDrainingError,
    ServingError,
    WorkerBatchError,
    WorkerPoolUnavailableError,
)
from repro.serving.snapshots import Snapshot

__all__ = ["ServeRequest", "RequestCoalescer"]

#: Request operations the engine knows how to batch.
OPS = ("quantities", "cluster")


@dataclass
class ServeRequest:
    """One in-flight request, resolved against a specific snapshot.

    The snapshot handle (not its name) rides along: whatever the store does
    while this request queues, it is answered from the index it resolved —
    point-in-time consistency, no torn reads across a hot swap.
    """

    snapshot: Snapshot
    op: str
    dc: float
    tie_break: TieBreak = TieBreak.ID
    n_centers: Optional[int] = None
    rho_min: Optional[float] = None
    delta_min: Optional[float] = None
    halo: bool = False
    #: Optional per-request deadline: ``timeout_s`` seconds from admission.
    #: The dispatcher fails an expired request fast instead of dispatching.
    timeout_s: Optional[float] = None
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)
    deadline: Optional[float] = field(default=None, init=False)
    #: Root trace span of the request (set by the service).  The dispatcher
    #: runs on its own thread, so contextvars cannot carry the trace across;
    #: the span rides the request instead and is re-established with
    #: ``obs.trace.use_span`` at dispatch.
    span: Any = field(default=None, init=False, repr=False)
    #: Set once the request was handed to the replicated executor: its
    #: future is now owned by the worker pool (resolved from a thread the
    #: pool's completion callback starts), so the dispatcher's end-of-cycle
    #: safety net must not fail it as "unresolved".
    detached: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"op must be one of {OPS}, got {self.op!r}")
        # Validate at admission: the engine would reject a bad dc too, but
        # only after the whole coalesced batch reached quantities_multi —
        # one malformed request must never fail its batch-mates.
        self.dc = check_dc(self.dc)
        self.tie_break = TieBreak.coerce(self.tie_break)
        if self.timeout_s is not None:
            self.timeout_s = float(self.timeout_s)
            if not self.timeout_s > 0:  # "not >" also catches NaN
                raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
            self.deadline = self.enqueued_at + self.timeout_s

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (time.perf_counter() if now is None else now) >= self.deadline

    def group_key(self) -> Tuple:
        """Requests sharing this key can ride one ``quantities_multi`` call."""
        return (id(self.snapshot), self.tie_break.value)


class RequestCoalescer:
    """Single-threaded batching dispatcher over the multi-``dc`` engine.

    Parameters
    ----------
    max_batch:
        Upper bound on requests drained per dispatch cycle.  ``1`` degrades
        to per-request serial dispatch — same thread, same queue overhead,
        no batching — which is exactly the honest baseline the load
        benchmark compares against.
    linger_ms:
        After the first request of a cycle arrives, how long to keep the
        window open for more.  ``0`` only picks up requests that are
        *already* queued (pure backlog coalescing, no added latency).
    max_queue:
        Admission bound: when this many requests are already queued but
        undispatched, :meth:`submit` sheds with a
        :class:`~repro.serving.errors.LoadShedError` instead of enqueueing.
        ``0`` sheds everything (drain mode); ``None`` (default) admits
        unboundedly, the pre-robustness behaviour.
    executor:
        Optional replicated-execution hook: ``executor(snapshot, dcs,
        tie_break) -> Future`` resolving to the ``quantities_multi``
        payload (the :class:`~repro.serving.workers.WorkerPool`'s
        ``submit``).  When set, coalesced groups are handed to it and the
        dispatcher moves straight on to the next batch — groups compute
        concurrently across worker replicas.  A synchronous
        :class:`~repro.serving.errors.ServingError` from the hook, or a
        future failing with
        :class:`~repro.serving.errors.WorkerPoolUnavailableError` /
        :class:`~repro.serving.errors.WorkerBatchError`, degrades that
        group to the in-process engine call (the pre-replication path) —
        bit-identical either way, so pool trouble is never client-visible.
    """

    def __init__(
        self,
        max_batch: int = 64,
        linger_ms: float = 2.0,
        max_queue: Optional[int] = None,
        executor: Optional[Any] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if linger_ms < 0:
            raise ValueError(f"linger_ms must be >= 0, got {linger_ms}")
        if max_queue is not None and max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.max_batch = int(max_batch)
        self.linger_ms = float(linger_ms)
        self.max_queue = None if max_queue is None else int(max_queue)
        self.executor = executor
        self._queue: "queue.SimpleQueue[Optional[ServeRequest]]" = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._draining = False
        self._depth = 0  # queued-but-undispatched requests (under _lock)
        self._outstanding = 0  # admitted requests whose futures are unresolved
        # Serialises in-process engine calls on the shared index: with an
        # executor, the dispatcher thread (sync fallback) and short-lived
        # fallback threads (async fallback) may otherwise race the index's
        # probe counters and lazy per-fit caches.
        self._inline_lock = threading.Lock()
        # observability ("shed" is written under _lock by submitters, the
        # rest only by the dispatcher thread)
        self.stats: Dict[str, int] = {
            "requests": 0,
            "batches": 0,
            "engine_calls": 0,
            "coalesced_requests": 0,
            "deduped_dcs": 0,
            "largest_batch": 0,
            "shed": 0,
            "expired": 0,
            "dispatcher_restarts": 0,
            "executor_batches": 0,
            "executor_fallbacks": 0,
        }

    def stats_snapshot(self) -> Dict[str, int]:
        """A point-in-time copy of the counters, safe against concurrent
        dispatcher mutation (scrapers must never hold the live dict)."""
        with self._lock:
            return dict(self.stats)

    def _depth_gauge(self, depth: int) -> None:
        if obs_runtime._ENABLED:
            obs_metrics.gauge(
                "repro_serving_queue_depth",
                "Requests admitted but not yet picked up by the dispatcher",
            ).set(depth)

    # -- client side ----------------------------------------------------------

    def queue_depth(self) -> int:
        """Requests admitted but not yet picked up by the dispatcher."""
        with self._lock:
            return self._depth

    @property
    def shedding(self) -> bool:
        """Is admission control currently refusing new requests?"""
        with self._lock:
            return self.max_queue is not None and self._depth >= self.max_queue

    def submit(self, request: ServeRequest) -> Future:
        """Enqueue; the returned future resolves to ``(value, meta)``.

        ``value`` is a :class:`~repro.core.quantities.DPCQuantities` or
        :class:`~repro.core.quantities.DPCResult`; ``meta`` records the
        batch this request rode in.  Raises
        :class:`~repro.serving.errors.LoadShedError` when the admission
        queue is full — fail at the door, with a retry hint, rather than
        grow unbounded latency for everyone already queued.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("coalescer is closed")
            if self._draining:
                self.stats["shed"] += 1
                if obs_runtime._ENABLED:
                    obs_metrics.counter(
                        "repro_serving_shed_total",
                        "Requests refused at admission (queue full)",
                    ).inc()
                raise ServiceDrainingError()
            if self.max_queue is not None and self._depth >= self.max_queue:
                self.stats["shed"] += 1
                if obs_runtime._ENABLED:
                    obs_metrics.counter(
                        "repro_serving_shed_total",
                        "Requests refused at admission (queue full)",
                    ).inc()
                raise LoadShedError(
                    f"dispatch queue is full ({self._depth} queued, "
                    f"max_queue={self.max_queue}); retry later",
                    retry_after_s=max(0.05, self.linger_ms / 1000.0 * 4),
                )
            # Supervision, half two: a dispatcher thread killed by a hard
            # failure (the supervised loop catches ordinary exceptions) is
            # respawned on the next submit, so one crash never turns every
            # later request into a hang.
            if self._thread is None or not self._thread.is_alive():
                if self._thread is not None:
                    self.stats["dispatcher_restarts"] += 1
                self._thread = threading.Thread(
                    target=self._run, name="repro-serve-dispatch", daemon=True
                )
                self._thread.start()
            # Enqueue under the lock: close() also holds it to set _closed
            # and append the shutdown sentinel, so a request can never land
            # behind the sentinel in a dead queue (its future would hang).
            self._depth += 1
            self._depth_gauge(self._depth)
            self._outstanding += 1
            self._queue.put(request)
        # Outside the lock: a done callback may fire immediately (it takes
        # the lock itself to decrement the outstanding counter).
        request.future.add_done_callback(self._note_done)
        return request.future

    def _note_done(self, _future: Future) -> None:
        with self._lock:
            self._outstanding -= 1
            if self._outstanding <= 0:
                self._cond.notify_all()

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Stop admitting, wait for every in-flight future, then close.

        New submits fail with
        :class:`~repro.serving.errors.ServiceDrainingError` (a 503 with
        ``Retry-After`` at the HTTP layer) the moment this is called;
        already-admitted requests are flushed to completion.  Returns
        ``True`` when everything resolved within ``timeout_s`` (a clean
        drain), ``False`` when the deadline forced the close with futures
        still unresolved (those fail with ``"coalescer closed"``).
        """
        with self._lock:
            if self._closed:
                return True
            self._draining = True
        deadline = time.perf_counter() + max(0.0, float(timeout_s))
        clean = True
        with self._lock:
            while self._outstanding > 0:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    clean = False
                    break
                self._cond.wait(remaining)
        self.close()
        return clean

    def close(self) -> None:
        """Stop the dispatcher; queued-but-unprocessed requests error out."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
            self._queue.put(None)
        if thread is not None:
            thread.join(timeout=10.0)

    def __enter__(self) -> "RequestCoalescer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- dispatcher side ------------------------------------------------------

    def _run(self) -> None:
        while True:
            first = self._queue.get()
            if first is None:
                self._drain_after_close()
                return
            batch = [first]
            deadline = time.perf_counter() + self.linger_ms / 1000.0
            stop = False
            while len(batch) < self.max_batch:
                remaining = deadline - time.perf_counter()
                try:
                    item = (
                        self._queue.get_nowait()
                        if remaining <= 0
                        else self._queue.get(timeout=remaining)
                    )
                except queue.Empty:
                    break
                if item is None:
                    stop = True
                    break
                batch.append(item)
            with self._lock:
                self._depth -= len(batch)
                self._depth_gauge(self._depth)
            # Supervision, half one: a dispatch cycle that dies (engine bug,
            # injected chaos fault, anything) must not kill the loop with
            # futures in hand.  Fail the whole in-flight batch fast with a
            # typed, retryable error and keep dispatching.
            try:
                self._dispatch(batch)
            except BaseException as exc:
                if isinstance(exc, (SystemExit, KeyboardInterrupt)):
                    raise
                self.stats["dispatcher_restarts"] += 1
                self._fail_unresolved(batch, exc)
            else:
                # Safety net: _dispatch resolves every future on all paths
                # today, but "never hang" is a contract, not a hope.
                self._fail_unresolved(batch, None)
            if stop:
                self._drain_after_close()
                return

    @staticmethod
    def _fail_unresolved(
        batch: List[ServeRequest], cause: Optional[BaseException]
    ) -> None:
        for request in batch:
            future = request.future
            if request.detached or future.done() or future.cancelled():
                continue
            error = DispatcherCrashError(
                "dispatcher crashed mid-batch; request failed fast and is "
                "safe to retry"
            )
            if cause is not None:
                error.__cause__ = cause
            future.set_exception(error)

    def _drain_after_close(self) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is None:
                continue
            with self._lock:
                self._depth -= 1
                self._depth_gauge(self._depth)
            if not item.future.cancelled():
                item.future.set_exception(RuntimeError("coalescer closed"))

    def _dispatch(self, batch: List[ServeRequest]) -> None:
        # Chaos point: an exception here is exactly a dispatcher crash, so
        # it rides the supervised path in _run (fail batch fast, restart).
        faults.trip("coalescer.dispatch")
        self.stats["requests"] += len(batch)
        self.stats["batches"] += 1
        self.stats["largest_batch"] = max(self.stats["largest_batch"], len(batch))
        if len(batch) > 1:
            self.stats["coalesced_requests"] += len(batch)
        record = obs_runtime._ENABLED
        if record:
            obs_metrics.counter(
                "repro_coalescer_batches_total", "Dispatch cycles executed"
            ).inc()
            obs_metrics.histogram(
                "repro_coalescer_batch_size",
                "Requests drained per dispatch cycle",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128),
            ).observe(len(batch))
        # Deadline check at dispatch time: an expired request is failed fast
        # instead of riding (and slowing) its batch-mates' engine call.
        now = time.perf_counter()
        live: List[ServeRequest] = []
        for request in batch:
            if record:
                obs_metrics.histogram(
                    "repro_serving_queue_wait_seconds",
                    "Time a request spent queued before dispatch",
                ).observe(max(0.0, now - request.enqueued_at))
            if request.expired(now):
                self.stats["expired"] += 1
                if record:
                    obs_metrics.counter(
                        "repro_serving_expired_total",
                        "Requests whose deadline passed while queued",
                    ).inc()
                if not request.future.cancelled():
                    request.future.set_exception(
                        DeadlineExceededError(
                            f"deadline exceeded before dispatch "
                            f"(timeout_s={request.timeout_s})"
                        )
                    )
            else:
                live.append(request)
        batch = live
        if not batch:
            return
        groups: "Dict[Tuple, List[ServeRequest]]" = {}
        for request in batch:
            groups.setdefault(request.group_key(), []).append(request)
        for group in groups.values():
            self._dispatch_group(group)

    def _dispatch_group(self, group: List[ServeRequest]) -> None:
        """One engine call for every distinct ``dc`` in the group."""
        index = group[0].snapshot.index
        tie_break = group[0].tie_break
        dcs = list(dict.fromkeys(request.dc for request in group))
        self.stats["engine_calls"] += 1
        self.stats["deduped_dcs"] += len(group) - len(dcs)
        if obs_runtime._ENABLED:
            obs_metrics.counter(
                "repro_coalescer_engine_calls_total", "quantities_multi engine calls"
            ).inc()
            if len(group) - len(dcs):
                obs_metrics.counter(
                    "repro_coalescer_deduped_dcs_total",
                    "Requests answered from a batch-mate's identical dc",
                ).inc(len(group) - len(dcs))
        # The group's one engine call is traced under the *lead* request
        # (the first with a root span), so its trace shows the full
        # coalescer -> quantities -> parallel tree; batch-mates
        # get a "coalescer.ride" marker pointing at the lead trace.
        lead = next((r.span for r in group if r.span is not None), None)
        dispatch_span = obs_trace.begin_span(
            "coalescer.dispatch",
            parent=lead,
            batch_size=len(group),
            batch_dcs=len(dcs),
        )
        ride_spans = []
        for request in group:
            if request.span is not None and request.span is not lead:
                ride_spans.append(
                    obs_trace.begin_span(
                        "coalescer.ride",
                        parent=request.span,
                        lead_trace=dispatch_span.trace_id,
                        batch_size=len(group),
                    )
                )
        def finish_spans() -> None:
            dispatch_span.finish()
            for ride in ride_spans:
                ride.finish()

        if self.executor is not None:
            for request in group:
                request.detached = True
            try:
                with obs_trace.use_span(dispatch_span):
                    pool_future = self.executor(
                        group[0].snapshot, list(dcs), tie_break
                    )
            except ServingError:
                # Pool can't take the batch right now (draining, no live
                # workers): degrade to the in-process path, immediately.
                self._note_fallback()
                self._run_group_inline(group, dcs, tie_break, dispatch_span, finish_spans)
            else:
                with self._lock:
                    self.stats["executor_batches"] += 1
                pool_future.add_done_callback(
                    lambda f: self._executor_done(
                        group, dcs, tie_break, dispatch_span, finish_spans, f
                    )
                )
            return
        self._run_group_inline(group, dcs, tie_break, dispatch_span, finish_spans)

    def _note_fallback(self) -> None:
        with self._lock:
            self.stats["executor_fallbacks"] += 1
        if obs_runtime._ENABLED:
            obs_metrics.counter(
                "repro_serving_pool_fallbacks_total",
                "Coalesced groups degraded from the worker pool to "
                "in-process dispatch",
            ).inc()

    def _executor_done(
        self,
        group: List[ServeRequest],
        dcs: List[float],
        tie_break: TieBreak,
        dispatch_span: Any,
        finish_spans: Any,
        pool_future: Future,
    ) -> None:
        """Completion of a pool-dispatched group (pool supervisor thread).

        This callback runs on the pool's supervisor thread, which must stay
        responsive to heartbeats, so whatever work is left runs on a
        short-lived thread: the ``cluster`` tail (centre selection,
        assignment, a halo on request) as well as an in-process recompute.
        """
        exc = pool_future.exception()
        if exc is None:
            finish_spans()
            threading.Thread(
                target=self._complete_group,
                args=(group, dcs, pool_future.result()),
                name="repro-serve-tail",
                daemon=True,
            ).start()
            return
        if isinstance(exc, (WorkerPoolUnavailableError, WorkerBatchError)):
            # Degrade: recompute in-process, on a short-lived thread.
            self._note_fallback()
            threading.Thread(
                target=self._run_group_inline,
                args=(group, dcs, tie_break, dispatch_span, finish_spans),
                name="repro-serve-fallback",
                daemon=True,
            ).start()
            return
        finish_spans()
        for request in group:  # pragma: no cover - pool raises typed errors
            if not request.future.cancelled():
                request.future.set_exception(exc)

    def _run_group_inline(
        self,
        group: List[ServeRequest],
        dcs: List[float],
        tie_break: TieBreak,
        dispatch_span: Any,
        finish_spans: Any,
    ) -> None:
        """The pre-replication path: one engine call on this process."""
        index = group[0].snapshot.index
        try:
            with obs_trace.use_span(dispatch_span):
                with self._inline_lock:
                    quantities = index.quantities_multi(dcs, tie_break)
        except BaseException as exc:  # propagate engine errors to every waiter
            finish_spans()
            for request in group:
                if not request.future.cancelled():
                    request.future.set_exception(exc)
            return
        finish_spans()
        self._complete_group(group, dcs, quantities)

    def _complete_group(
        self, group: List[ServeRequest], dcs: List[float], quantities: List[Any]
    ) -> None:
        """Distribute a group's ``quantities_multi`` payload to its waiters
        (including the per-request ``cluster`` tail) — bit-identical no
        matter which thread or process produced the payload."""
        index = group[0].snapshot.index
        by_dc = dict(zip(dcs, quantities))
        meta = {
            "batch_size": len(group),
            "batch_dcs": len(dcs),
            "coalesced": len(group) > 1,
        }
        for request in group:
            if request.future.cancelled():
                continue
            try:
                q = by_dc[request.dc]
                if request.op == "cluster":
                    # The selection/assignment tail runs under the request's
                    # own root, so engine.assign lands in the right trace.
                    with obs_trace.use_span(request.span):
                        with self._inline_lock:
                            value: Any = index.cluster_from_quantities(
                                q,
                                n_centers=request.n_centers,
                                rho_min=request.rho_min,
                                delta_min=request.delta_min,
                                halo=request.halo,
                            )
                else:
                    value = q
            except BaseException as exc:  # bad per-request selection params
                request.future.set_exception(exc)
            else:
                request.future.set_result((value, dict(meta)))
