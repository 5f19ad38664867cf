"""Serving workers: snapshot images in shared memory, batches on the supervisor.

One serving process with one dispatcher thread has a single point of
failure: a crashed or wedged engine call is a full outage.  This module
replicates the *compute* behind the coalescer across N worker processes of
a :class:`repro.supervisor.Supervisor` — the supervisor the engine's
``process`` rung runs on, with its heartbeats, liveness, batch deadlines,
seeded respawn backoff and orphan exit — while keeping the data shared:

* **One image, N readers.**  A published snapshot's fitted index is
  exported once (:func:`repro.indexes.persist.export_index_image`) into a
  single :class:`~repro.indexes.parallel.ShmPack` segment.  A worker
  attaches it by name and restores a queryable index over the mapped
  arrays once per fingerprint (:func:`~repro.indexes.persist.restore_index_image`,
  which verifies the content fingerprint: a torn or foreign segment never
  serves).  A snapshot swap is an atomic segment-name flip; retired content
  is unlinked at once and workers are told to detach it.
* **Warm failover.**  A batch whose worker died (``serving.worker.kill``,
  OOM kill), wedged past its deadline (``serving.worker.hang``) or could
  not load its image (``serving.shm.unlink``) is re-dispatched ahead of the
  queue, up to ``max_attempts`` dispatches.  A batch is (fingerprint, dcs,
  tie-break) and the engine is deterministic, so a replay is bit-identical.
* **Degrade, never fail.**  When the pool cannot take or finish a batch it
  raises/fails :class:`~repro.serving.errors.WorkerPoolUnavailableError`,
  the coalescer's cue to compute in-process: the engine's sticky ladder
  (process → threads → serial) gains a level above it, replicated →
  in-process.

Every fault decision (the four ``serving.*`` points) is made in the parent,
so chaos runs are deterministic whatever the worker scheduling.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import faults
from repro.core.quantities import TieBreak
from repro.indexes.parallel import (
    Backoff,
    ChunkIntegrityError,
    ShmPack,
    _accept_result,
    detach_pack,
)
from repro.indexes.persist import export_index_image, restore_index_image
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.obs import trace as obs_trace
from repro.serving.errors import WorkerBatchError, WorkerPoolUnavailableError
from repro.serving.snapshots import Snapshot, SnapshotStore
from repro.supervisor import JobLost, Supervisor

__all__ = ["WorkerPool"]

#: Restored indexes a worker keeps attached at once (LRU; each holds a
#: shared-memory mapping, not a copy — the cap bounds mapping count, not
#: data).  Evicted entries detach their segment explicitly.
_WORKER_INDEX_CAP = 4

#: Seed of the respawn jitter (a fixed seed: recovery timing replays).
_RESPAWN_SEED = 0x5EED


# --------------------------------------------------------------------------
# worker side (runs in a supervisor worker)
# --------------------------------------------------------------------------

#: fingerprint -> (restored index, segment name), per worker process.
_RESTORED: "OrderedDict[str, Tuple[Any, str]]" = OrderedDict()


class _ImageLoadError(RuntimeError):
    """A worker could not restore a snapshot image (integrity failure)."""


def _batch_job(arrays, meta, payload, stats):
    """One coalesced batch: restore the image once per fingerprint per
    worker, then run ``quantities_multi``."""
    fingerprint = payload["fingerprint"]
    entry = _RESTORED.get(fingerprint)
    if entry is None:
        try:
            index = restore_index_image(meta, arrays)
        except Exception as exc:
            raise _ImageLoadError(f"{type(exc).__name__}: {exc}") from exc
        while len(_RESTORED) >= _WORKER_INDEX_CAP:
            _, (_, old_segment) = _RESTORED.popitem(last=False)
            detach_pack(old_segment)
        entry = _RESTORED[fingerprint] = (index, payload["segment"])
    else:
        _RESTORED.move_to_end(fingerprint)
    return entry[0].quantities_multi(
        list(payload["dcs"]), TieBreak.coerce(payload["tie_break"])
    )


def _unload(fingerprint: str, segment: str) -> None:
    """Forget a retired image and detach its segment."""
    _RESTORED.pop(fingerprint, None)
    detach_pack(segment)


# --------------------------------------------------------------------------
# parent side
# --------------------------------------------------------------------------


@dataclass
class _Image:
    """One snapshot content published into shared memory."""

    pack: ShmPack
    meta: Dict[str, Any]


@dataclass
class _Batch:
    """One coalesced engine call in flight; ``attempts`` counts failed
    dispatches."""

    snapshot: Snapshot
    dcs: Tuple[float, ...]
    tie_break: str
    future: Future = field(default_factory=Future)
    attempts: int = 0
    span: Any = None


class WorkerPool:
    """N supervised serving workers sharing snapshot images over shm.

    The pool subscribes to ``store``: every published snapshot's image is
    exported eagerly, and retired once no live snapshot serves that
    fingerprint.  :meth:`submit`'s future resolves to the
    ``quantities_multi`` payload or fails with
    :class:`~repro.serving.errors.WorkerPoolUnavailableError` /
    :class:`~repro.serving.errors.WorkerBatchError`, which the coalescer
    turns into an exact in-process recomputation.  Batch outcomes settle on
    the supervisor thread; ``_lock`` guards the counters and the in-flight
    count, image records have their own lock.
    """

    def __init__(
        self,
        store: SnapshotStore,
        workers: int = 2,
        heartbeat_s: float = 0.25,
        batch_timeout_s: float = 30.0,
        liveness_timeout_s: Optional[float] = None,
        respawn_backoff_s: float = 0.05,
        respawn_backoff_cap_s: float = 2.0,
        max_attempts: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not heartbeat_s > 0:
            raise ValueError(f"heartbeat_s must be positive, got {heartbeat_s}")
        if not batch_timeout_s > 0:
            raise ValueError(f"batch_timeout_s must be positive, got {batch_timeout_s}")
        self.store = store
        self.batch_timeout_s = float(batch_timeout_s)
        self.max_attempts = int(max_attempts) if max_attempts is not None else workers + 1

        self._lock = threading.Lock()
        self._inflight = 0
        self._draining = False
        self._closed = False
        self._degraded: Optional[str] = None

        self._images_lock = threading.Lock()
        self._images: Dict[str, _Image] = {}

        self.stats: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "failovers": 0,
            "load_failures": 0,
            "batch_errors": 0,
            "unavailable": 0,
            "images_published": 0,
            "images_retired": 0,
        }
        self._workers = Supervisor(
            int(workers),
            "serving",
            heartbeat_s=heartbeat_s,
            liveness_timeout_s=liveness_timeout_s,
            respawn=Backoff(respawn_backoff_s, respawn_backoff_cap_s, _RESPAWN_SEED),
            heartbeat_fault="serving.heartbeat.drop",
        )
        self.heartbeat_s = self._workers.heartbeat_s
        self.liveness_timeout_s = self._workers.liveness_timeout_s

        # Publish images for whatever is already serving, then follow swaps.
        self._unsubscribe = store.subscribe(self._on_swap)
        for name in store.names():
            try:
                self._ensure_image(store.get(name))
            except (KeyError, WorkerPoolUnavailableError):
                pass  # dropped mid-iteration / lazily retried at submit

    # -- client side ----------------------------------------------------------

    def submit(
        self, snapshot: Snapshot, dcs: List[float], tie_break: "str | TieBreak"
    ) -> "Future[List[Any]]":
        """Hand one coalesced batch to the pool.  Raises
        :class:`WorkerPoolUnavailableError` *synchronously* when it cannot
        take the batch now (draining, closed, no live worker): the caller
        computes in-process at once rather than queue behind a recovery."""
        tie = TieBreak.coerce(tie_break).value
        batch_dcs = tuple(float(dc) for dc in dcs)
        with self._lock:
            if self._closed:
                raise WorkerPoolUnavailableError("worker pool is closed")
            if self._draining:
                raise WorkerPoolUnavailableError("worker pool is draining")
        try:
            if not self._workers.live_pids():
                self._degraded = "no live serving workers; computing in-process"
                raise WorkerPoolUnavailableError(
                    "no live serving workers (all respawning)"
                )
            self._ensure_image(snapshot)
        except WorkerPoolUnavailableError:
            self._bump("unavailable")
            raise
        batch = _Batch(snapshot=snapshot, dcs=batch_dcs, tie_break=tie)
        batch.span = obs_trace.begin_span(
            "serving.pool.batch",
            fingerprint=snapshot.fingerprint[:12],
            batch_dcs=len(batch_dcs),
        )
        with self._lock:
            if self._closed or self._draining:
                batch.span.finish()
                raise WorkerPoolUnavailableError("worker pool is draining")
            self.stats["submitted"] += 1
            self._inflight += 1
        self._dispatch(batch)
        return batch.future

    def worker_pids(self) -> List[int]:
        """PIDs of the currently live workers (the failover drill's targets)."""
        return self._workers.live_pids()

    @property
    def degraded(self) -> Optional[str]:
        """Why the pool last fell back to in-process dispatch (sticky; see
        :meth:`reset_degradation`), or ``None``."""
        return self._degraded

    def reset_degradation(self) -> None:
        """Clear the sticky degradation marker (operator acknowledgement)."""
        self._degraded = None

    def stats_snapshot(self) -> Dict[str, int]:
        with self._lock:
            stats = dict(self.stats)
        stats.update(self._workers.stats_snapshot())
        return stats

    def health(self) -> Dict[str, Any]:
        """Per-worker + pool rollup for ``healthz``: worker states
        ``healthy``, ``busy``, ``respawning``, ``draining``; pool state
        ``draining`` / ``degraded`` (sticky in-process fallback, or a
        worker down) / ``healthy``."""
        supervised = self._workers.health()
        with self._lock:
            draining = self._draining
        stats = self.stats_snapshot()
        workers = supervised["workers"]
        for row in workers:
            if draining and row["state"] != "respawning":
                row["state"] = "draining"
        degraded = self._degraded
        any_dead = any(row["state"] == "respawning" for row in workers)
        return {
            "state": (
                "draining"
                if draining
                else "degraded" if degraded or any_dead else "healthy"
            ),
            "degraded_reason": degraded,
            "workers": workers,
            "pending_batches": supervised["pending"],
            "failovers": stats["failovers"],
            "worker_deaths": stats["worker_deaths"],
            "inline_fallbacks": stats["unavailable"],
        }

    # -- lifecycle ------------------------------------------------------------

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Stop taking new batches, flush in-flight ones, stop the workers.
        ``False`` when the deadline forced shutdown with work in flight
        (those futures fail with :class:`WorkerPoolUnavailableError`: the
        coalescer recomputes them in-process)."""
        with self._lock:
            if self._closed:
                return True
            self._draining = True
        deadline = time.monotonic() + max(0.0, float(timeout_s))
        while self._inflight and time.monotonic() < deadline:
            time.sleep(0.01)
        clean = not self._inflight
        self.close()
        return clean

    def close(self) -> None:
        """Stop the workers and release every image (idempotent).
        Outstanding batch futures fail with
        :class:`WorkerPoolUnavailableError` — never left hanging."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._draining = True
        self._unsubscribe()
        self._workers.close()
        with self._images_lock:
            for image in self._images.values():
                image.pack.close()
            self._images.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- snapshot images ------------------------------------------------------

    def _ensure_image(self, snapshot: Snapshot) -> _Image:
        fingerprint = snapshot.fingerprint
        with self._images_lock:
            image = self._images.get(fingerprint)
            if image is not None and not image.pack.closed:
                return image
            try:
                meta, arrays = export_index_image(snapshot.index)
                pack = ShmPack(arrays)
            except BaseException as exc:
                raise WorkerPoolUnavailableError(
                    f"could not publish snapshot image: {type(exc).__name__}: {exc}"
                ) from exc
            image = _Image(pack=pack, meta=meta)
            self._images[fingerprint] = image
            self.stats["images_published"] += 1
            if obs_runtime._ENABLED:
                obs_metrics.counter(
                    "repro_serving_images_published_total",
                    "Snapshot images exported into shared memory for workers",
                ).inc()
            # Chaos point: the segment name vanishes right after publication
            # — worker attaches fail and the pool republishes from the
            # snapshot the batch still holds.
            if faults.decide("serving.shm.unlink") is not None:
                pack.close()
            return image

    def _on_swap(
        self, name: str, new: Optional[Snapshot], old: Optional[Snapshot]
    ) -> None:
        if self._closed:
            return
        if new is not None:
            try:
                self._ensure_image(new)
            except WorkerPoolUnavailableError:
                pass  # lazily retried at submit; batches fall back inline
        if old is None:
            return
        if new is not None and new.fingerprint == old.fingerprint:
            return
        if self.store.holds_fingerprint(old.fingerprint):
            return
        with self._images_lock:
            image = self._images.pop(old.fingerprint, None)
            if image is None:
                return
            segment = image.pack.name
            # Unlink now: attached workers keep their mappings (POSIX), new
            # attaches fail — exactly right for retired content.
            image.pack.close()
            self.stats["images_retired"] += 1
        if obs_runtime._ENABLED:
            obs_metrics.counter(
                "repro_serving_images_retired_total",
                "Snapshot images unlinked after their content stopped serving",
            ).inc()
        self._workers.broadcast(_unload, old.fingerprint, segment)

    # -- batches --------------------------------------------------------------

    def _dispatch(self, batch: _Batch, failover: bool = False) -> None:
        """Send ``batch`` to the workers — a failover ahead of the queue —
        over its current image (republished if the segment vanished), with
        this dispatch's fault marker."""
        try:
            image = self._ensure_image(batch.snapshot)
        except WorkerPoolUnavailableError:
            self._retry_or_fail(batch, "image republish failed")
            return
        job_marker = faults.marker("serving.worker.kill") or faults.marker(
            "serving.worker.hang"
        )
        payload = {
            "fingerprint": batch.snapshot.fingerprint,
            "segment": image.pack.name,
            "dcs": batch.dcs,
            "tie_break": batch.tie_break,
        }
        future = self._workers.submit(
            _batch_job,
            [image.pack.handle],
            image.meta,
            payload,
            job_marker,
            timeout_s=self.batch_timeout_s,
            front=failover,
        )
        future.add_done_callback(lambda job: self._settled(batch, job))

    def _settled(self, batch: _Batch, job: Future) -> None:
        """One dispatch of ``batch`` ended (on the supervisor thread)."""
        exc = job.exception()
        if exc is None:
            try:
                quantities, _ = _accept_result(job.result())
            except ChunkIntegrityError as bad:
                self._retry_or_fail(batch, str(bad))
                return
            self._bump("completed")
            self._finish(batch, "ok", payload=list(quantities))
        elif isinstance(exc, JobLost) and exc.outcome == "lost":
            self._bump("failovers")
            if obs_runtime._ENABLED:
                obs_metrics.counter(
                    "repro_serving_failovers_total",
                    "In-flight batches re-dispatched after a worker died or wedged",
                ).inc()
            if batch.span:
                batch.span.set("failover", batch.attempts + 1)
            self._retry_or_fail(batch, str(exc))
        elif isinstance(exc, JobLost) and exc.outcome == "starved":
            self._bump("unavailable")
            self._degraded = "pending batch starved; computing in-process"
            message = f"no worker picked up the batch within {self.batch_timeout_s}s"
            self._finish(batch, "starved", exc=WorkerPoolUnavailableError(message))
        elif isinstance(exc, JobLost):  # the pool closed
            self._finish(batch, "closed", exc=WorkerPoolUnavailableError(str(exc)))
        elif isinstance(exc, (FileNotFoundError, _ImageLoadError)):
            self._bump("load_failures")
            # The segment is likely gone (chaos unlink, external cleanup):
            # drop the record so the next dispatch republishes from the
            # snapshot the batch still holds.
            fingerprint = batch.snapshot.fingerprint
            with self._images_lock:
                image = self._images.get(fingerprint)
                if image is not None and image.pack.closed:
                    self._images.pop(fingerprint, None)
            self._retry_or_fail(batch, f"image load failed: {type(exc).__name__}: {exc}")
        else:
            # Deterministic engine failure: the coalescer recomputes
            # in-process, so clients get the real typed exception.
            self._bump("batch_errors")
            message = f"worker batch failed: {type(exc).__name__}: {exc}"
            self._finish(batch, "error", exc=WorkerBatchError(message))

    def _retry_or_fail(self, batch: _Batch, reason: str) -> None:
        batch.attempts += 1
        if batch.attempts < self.max_attempts:
            self._dispatch(batch, failover=True)
            return
        self._bump("unavailable")
        self._degraded = f"batch failover exhausted ({reason}); computing in-process"
        message = f"batch gave up after {batch.attempts} attempts: {reason}"
        self._finish(batch, "exhausted", exc=WorkerPoolUnavailableError(message))

    def _bump(self, key: str) -> None:
        with self._lock:
            self.stats[key] += 1

    def _finish(self, batch: _Batch, outcome: str, payload: Any = None, exc: Any = None):
        if batch.span:
            batch.span.set("outcome", outcome)
            if exc is None:
                batch.span.set("attempts", batch.attempts + 1)
            batch.span.finish()
        if batch.future.done():
            return
        with self._lock:
            self._inflight -= 1
        if exc is None:
            batch.future.set_result(payload)
        else:
            batch.future.set_exception(exc)
