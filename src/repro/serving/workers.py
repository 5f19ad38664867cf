"""Supervised shared-memory serving workers: replicas, failover, drain.

One serving process with one dispatcher thread (PR 4's prototype) has a
single point of failure: a crashed or wedged engine call is a full outage.
This module replicates the *compute* behind the coalescer across N
supervised worker **processes** while keeping the data shared:

* **One image, N readers.**  A published snapshot's fitted index is
  exported once (:func:`repro.indexes.persist.export_index_image`) into a
  single :class:`~repro.indexes.parallel.ShmPack` shared-memory segment.
  Workers attach read-only by segment name
  (:func:`~repro.indexes.parallel.attach_pack_views`) and rebuild a fully
  queryable index over the mapped arrays
  (:func:`~repro.indexes.persist.restore_index_image` — which also verifies
  the content fingerprint, so a torn or foreign segment can never serve).
  A snapshot swap is therefore an atomic segment-name flip: new batches
  carry the new fingerprint + handle, no per-worker copy, no staleness
  window.
* **Warm failover.**  The supervisor watches heartbeats, process liveness
  and per-batch deadlines.  A dead worker (``os._exit``, OOM kill, the
  injected ``serving.worker.kill`` fault) or a wedged one (stuck past the
  batch deadline, ``serving.worker.hang``) is removed from rotation and its
  in-flight batch is re-dispatched to a warm replica.  Replays are
  idempotent by construction: a batch is (fingerprint, dcs, tie-break) and
  the engine is deterministic, so any replica's answer is bit-identical —
  first result wins, late duplicates are discarded harmlessly.
* **Respawn with jittered backoff.**  Dead workers are restarted on an
  exponential, jittered schedule, so a crash loop cannot busy-spin the
  supervisor.
* **Degrade, never fail.**  When the pool cannot take or finish a batch
  (draining, no live workers, failover attempts exhausted) it raises/fails
  :class:`~repro.serving.errors.WorkerPoolUnavailableError` — the
  coalescer's cue to compute in-process, the pre-replication code path.
  Clients observe at most extra latency, never an error, extending PR 7's
  sticky degradation ladder (process → threads → serial) one level up:
  replicated → in-process.

All fault decisions (``serving.worker.kill``, ``serving.worker.hang``,
``serving.heartbeat.drop``, ``serving.shm.unlink``) are made in the parent
— markers ride the batch messages into workers — so chaos runs are
deterministic regardless of worker scheduling.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import random
import signal
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing import connection, resource_tracker
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import faults
from repro.core.quantities import TieBreak
from repro.indexes.parallel import ShmPack, attach_pack_views, detach_pack
from repro.indexes.persist import export_index_image, restore_index_image
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.obs import trace as obs_trace
from repro.serving.errors import WorkerBatchError, WorkerPoolUnavailableError
from repro.serving.snapshots import Snapshot, SnapshotStore

__all__ = ["WorkerPool"]

#: Restored indexes a worker keeps attached at once (LRU; each holds a
#: shared-memory mapping, not a copy — the cap bounds mapping count, not
#: data).  Evicted entries detach their segment explicitly.
_WORKER_INDEX_CAP = 4

#: Exit status of a chaos-killed worker — recognisable in waitpid results.
_KILL_EXIT_STATUS = 13

#: Exit status of a worker whose parent died without stopping it.
_ORPHAN_EXIT_STATUS = 14


def _pick_context():
    """``fork`` where available (Linux: instant start, inherits numpy/module
    state copy-on-write); the platform default elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


# --------------------------------------------------------------------------
# worker side (runs in the child process)
# --------------------------------------------------------------------------


def _serving_worker_main(
    slot: int,
    conn,
    heartbeat_s: float,
    start_method: str,
    parent_pid: int,
    inherited: Tuple,
) -> None:
    """Entry point of one serving worker process.

    Protocol (parent → worker):
      ``("batch", id, fingerprint, meta, handle, dcs, tie_break, marker)``,
      ``("unload", fingerprint, segment_name)``, ``("stop",)``.
    Worker → parent:
      ``("hb", seq)`` from a daemon heartbeat thread,
      ``("result", id, fingerprint, [DPCQuantities, ...])``,
      ``("load_failed", id, fingerprint, message)`` when the image cannot be
      attached/restored (segment unlinked, integrity failure),
      ``("error", id, type_name, message)`` for deterministic engine errors.

    ``inherited`` are the pool-side pipe ends the fork copied into this
    process.  They are closed first, so that ``conn`` reads EOF as soon as
    the pool's process is gone.
    """
    for end in inherited:
        end.close()
    # Forked workers inherit the parent's installed fault plan; decisions
    # are parent-side only (markers ride the batch messages) — a worker
    # consulting the plan would double-count occurrences.
    faults.clear()
    try:
        # The terminal's SIGINT goes to the whole foreground group; drain is
        # the parent's job — workers exit via ("stop",) or SIGTERM.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # A fork inherits the parent's Python SIGTERM handler (``cmd_serve``
        # installs one to start a drain); a worker must die on SIGTERM.  The
        # pool forks with SIGTERM blocked: unblock it only now.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    except (ValueError, OSError):  # pragma: no cover - restricted platforms
        pass
    from repro.indexes import parallel as _parallel

    _parallel._worker_init(start_method)

    send_lock = threading.Lock()
    stop = threading.Event()

    def _send(message: Tuple) -> bool:
        try:
            with send_lock:
                conn.send(message)
            return True
        except (OSError, BrokenPipeError, ValueError):
            return False

    def _heartbeat() -> None:
        # A SIGKILLed parent never sends ("stop",).  Its death reads as EOF
        # only once every copy of the pool's pipe end is closed, and a
        # process the parent forked for other work may still hold one: the
        # orphan would keep its shm image mapped.  Reparenting changes
        # getppid, so die then.  (The pool passes its pid: the parent may
        # die before this runs.)
        seq = 0
        while not stop.wait(heartbeat_s):
            if os.getppid() != parent_pid:
                os._exit(_ORPHAN_EXIT_STATUS)
            seq += 1
            if not _send(("hb", seq)):
                return

    threading.Thread(
        target=_heartbeat, name=f"repro-serve-worker-{slot}-hb", daemon=True
    ).start()
    _send(("hb", 0))  # announce readiness

    # fingerprint -> (restored index, segment name); LRU over shm mappings.
    indexes: "OrderedDict[str, Tuple[Any, str]]" = OrderedDict()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "unload":
            _, fingerprint, segment = message
            indexes.pop(fingerprint, None)
            detach_pack(segment)
            continue
        if kind != "batch":  # pragma: no cover - protocol future-proofing
            continue
        _, batch_id, fingerprint, meta, handle, dcs, tie_break, marker = message
        if marker is not None:
            # Chaos enactment, decided in the parent: die or wedge mid-batch.
            if marker["mode"] == "kill":
                os._exit(_KILL_EXIT_STATUS)
            time.sleep(marker.get("delay_s", 0.0))  # "hang"
        entry = indexes.get(fingerprint)
        if entry is None:
            try:
                views = attach_pack_views(handle)
                # Verifies the flat-image digest and the content
                # fingerprint — a worker can never serve from a torn image.
                index = restore_index_image(meta, views)
            except BaseException as exc:
                _send(
                    (
                        "load_failed",
                        batch_id,
                        fingerprint,
                        f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            while len(indexes) >= _WORKER_INDEX_CAP:
                _, (_, old_segment) = indexes.popitem(last=False)
                detach_pack(old_segment)
            indexes[fingerprint] = (index, handle[0])
        else:
            indexes.move_to_end(fingerprint)
        index = indexes[fingerprint][0]
        try:
            quantities = index.quantities_multi(list(dcs), TieBreak.coerce(tie_break))
        except BaseException as exc:
            # Deterministic engine failure: report (type, message); the
            # parent recomputes in-process so clients get the real typed
            # exception, not a pickled approximation.
            _send(("error", batch_id, type(exc).__name__, str(exc)))
        else:
            _send(("result", batch_id, fingerprint, quantities))
    stop.set()
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


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
    """One coalesced engine call in flight through the pool.

    Identified by content — (fingerprint, dcs, tie_break) — so a replay on
    another worker is bit-identical and cache-safe; ``attempts`` counts
    dispatches, ``deadline`` (monotonic) is reset at each (re)assignment.
    """

    batch_id: int
    snapshot: Snapshot
    dcs: Tuple[float, ...]
    tie_break: str
    future: Future = field(default_factory=Future)
    deadline: float = 0.0
    attempts: int = 0
    span: Any = None


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = ("slot", "process", "conn", "state", "last_hb", "busy", "respawns", "respawn_at")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.process: Any = None
        self.conn: Any = None
        self.state = "dead"  # "live" | "dead"
        self.last_hb = 0.0
        self.busy: Optional[_Batch] = None
        self.respawns = 0
        self.respawn_at = 0.0


class WorkerPool:
    """N supervised serving workers sharing snapshot images over shm.

    The pool subscribes to ``store``: every published snapshot's image is
    exported into shared memory eagerly (and retired — segment unlinked,
    workers told to detach — once no live snapshot serves that fingerprint
    anymore).  :meth:`submit` hands one coalesced batch to an idle worker;
    the returned future resolves to the ``quantities_multi`` payload or
    fails with :class:`~repro.serving.errors.WorkerPoolUnavailableError` /
    :class:`~repro.serving.errors.WorkerBatchError` — both of which the
    coalescer converts into an exact in-process recomputation, so pool
    trouble is never client-visible.

    Single-writer discipline: worker records (``busy``, ``state``,
    heartbeats) are owned by the supervisor thread; ``submit`` only touches
    the pending deque (under ``_lock``); image records have their own lock.
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
        self.heartbeat_s = float(heartbeat_s)
        self.batch_timeout_s = float(batch_timeout_s)
        self.liveness_timeout_s = (
            float(liveness_timeout_s)
            if liveness_timeout_s is not None
            else max(5.0 * self.heartbeat_s, 0.5)
        )
        self.respawn_backoff_s = float(respawn_backoff_s)
        self.respawn_backoff_cap_s = float(respawn_backoff_cap_s)
        self.max_attempts = int(max_attempts) if max_attempts is not None else workers + 1
        self._ctx = _pick_context()
        self._tick = max(0.005, min(0.05, self.heartbeat_s / 2.0))
        self._ids = itertools.count(1)
        self._rng = random.Random(0x5EED ^ os.getpid())

        self._lock = threading.Lock()
        self._pending: "deque[_Batch]" = deque()
        self._commands: "deque[Tuple]" = deque()
        self._draining = False
        self._closed = False
        self._degraded: Optional[str] = None

        self._images_lock = threading.Lock()
        self._images: Dict[str, _Image] = {}

        self.stats: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "failovers": 0,
            "worker_deaths": 0,
            "respawns": 0,
            "heartbeats_dropped": 0,
            "load_failures": 0,
            "batch_errors": 0,
            "unavailable": 0,
            "images_published": 0,
            "images_retired": 0,
        }

        # Start the parent's resource tracker *before* forking: a forked
        # worker inherits it and its attach-time registrations dedupe with
        # the parent's (one unlink balances them).  Forking first would hand
        # each worker a private tracker that "cleans up" (re-unlinks) the
        # parent's segments at worker exit.
        try:
            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker internals vary
            pass
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._workers = [_Worker(slot) for slot in range(int(workers))]
        self._by_conn: Dict[Any, _Worker] = {}
        now = time.monotonic()
        for worker in self._workers:
            self._spawn(worker, now)

        self._stop = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-serve-pool", daemon=True
        )
        self._supervisor.start()

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
        """Hand one coalesced batch to the pool; resolves to the
        ``quantities_multi`` payload (order matching ``dcs``).

        Raises :class:`WorkerPoolUnavailableError` *synchronously* when the
        pool cannot take the batch right now (draining, closed, no live
        worker) — the caller computes in-process instead, immediately,
        rather than queueing behind a recovery that may take a while.
        """
        tie = TieBreak.coerce(tie_break).value
        batch_dcs = tuple(float(dc) for dc in dcs)
        with self._lock:
            if self._closed:
                raise WorkerPoolUnavailableError("worker pool is closed")
            if self._draining:
                raise WorkerPoolUnavailableError("worker pool is draining")
            if not any(w.state == "live" for w in self._workers):
                self.stats["unavailable"] += 1
                self._degraded = "no live serving workers; computing in-process"
                raise WorkerPoolUnavailableError(
                    "no live serving workers (all respawning)"
                )
        image_error: Optional[BaseException] = None
        try:
            self._ensure_image(snapshot)
        except WorkerPoolUnavailableError as exc:
            image_error = exc
        if image_error is not None:
            with self._lock:
                self.stats["unavailable"] += 1
            raise image_error
        batch = _Batch(
            batch_id=next(self._ids),
            snapshot=snapshot,
            dcs=batch_dcs,
            tie_break=tie,
            deadline=time.monotonic() + self.batch_timeout_s,
        )
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
            self._pending.append(batch)
        self._wake()
        return batch.future

    def worker_pids(self) -> List[int]:
        """PIDs of the currently live workers (the failover drill's targets)."""
        return [
            w.process.pid
            for w in self._workers
            if w.state == "live" and w.process is not None
        ]

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
            return dict(self.stats)

    def health(self) -> Dict[str, Any]:
        """Per-worker + pool rollup for ``healthz``.

        Worker states: ``healthy`` (idle, in rotation), ``busy`` (computing
        a batch), ``respawning`` (died, restart scheduled), ``draining``.
        Pool state is ``draining`` / ``degraded`` (sticky in-process
        fallback happened, or a worker is down) / ``healthy``.
        """
        now = time.monotonic()
        with self._lock:
            draining = self._draining
            pending = len(self._pending)
            stats = dict(self.stats)
        workers = []
        any_dead = False
        for w in self._workers:
            if w.state == "dead":
                any_dead = True
                state = "respawning"
            elif draining:
                state = "draining"
            elif w.busy is not None:
                state = "busy"
            else:
                state = "healthy"
            workers.append(
                {
                    "slot": w.slot,
                    "pid": w.process.pid if w.process is not None else None,
                    "state": state,
                    "respawns": w.respawns,
                    "heartbeat_age_s": round(max(0.0, now - w.last_hb), 3),
                }
            )
        degraded = self._degraded
        return {
            "state": (
                "draining"
                if draining
                else "degraded"
                if degraded or any_dead
                else "healthy"
            ),
            "degraded_reason": degraded,
            "workers": workers,
            "pending_batches": pending,
            "failovers": stats["failovers"],
            "worker_deaths": stats["worker_deaths"],
            "inline_fallbacks": stats["unavailable"],
        }

    # -- lifecycle ------------------------------------------------------------

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Stop taking new batches, flush in-flight ones, stop the workers.

        Returns ``True`` for a clean drain (everything flushed within the
        deadline); ``False`` when the deadline forced shutdown with work
        still in flight (those futures fail with
        :class:`WorkerPoolUnavailableError`, which the coalescer converts
        into an in-process recomputation — still no client-visible error).
        """
        with self._lock:
            if self._closed:
                return True
            self._draining = True
        self._wake()
        deadline = time.monotonic() + max(0.0, float(timeout_s))
        clean = True
        while True:
            with self._lock:
                busy = bool(self._pending) or any(
                    w.busy is not None for w in self._workers
                )
            if not busy:
                break
            if time.monotonic() >= deadline:
                clean = False
                break
            time.sleep(0.01)
        self.close()
        return clean

    def close(self) -> None:
        """Stop the supervisor and the workers, release every image
        (idempotent).  Outstanding batch futures fail with
        :class:`WorkerPoolUnavailableError` — never left hanging."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._draining = True
        self._stop.set()
        self._wake()
        self._supervisor.join(timeout=10.0)
        self._unsubscribe()
        for w in self._workers:
            if w.state == "live" and w.conn is not None:
                try:
                    w.conn.send(("stop",))
                except (OSError, BrokenPipeError, ValueError):
                    pass
        for w in self._workers:
            process = w.process
            if process is not None:
                process.join(timeout=1.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=0.5)
                if process.is_alive():  # pragma: no cover - stubborn child
                    process.kill()
                    process.join(timeout=0.5)
            if w.conn is not None:
                try:
                    w.conn.close()
                except OSError:  # pragma: no cover
                    pass
            w.state = "dead"
        leftovers: List[_Batch] = []
        with self._lock:
            leftovers.extend(self._pending)
            self._pending.clear()
        for w in self._workers:
            if w.busy is not None:
                leftovers.append(w.busy)
                w.busy = None
        for batch in leftovers:
            self._fail(
                batch, WorkerPoolUnavailableError("worker pool closed"), "closed"
            )
        with self._images_lock:
            for image in self._images.values():
                image.pack.close()
            self._images.clear()
        for conn in (self._wake_r, self._wake_w):
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

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
            # — worker attaches fail with load_failed and the supervisor
            # republishes from the snapshot the batch still holds.
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
        with self._lock:
            self._commands.append(("retire", old.fingerprint, segment))
        self._wake()

    # -- supervisor -----------------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send(None)
        except (OSError, BrokenPipeError, ValueError):  # pragma: no cover
            pass

    def _spawn(self, worker: _Worker, now: float) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # The pool's ends the child must not keep: its own pipe's, its live
        # siblings' and the wake pipe's.
        inherited = (
            parent_conn,
            self._wake_r,
            self._wake_w,
            *(w.conn for w in self._workers if w.state == "live"),
        )
        process = self._ctx.Process(
            target=_serving_worker_main,
            args=(
                worker.slot,
                child_conn,
                self.heartbeat_s,
                self._ctx.get_start_method(),
                os.getpid(),
                inherited,
            ),
            name=f"repro-serve-worker-{worker.slot}",
            daemon=True,
        )
        # The child inherits the parent's Python SIGTERM handler until it
        # installs SIG_DFL; forking with SIGTERM blocked makes a SIGTERM in
        # that window wait (pending) instead of reaching the inherited one.
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            process.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.state = "live"
        worker.last_hb = now  # grace until the first heartbeat lands
        worker.busy = None
        self._by_conn[parent_conn] = worker

    def _supervise(self) -> None:
        while not self._stop.is_set():
            conns = [w.conn for w in self._workers if w.state == "live"]
            conns.append(self._wake_r)
            try:
                ready = connection.wait(conns, timeout=self._tick)
            except OSError:  # pragma: no cover - conn torn down mid-wait
                ready = []
            for conn in ready:
                if conn is self._wake_r:
                    try:
                        while self._wake_r.poll():
                            self._wake_r.recv()
                    except (EOFError, OSError):  # pragma: no cover
                        pass
                    continue
                worker = self._by_conn.get(conn)
                if worker is not None and worker.state == "live":
                    self._drain_worker(worker)
            now = time.monotonic()
            self._run_commands()
            self._check_liveness(now)
            self._check_deadlines(now)
            self._respawn_due(now)
            self._assign_pending(now)
            if obs_runtime._ENABLED:
                obs_metrics.gauge(
                    "repro_serving_workers_live",
                    "Serving workers currently in rotation",
                ).set(sum(1 for w in self._workers if w.state == "live"))

    def _drain_worker(self, worker: _Worker) -> None:
        try:
            while worker.conn.poll():
                self._handle_message(worker, worker.conn.recv())
        except (EOFError, OSError):
            self._worker_died(worker, "pipe closed")

    def _handle_message(self, worker: _Worker, message: Tuple) -> None:
        kind = message[0]
        if kind == "hb":
            # Chaos point: the supervisor loses this heartbeat.  Enough
            # consecutive drops expire liveness and trigger a *spurious*
            # failover — which idempotency makes harmless.
            if faults.decide("serving.heartbeat.drop") is not None:
                self.stats["heartbeats_dropped"] += 1
                if obs_runtime._ENABLED:
                    obs_metrics.counter(
                        "repro_serving_heartbeats_dropped_total",
                        "Worker heartbeats discarded (chaos or races)",
                    ).inc()
            else:
                worker.last_hb = time.monotonic()
            return
        if kind == "result":
            _, batch_id, fingerprint, payload = message
            batch = worker.busy
            if batch is None or batch.batch_id != batch_id:
                return  # late duplicate of a failed-over batch: discard
            worker.busy = None
            if fingerprint != batch.snapshot.fingerprint:  # pragma: no cover
                self._retry_or_fail(batch, "fingerprint mismatch in result")
                return
            with self._lock:
                self.stats["completed"] += 1
            self._resolve(batch, payload)
            return
        if kind == "load_failed":
            _, batch_id, fingerprint, text = message
            batch = worker.busy
            if batch is None or batch.batch_id != batch_id:
                return
            worker.busy = None
            with self._lock:
                self.stats["load_failures"] += 1
            # The segment is likely gone (chaos unlink, external cleanup):
            # drop the record so the next dispatch republishes from the
            # snapshot the batch still holds.
            with self._images_lock:
                image = self._images.get(fingerprint)
                if image is not None and image.pack.closed:
                    self._images.pop(fingerprint, None)
            self._retry_or_fail(batch, f"image load failed: {text}")
            return
        if kind == "error":
            _, batch_id, type_name, text = message
            batch = worker.busy
            if batch is None or batch.batch_id != batch_id:
                return
            worker.busy = None
            with self._lock:
                self.stats["batch_errors"] += 1
            self._fail(
                batch,
                WorkerBatchError(f"worker batch failed: {type_name}: {text}"),
                "error",
            )
            return

    def _run_commands(self) -> None:
        while True:
            with self._lock:
                if not self._commands:
                    return
                command = self._commands.popleft()
            if command[0] == "retire":
                _, fingerprint, segment = command
                for worker in self._workers:
                    if worker.state != "live":
                        continue
                    try:
                        worker.conn.send(("unload", fingerprint, segment))
                    except (OSError, BrokenPipeError, ValueError):
                        self._worker_died(worker, "pipe closed")

    def _check_liveness(self, now: float) -> None:
        for worker in self._workers:
            if worker.state != "live":
                continue
            if not worker.process.is_alive():
                self._worker_died(worker, "process exited")
            elif now - worker.last_hb > self.liveness_timeout_s:
                self._worker_died(worker, "heartbeat liveness expired")

    def _check_deadlines(self, now: float) -> None:
        for worker in self._workers:
            batch = worker.busy
            if worker.state == "live" and batch is not None and now >= batch.deadline:
                # Wedged: alive, heartbeating, but the batch never finishes.
                self._worker_died(worker, "batch deadline exceeded (wedged)")
        expired: List[_Batch] = []
        with self._lock:
            if self._pending:
                keep: "deque[_Batch]" = deque()
                while self._pending:
                    batch = self._pending.popleft()
                    if now >= batch.deadline and not batch.future.done():
                        expired.append(batch)
                    else:
                        keep.append(batch)
                self._pending = keep
                if expired:
                    self.stats["unavailable"] += len(expired)
        for batch in expired:
            self._degraded = "pending batch starved; computing in-process"
            self._fail(
                batch,
                WorkerPoolUnavailableError(
                    f"no worker picked up the batch within {self.batch_timeout_s}s"
                ),
                "starved",
            )

    def _worker_died(self, worker: _Worker, reason: str) -> None:
        if worker.state != "live":
            return
        # Salvage: a result already sitting in the pipe beats a replay.
        try:
            while worker.conn.poll():
                self._handle_message(worker, worker.conn.recv())
        except (EOFError, OSError):
            pass
        batch = worker.busy
        worker.busy = None
        worker.state = "dead"
        process = worker.process
        if process is not None:
            if process.is_alive():
                process.terminate()
                process.join(timeout=0.5)
                if process.is_alive():  # pragma: no cover - stubborn child
                    process.kill()
            process.join(timeout=0.5)
        self._by_conn.pop(worker.conn, None)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        worker.respawns += 1
        backoff = min(
            self.respawn_backoff_cap_s,
            self.respawn_backoff_s * (2.0 ** (worker.respawns - 1)),
        ) * (0.5 + self._rng.random())
        worker.respawn_at = time.monotonic() + backoff
        with self._lock:
            self.stats["worker_deaths"] += 1
        if obs_runtime._ENABLED:
            obs_metrics.counter(
                "repro_serving_worker_deaths_total",
                "Serving workers removed from rotation, by reason",
                ("reason",),
            ).labels(reason.split(" ")[0] if reason else "unknown").inc()
        if batch is not None and not batch.future.done():
            with self._lock:
                self.stats["failovers"] += 1
            if obs_runtime._ENABLED:
                obs_metrics.counter(
                    "repro_serving_failovers_total",
                    "In-flight batches re-dispatched after a worker died or wedged",
                ).inc()
            if batch.span:
                batch.span.set("failover", batch.attempts + 1)
            self._retry_or_fail(batch, reason)

    def _retry_or_fail(self, batch: _Batch, reason: str) -> None:
        batch.attempts += 1
        if batch.attempts >= self.max_attempts:
            with self._lock:
                self.stats["unavailable"] += 1
            self._degraded = f"batch failover exhausted ({reason}); computing in-process"
            self._fail(
                batch,
                WorkerPoolUnavailableError(
                    f"batch gave up after {batch.attempts} attempts: {reason}"
                ),
                "exhausted",
            )
            return
        batch.deadline = time.monotonic() + self.batch_timeout_s
        with self._lock:
            self._pending.appendleft(batch)

    def _respawn_due(self, now: float) -> None:
        if self._stop.is_set():
            return
        for worker in self._workers:
            if worker.state == "dead" and now >= worker.respawn_at:
                try:
                    self._spawn(worker, now)
                except OSError:  # pragma: no cover - fork/pipe exhaustion
                    worker.respawn_at = now + self.respawn_backoff_cap_s
                    continue
                with self._lock:
                    self.stats["respawns"] += 1
                if obs_runtime._ENABLED:
                    obs_metrics.counter(
                        "repro_serving_worker_respawns_total",
                        "Serving worker processes restarted after death",
                    ).inc()

    def _assign_pending(self, now: float) -> None:
        for worker in self._workers:
            if worker.state != "live" or worker.busy is not None:
                continue
            while True:
                with self._lock:
                    if not self._pending:
                        return
                    batch = self._pending.popleft()
                if batch.future.done():
                    continue
                if self._dispatch_to(worker, batch, now):
                    break
                if worker.state != "live":
                    return  # the send killed the worker; batch was requeued

    def _dispatch_to(self, worker: _Worker, batch: _Batch, now: float) -> bool:
        """Send ``batch`` to ``worker``; True when the worker now owns it."""
        fingerprint = batch.snapshot.fingerprint
        with self._images_lock:
            image = self._images.get(fingerprint)
        if image is None or image.pack.closed:
            try:
                image = self._ensure_image(batch.snapshot)
            except WorkerPoolUnavailableError:
                self._retry_or_fail(batch, "image republish failed")
                return True  # consumed (requeued or failed), worker stays idle
        marker: Optional[Dict[str, Any]] = None
        spec = faults.decide("serving.worker.kill")
        if spec is not None:
            marker = {"mode": "kill"}
        else:
            spec = faults.decide("serving.worker.hang")
            if spec is not None:
                marker = {"mode": "hang", "delay_s": spec.delay_s}
        batch.deadline = now + self.batch_timeout_s
        worker.busy = batch
        try:
            worker.conn.send(
                (
                    "batch",
                    batch.batch_id,
                    fingerprint,
                    image.meta,
                    image.pack.handle,
                    batch.dcs,
                    batch.tie_break,
                    marker,
                )
            )
        except (OSError, BrokenPipeError, ValueError):
            self._worker_died(worker, "pipe closed")  # requeues via failover
            return False
        return True

    # -- future resolution (supervisor thread) --------------------------------

    def _resolve(self, batch: _Batch, payload: List[Any]) -> None:
        if batch.span:
            batch.span.set("outcome", "ok")
            batch.span.set("attempts", batch.attempts + 1)
            batch.span.finish()
        if not batch.future.done():
            batch.future.set_result(list(payload))

    def _fail(self, batch: _Batch, exc: BaseException, outcome: str) -> None:
        if batch.span:
            batch.span.set("outcome", outcome)
            batch.span.finish()
        if not batch.future.done():
            batch.future.set_exception(exc)
