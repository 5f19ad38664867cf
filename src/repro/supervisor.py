"""One process supervisor: forked workers that run jobs over shared memory.

The engine's ``process`` rung (a job per query chunk) and the serving
tier's replicas (a job per coalesced batch) both run on :class:`Supervisor`,
imported only when one of them first starts workers.  A job is a
module-level ``fn(arrays, meta, payload, stats)`` over the arrays of the
:class:`~repro.indexes.parallel.ShmPack` handles it names, plus one fault
marker the parent decided (:func:`repro.faults.marker`); the worker runs it
through :func:`repro.indexes.parallel._run_with_stats` (marker enacted,
result checksummed), and the job's future resolves to that ``(result,
counter deltas, crc)`` triple for the owner to verify.

The supervisor owns the worker lifecycle: fork with SIGTERM blocked,
heartbeats and liveness, per-job deadlines (a worker past one is wedged),
seeded respawn backoff, orphan exit (a worker holds no owner-side pipe end
of any supervisor, so its pipe reads EOF once the owner dies; a ``getppid``
watch covers a copy another fork holds) and drain.  A job it cannot finish
fails with :class:`JobLost`; retrying is the owner's policy (the engine
retries then degrades, serving fails over), as is every fault decision.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import signal
import threading
import time
from collections import deque
from concurrent.futures import Future
from multiprocessing import connection, resource_tracker
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import faults
from repro.indexes.parallel import Backoff, _run_with_stats, attach_pack_views
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime

__all__ = ["JobLost", "Supervisor"]

#: Exit status of a worker whose owner died without stopping it.
_ORPHAN_EXIT_STATUS = 14

#: Owner-side pipe ends of every supervisor in this process.  A forked
#: worker closes all of them, so its own pipe reads EOF as soon as its
#: owner is gone, whichever supervisor forked it.
_OWNER_ENDS: set = set()
_OWNER_ENDS_LOCK = threading.Lock()


def _own(*ends) -> None:
    with _OWNER_ENDS_LOCK:
        _OWNER_ENDS.update(ends)


def _disown(*ends) -> None:
    with _OWNER_ENDS_LOCK:
        _OWNER_ENDS.difference_update(ends)
    for end in ends:
        try:
            end.close()
        except OSError:  # pragma: no cover
            pass


def _dumps(message) -> bytes:
    return pickle.dumps(message, pickle.HIGHEST_PROTOCOL)


def _fork_context():
    """``fork`` where available: instant start, copy-on-write module state,
    and attaches that share the owner's resource tracker."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


def _reap(process, grace_s: float) -> None:
    process.join(timeout=grace_s)
    if process.is_alive():
        process.terminate()
        process.join(timeout=0.5)
    if process.is_alive():  # pragma: no cover - stubborn child
        process.kill()
        process.join(timeout=0.5)


class JobLost(ConnectionError):
    """A job the supervisor could not finish: ``outcome`` is ``"lost"``
    (its worker died or wedged), ``"starved"`` (no worker took it before
    its deadline) or ``"closed"``.  The engine retries it like any
    :class:`ConnectionError`."""

    def __init__(self, outcome: str, message: str) -> None:
        super().__init__(message)
        self.outcome = outcome


# --------------------------------------------------------------------------
# worker side (runs in the child process)
# --------------------------------------------------------------------------


def _portable(exc: BaseException) -> BaseException:
    """``exc`` when it survives a pickle round trip, else a RuntimeError
    naming it (the parent must be able to read every reply)."""
    try:
        pickle.loads(_dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_main(conn, heartbeat_s: float, owner_pid: int, owner_ends) -> None:
    """The one worker entry point: run jobs until stopped or orphaned.

    Owner → worker: ``("job", id, fn, handles, meta, payload, marker)``,
    ``("call", fn, args)`` (run between jobs, no reply), ``("stop",)``.
    Worker → owner: ``("hb", seq)`` from a daemon heartbeat thread,
    ``("done", id, (result, counter deltas, crc))`` and
    ``("raised", id, exception)``.
    """
    for end in owner_ends:
        end.close()
    faults.clear()  # decisions are the parent's: never double-count
    try:
        # SIGINT goes to the terminal's whole foreground group; stopping is
        # the owner's job.  A fork inherits the owner's Python SIGTERM
        # handler (``repro serve`` installs one to drain), but a worker must
        # die on SIGTERM; it was forked with SIGTERM blocked until now.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    except (ValueError, OSError):  # pragma: no cover - restricted platforms
        pass

    send_lock = threading.Lock()
    stop = threading.Event()

    def send(data: bytes) -> bool:
        try:
            with send_lock:
                conn.send_bytes(data)
            return True
        except (OSError, ValueError):
            return False

    def heartbeat() -> None:
        # Reparenting changes getppid: the owner died while another fork
        # still holds a copy of its pipe end.  (It passes its pid: it may
        # die before this runs.)
        seq = 0
        while not stop.wait(heartbeat_s):
            if os.getppid() != owner_pid:
                os._exit(_ORPHAN_EXIT_STATUS)
            seq += 1
            if not send(_dumps(("hb", seq))):
                return

    threading.Thread(target=heartbeat, name="repro-worker-hb", daemon=True).start()
    send(_dumps(("hb", 0)))  # announce readiness
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        if message[0] == "call":
            message[1](*message[2])
            continue
        _, job_id, fn, handles, meta, payload, marker = message
        try:
            arrays: Dict[str, Any] = {}
            for handle in handles:
                arrays.update(attach_pack_views(handle))
            result = _run_with_stats(fn, arrays, meta, payload, marker, True)
            data = _dumps(("done", job_id, result))
        except Exception as exc:
            data = _dumps(("raised", job_id, _portable(exc)))
        if not send(data):
            break
    stop.set()
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


# --------------------------------------------------------------------------
# owner side
# --------------------------------------------------------------------------


class _Job:
    __slots__ = ("job_id", "data", "timeout_s", "deadline", "future")

    def __init__(self, job_id: int, data: bytes, timeout_s: Optional[float]) -> None:
        self.job_id = job_id
        self.data = data
        self.timeout_s = timeout_s
        self.deadline = float("inf")
        self.future: Future = Future()

    def start_clock(self, now: float) -> None:
        if self.timeout_s is not None:
            self.deadline = now + self.timeout_s


class _Worker:
    __slots__ = (
        "slot", "process", "conn", "live", "last_hb", "jobs", "respawns", "respawn_at"
    )

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.process: Any = None
        self.conn: Any = None
        self.live = False
        self.last_hb = 0.0
        #: Jobs sent to the worker, in order; the head one is running.
        self.jobs: "deque[_Job]" = deque()
        self.respawns = 0
        self.respawn_at = 0.0


class Supervisor:
    """``workers`` supervised worker processes, one job running in each.

    ``name`` prefixes the metrics (``repro_<name>_worker_deaths_total``,
    ``…_worker_respawns_total``, ``…_heartbeats_dropped_total``,
    ``…_workers_live``); ``respawn`` schedules restarts; ``heartbeat_fault``
    names the point that drops a heartbeat.  A worker holds up to ``depth``
    jobs (with 2 it starts the next without a round trip; its death loses
    both).  The supervisor thread owns the worker records and settles the
    futures (their callbacks run there and must stay short).
    """

    def __init__(
        self,
        workers: int,
        name: str,
        respawn: Backoff,
        heartbeat_s: float = 0.25,
        liveness_timeout_s: Optional[float] = None,
        heartbeat_fault: Optional[str] = None,
        depth: int = 1,
    ) -> None:
        self.name = name
        self._depth = int(depth)
        self.heartbeat_s = float(heartbeat_s)
        self.liveness_timeout_s = (
            float(liveness_timeout_s)
            if liveness_timeout_s is not None
            else max(5.0 * self.heartbeat_s, 0.5)
        )
        self._respawn = respawn
        self._heartbeat_fault = heartbeat_fault
        self._ctx = _fork_context()
        self._tick = max(0.005, min(0.05, self.heartbeat_s / 2.0))
        self._ids = itertools.count(1)

        self._lock = threading.Lock()
        self._pending: "deque[_Job]" = deque()
        self._calls: "deque[bytes]" = deque()
        self._closed = False
        self.stats: Dict[str, int] = {
            "worker_deaths": 0,
            "respawns": 0,
            "heartbeats_dropped": 0,
        }

        # Start the owner's resource tracker *before* forking, so workers
        # share it (a private one would unlink the owner's segments when a
        # worker exits).
        try:
            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker internals vary
            pass
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        _own(self._wake_r, self._wake_w)
        self._workers = [_Worker(slot) for slot in range(int(workers))]
        self._by_conn: Dict[Any, _Worker] = {}
        now = time.monotonic()
        for worker in self._workers:
            self._spawn(worker, now)

        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._supervise, name=f"repro-{name}-supervisor", daemon=True
        )
        self._thread.start()

    # -- owner API ------------------------------------------------------------

    def submit(
        self,
        fn: Callable,
        handles: Sequence,
        meta: Dict[str, Any],
        payload: Any,
        marker: Optional[tuple] = None,
        timeout_s: Optional[float] = None,
        front: bool = False,
    ) -> Future:
        """Queue one job; its future resolves to ``(result, counter deltas,
        crc)`` or fails with the exception the job raised, or
        :class:`JobLost`.  ``front`` queues it ahead of every pending job
        (a failover)."""
        job_id = next(self._ids)
        message = ("job", job_id, fn, tuple(handles), meta, payload, marker)
        job = _Job(job_id, _dumps(message), timeout_s)
        job.start_clock(time.monotonic())
        with self._lock:
            closed = self._closed
            # A non-empty queue is still to be assigned: no wake needed.
            wake = not closed and not self._pending
            if not closed:
                (self._pending.appendleft if front else self._pending.append)(job)
        if closed:
            job.future.set_exception(JobLost("closed", "worker pool closed"))
        elif wake:
            self._wake()
        return job.future

    def broadcast(self, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` once on every live worker, between jobs."""
        with self._lock:
            self._calls.append(_dumps(("call", fn, args)))
        self._wake()

    def live_pids(self) -> List[int]:
        return [w.process.pid for w in self._workers if w.live]

    def health(self) -> Dict[str, Any]:
        """Per-worker rows (``state`` is ``healthy``, ``busy`` or
        ``respawning``) and the count of jobs waiting for a worker."""
        now = time.monotonic()
        with self._lock:
            pending = len(self._pending)
        rows = [
            {
                "slot": w.slot,
                "pid": w.process.pid if w.process is not None else None,
                "state": "busy" if w.jobs else "healthy" if w.live else "respawning",
                "respawns": w.respawns,
                "heartbeat_age_s": round(max(0.0, now - w.last_hb), 3),
            }
            for w in self._workers
        ]
        return {"workers": rows, "pending": pending}

    def stats_snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.stats)

    def close(self) -> None:
        """Stop the supervisor thread and the workers (idempotent); every
        unfinished job fails with :class:`JobLost` (``"closed"``)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        self._wake()
        if threading.current_thread() is not self._thread:  # (a GC finalizer)
            self._thread.join(timeout=10.0)
        for w in self._workers:
            if w.live:
                try:
                    w.conn.send(("stop",))
                except (OSError, ValueError):
                    pass
        leftovers = []
        for w in self._workers:
            if w.process is not None:
                _reap(w.process, 1.0)
            if w.conn is not None:
                _disown(w.conn)
            leftovers.extend(w.jobs)
            w.jobs.clear()
            w.live = False
        with self._lock:
            leftovers.extend(self._pending)
            self._pending.clear()
        for job in leftovers:
            self._settle(job, error=JobLost("closed", "worker pool closed"))
        _disown(self._wake_r, self._wake_w)

    # -- supervisor thread ------------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send_bytes(b"")
        except (OSError, ValueError):  # pragma: no cover - closing
            pass

    def _spawn(self, worker: _Worker, now: float) -> None:
        owner_conn, worker_conn = self._ctx.Pipe(duplex=True)
        _own(owner_conn)
        with _OWNER_ENDS_LOCK:
            owner_ends = tuple(_OWNER_ENDS)
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_conn, self.heartbeat_s, os.getpid(), owner_ends),
            name=f"repro-{self.name}-worker-{worker.slot}",
            daemon=True,
        )
        # Until the child installs SIG_DFL, a SIGTERM must wait (pending)
        # rather than reach the owner's handler it inherited.
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            process.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
            worker_conn.close()
        worker.process = process
        worker.conn = owner_conn
        worker.live = True
        worker.last_hb = now  # grace until the first heartbeat lands
        self._by_conn[owner_conn] = worker

    def _supervise(self) -> None:
        next_check = 0.0
        while not self._stop.is_set():
            conns = [w.conn for w in self._workers if w.live]
            conns.append(self._wake_r)
            try:
                ready = connection.wait(conns, timeout=self._tick)
            except OSError:  # pragma: no cover - conn torn down mid-wait
                ready = []
            for conn in ready:
                if conn is self._wake_r:
                    try:
                        while self._wake_r.poll():
                            self._wake_r.recv_bytes()
                    except (EOFError, OSError):  # pragma: no cover
                        pass
                    continue
                worker = self._by_conn.get(conn)
                if worker is not None and worker.live and not self._read(worker):
                    self._worker_died(worker, "pipe closed")
            now = time.monotonic()
            self._run_calls()
            if now >= next_check:  # once a tick, not once a reply
                next_check = now + self._tick
                self._check_workers(now)
                self._expire_pending(now)
                self._respawn_due(now)
                if obs_runtime._ENABLED:
                    obs_metrics.gauge(
                        f"repro_{self.name}_workers_live", "Workers in rotation"
                    ).set(sum(1 for w in self._workers if w.live))
            self._assign(now)

    def _read(self, worker: _Worker) -> bool:
        """Handle every message waiting in the worker's pipe; False on EOF."""
        try:
            while worker.conn.poll():
                self._handle(worker, worker.conn.recv())
            return True
        except (EOFError, OSError):
            return False

    def _handle(self, worker: _Worker, message) -> None:
        kind = message[0]
        if kind == "hb":
            # Chaos point: a lost heartbeat.  Enough in a row expire liveness
            # — a *spurious* death the owner's retry policy makes harmless.
            if self._heartbeat_fault and faults.decide(self._heartbeat_fault):
                self._count("heartbeats_dropped", "Worker heartbeats discarded")
            else:
                worker.last_hb = time.monotonic()
            return
        if not worker.jobs or worker.jobs[0].job_id != message[1]:
            return  # the late reply of a job already settled
        job = worker.jobs[0]
        if kind == "done":
            self._settle(job, result=message[2])
        else:
            self._settle(job, error=message[2])
        worker.jobs.popleft()
        if worker.jobs:
            worker.jobs[0].start_clock(time.monotonic())

    def _settle(self, job: _Job, result: Any = None, error: Any = None) -> None:
        if not job.future.done():
            if error is None:
                job.future.set_result(result)
            else:
                job.future.set_exception(error)

    def _run_calls(self) -> None:
        while True:
            with self._lock:
                if not self._calls:
                    return
                data = self._calls.popleft()
            for worker in self._workers:
                if not worker.live:
                    continue
                try:
                    worker.conn.send_bytes(data)
                except (OSError, ValueError):
                    self._worker_died(worker, "pipe closed")

    def _check_workers(self, now: float) -> None:
        for worker in self._workers:
            if not worker.live:
                continue
            if not worker.process.is_alive():
                self._worker_died(worker, "process exited")
            elif now - worker.last_hb > self.liveness_timeout_s:
                self._worker_died(worker, "heartbeat liveness expired")
            elif worker.jobs and now >= worker.jobs[0].deadline:
                # Wedged: alive, heartbeating, but the job never finishes.
                self._worker_died(worker, "job deadline exceeded (wedged)")

    def _count(self, key: str, help: str, metric: str = "", reason: str = "") -> None:
        with self._lock:
            self.stats[key] += 1
        if obs_runtime._ENABLED:
            name = f"repro_{self.name}_{metric or key}_total"
            if reason:
                obs_metrics.counter(name, help, ("reason",)).labels(reason).inc()
            else:
                obs_metrics.counter(name, help).inc()

    def _expire_pending(self, now: float) -> None:
        with self._lock:
            expired = [job for job in self._pending if now >= job.deadline]
            for job in expired:
                self._pending.remove(job)
        for job in expired:
            self._settle(
                job,
                error=JobLost(
                    "starved", f"no worker picked up the job within {job.timeout_s}s"
                ),
            )

    def _worker_died(self, worker: _Worker, reason: str) -> None:
        if not worker.live:
            return
        self._read(worker)  # salvage: a reply already sent beats a replay
        worker.live = False
        _reap(worker.process, 0.0)
        self._by_conn.pop(worker.conn, None)
        _disown(worker.conn)
        worker.respawns += 1
        worker.respawn_at = time.monotonic() + self._respawn.delay(worker.respawns - 1)
        self._count(
            "worker_deaths", "Workers removed from rotation, by reason",
            reason=reason.split(" ")[0],
        )
        for job in worker.jobs:
            self._settle(job, error=JobLost("lost", reason))
        worker.jobs.clear()

    def _respawn_due(self, now: float) -> None:
        if self._stop.is_set():
            return
        for worker in self._workers:
            if worker.live or now < worker.respawn_at:
                continue
            try:
                self._spawn(worker, now)
            except OSError:  # pragma: no cover - fork/pipe exhaustion
                worker.respawn_at = now + self._respawn.cap_s
                continue
            self._count(
                "respawns", "Worker processes restarted after death", "worker_respawns"
            )

    def _assign(self, now: float) -> None:
        # Breadth first: every idle worker gets a job before any gets two.
        for held in range(self._depth):
            for worker in self._workers:
                if not worker.live or len(worker.jobs) > held:
                    continue
                with self._lock:
                    if not self._pending:
                        return
                    job = self._pending.popleft()
                if not worker.jobs:
                    job.start_clock(now)
                worker.jobs.append(job)
                try:
                    worker.conn.send_bytes(job.data)
                except (OSError, ValueError):
                    self._worker_died(worker, "pipe closed")  # its jobs are lost
