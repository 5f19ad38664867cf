"""Sharded parallel execution backends for the batched ρ/δ kernels.

Parallel execution
------------------
This module shards the batched kernels (:mod:`repro.indexes.kernels`) over
*query chunks* and runs the chunks on workers, the shape the parallel-DPC
literature exploits ("Faster Parallel Exact Density Peaks Clustering",
Huang / Yu / Shun): every query's ρ count and δ search is independent of
every other query's, so a chunk is an embarrassingly parallel task over the
frozen index image.

Three backends share one chunk-planning code path (:func:`plan_chunks`):

* ``"serial"`` — the default: one chunk covering all queries, executed
  inline.  Zero overhead over the pre-backend code path.
* ``"threads"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`; useful
  for kernel sections that release the GIL (BLAS/einsum reductions) and for
  exercising the chunked path without process machinery.
* ``"process"`` — the forked workers of :class:`repro.supervisor.Supervisor`
  (which the serving tier's workers run on too; imported only when this
  rung first runs), each chunk one job with one attempt and no deadline —
  a chunk's run time grows with n, and heartbeats give liveness.  Workers
  attach **shared-memory** views of the index image by name: the point
  array, the FlatTree structure-of-arrays image, the grid CSR arrays or
  the N-List rows are published once per fit (:class:`ShmPack`), per-run
  inputs (density rows, order keys, ``maxrho``) through an ephemeral pack
  unlinked the moment the run's jobs settle.  No index is ever pickled.

Backend selection hangs off every index: ``DPCIndex(...,
backend="process", n_jobs=4, chunk_size=2048)`` or, after construction,
``index.set_execution(backend="process", n_jobs=4)``.  The tree and grid
sweeps shard the full ``(dc, chunk)`` — respectively ``(order, chunk)`` —
task grid, so a sweep keeps every worker busy even when one cut-off has
fewer chunks than workers; a list-family task answers every cut-off (or
order) of a sweep over its chunk of rows.

Bit-identity contract
---------------------
Results (ρ, δ, μ — and therefore labels and halo) and the
:class:`~repro.indexes.base.IndexStats` probe counters are **bit-identical**
across backends, worker counts and chunk sizes, ties and smaller-id μ
included.  Three properties make this hold:

* every kernel decision for query ``p`` reads only ``p``'s own state (its
  pruning radius, its candidate segments), never another query's;
* the distance kernels are elementwise (einsum over per-element
  differences, never shape-dependent BLAS reductions), so a row computed in
  a chunk of 7 equals the row computed in a chunk of 70 000;
* the list scan's column blocks have absolute boundaries — geometric,
  fixed by the scan block and the prefetch width alone
  (:func:`repro.indexes.kernels.scan_first_denser`) — so per-query counter
  contributions do not depend on which rows share a batch.

Workers return their probe-counter deltas; the parent folds them into the
index's counters (integer sums: merge order is irrelevant).

Failure, cleanup and fault tolerance
------------------------------------
A kernel's own error (a metric rejecting its input, a ``ValueError``) is
re-raised in the parent with its original type and message once the
run's in-flight chunks settled.  Ephemeral packs are unlinked in a
``finally``; a fit pack lives until a re-fit, ``index.release_execution()``
or garbage collection (a ``weakref.finalize`` guard), and workers exit on
their own when their owner dies, even by SIGKILL.

*Infrastructure* failures — a worker lost mid-job
(:class:`~repro.supervisor.JobLost`, a :class:`ConnectionError`), a segment
vanishing mid-run (``FileNotFoundError`` on attach), a result failing its
checksum (:class:`ChunkIntegrityError`) or an injected chaos fault
(:class:`~repro.faults.InjectedFault`) — are retried, only the failed
chunks, with seeded jittered backoff (:class:`Backoff`); after
``max_retries`` rounds the run *degrades* one rung, ``process → threads →
serial``, sticky until :meth:`ExecutionBackend.reset_degradation`.  A chunk
is a pure function of the frozen image, so degradation trades throughput,
never answers.  A result that crosses a process boundary carries a CRC-32
(:func:`_result_checksum`, the one rule for all a worker sends back) taken
in the worker and verified in the parent; an in-process result is
checksummed only when an injected ``parallel.corrupt`` fault is about to
flip one of its bytes.  :meth:`ExecutionBackend.health` records retries,
worker deaths and degradations (surfaced by ``ClusteringService.stats()``).
"""

from __future__ import annotations

import os
import random
import threading
import time
import uuid
import weakref
import zlib
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from multiprocessing import shared_memory

import numpy as np

from repro import faults
from repro.faults import InjectedFault
from repro.geometry.distance import get_metric
from repro.indexes.base import IndexStats
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.obs import trace as obs_trace
from repro.indexes.kernels import (
    FlatTree,
    bounded_searchsorted,
    grid_delta_batched,
    grid_rho_batched,
    histogram_sections,
    prefetch_scan_block,
    scan_first_denser,
    tree_delta_batched,
    tree_rho_batched,
)

__all__ = [
    "BACKENDS",
    "DEGRADE_TO",
    "RETRYABLE_ERRORS",
    "SHM_PREFIX",
    "ChunkIntegrityError",
    "ExecutionBackend",
    "ShmPack",
    "attach_pack_views",
    "detach_pack",
    "plan_chunks",
    "resolve_n_jobs",
    "metric_token",
    "metric_from_token",
    "run_index_tasks",
]

#: Recognised backend kinds (one chunk-planning code path for all three).
BACKENDS = ("serial", "threads", "process")

#: Degradation ladder: when one rung keeps failing, execution falls to the
#: next.  ``serial`` has no fallback — its failures propagate.
DEGRADE_TO = {"process": "threads", "threads": "serial", "serial": None}


class ChunkIntegrityError(RuntimeError):
    """A job's result failed its integrity checksum: it was corrupted in
    transit, so it is retried, never merged."""


#: Transient infrastructure faults (retry, then degrade).  Everything else
#: is deterministic and propagates with its original type and message.
RETRYABLE_ERRORS = (
    ChunkIntegrityError,
    InjectedFault,
    FileNotFoundError,  # a shm segment unlinked while tasks still attach
    ConnectionError,  # a worker lost mid-job (repro.supervisor.JobLost)
)

#: Segments are named ``<prefix>_<publisher pid>_<uuid>`` — recognisable in
#: /dev/shm, so a leak check can list exactly one process's segments.
SHM_PREFIX = "repro_shard"


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Worker count: ``None``/``0``/negative mean "all *usable* cores".

    Usable means the scheduling affinity mask (cgroup/taskset limits on
    containers and CI runners), not the box's total core count —
    ``os.cpu_count()`` on a 64-core host restricted to 4 cores would spawn
    a 16x-oversubscribed pool.  Platforms without ``sched_getaffinity``
    (macOS) fall back to ``cpu_count()``.
    """
    if n_jobs is None or n_jobs <= 0:
        try:
            usable = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - platform-dependent
            usable = os.cpu_count() or 1
        return max(1, usable)
    return int(n_jobs)


def plan_chunks(
    n: int, chunk_size: Optional[int], n_jobs: int
) -> List[Tuple[int, int]]:
    """Split ``n`` queries into contiguous ``(start, stop)`` chunks.

    The single planning code path shared by all backends.  ``chunk_size``
    wins when given (values ``>= n`` collapse to one chunk, ``1`` is legal);
    otherwise serial execution gets one chunk and parallel execution aims
    for ~4 chunks per worker so stragglers rebalance without drowning the
    run in per-task overhead.  Chunk boundaries never affect results or
    probe counters — only scheduling.
    """
    if n <= 0:
        return []
    if chunk_size is not None:
        size = max(1, int(chunk_size))
    elif n_jobs <= 1:
        size = n
    else:
        size = max(1, -(-n // (4 * n_jobs)))
    return [(start, min(start + size, n)) for start in range(0, n, size)]


def metric_token(metric) -> Tuple[str, Any]:
    """A picklable reference to ``metric`` for worker processes.

    Registered (or name-materialisable, e.g. ``minkowski[p=3]``) metrics
    travel by name and are re-resolved in the worker; unregistered custom
    metrics travel as the :class:`~repro.geometry.distance.Metric` object
    itself, which pickles whenever its kernel functions are module-level.
    """
    m = get_metric(metric)
    try:
        get_metric(m.name)
    except KeyError:
        return ("obj", m)
    return ("name", m.name)


def metric_from_token(token: Tuple[str, Any]):
    kind, value = token
    return value if kind == "obj" else get_metric(value)


class Backoff:
    """The one retry/respawn schedule: the ``k``-th delay is
    ``min(cap_s, base_s * 2**k)`` times a draw from ``[0.5, 1.5)`` of
    ``random.Random(seed)``, so recovery timing replays exactly."""

    def __init__(self, base_s: float, cap_s: float, seed: int) -> None:
        self.base_s = float(base_s)
        self.cap_s = float(cap_s)
        self._rng = random.Random(seed)

    def delay(self, k: int) -> float:
        return min(self.cap_s, self.base_s * 2.0 ** k) * (0.5 + self._rng.random())


# ---------------------------------------------------------------------------
# Shared-memory packs
# ---------------------------------------------------------------------------

_ALIGN = 64  # cache-line alignment for each array inside a segment


def _destroy_segment(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except OSError:  # pragma: no cover - already closed
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


class ShmPack:
    """Several named arrays published into one shared-memory segment.

    The publisher owns the segment: :meth:`close` unlinks it, as does a
    :func:`weakref.finalize` guard at garbage collection.  :attr:`handle`
    is the small picklable descriptor workers attach by
    (:func:`attach_pack_views`).
    """

    def __init__(self, arrays: Dict[str, np.ndarray]):
        specs: Dict[str, Tuple[str, Tuple[int, ...], int]] = {}
        offset = 0
        prepared: Dict[str, np.ndarray] = {}
        for key, value in arrays.items():
            arr = np.ascontiguousarray(value)
            prepared[key] = arr
            offset = -(-offset // _ALIGN) * _ALIGN
            specs[key] = (arr.dtype.str, arr.shape, offset)
            offset += arr.nbytes
        name = f"{SHM_PREFIX}_{os.getpid()}_{uuid.uuid4().hex[:12]}"
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, offset), name=name
        )
        for key, arr in prepared.items():
            dtype, shape, off = specs[key]
            view = np.ndarray(shape, dtype=dtype, buffer=self._shm.buf, offset=off)
            view[...] = arr
        #: (segment name, per-array (dtype, shape, offset)) — picklable.
        self.handle: Tuple[str, Dict[str, Tuple[str, Tuple[int, ...], int]]] = (
            name,
            specs,
        )
        self._finalizer = weakref.finalize(self, _destroy_segment, self._shm)
        if obs_runtime._ENABLED:
            obs_metrics.counter(
                "repro_shm_publishes_total", "Shared-memory packs published"
            ).inc()
            obs_metrics.counter(
                "repro_shm_publish_bytes_total", "Bytes published into shared memory"
            ).inc(max(1, offset))

    @property
    def name(self) -> str:
        return self.handle[0]

    def close(self) -> None:
        """Unlink the segment (idempotent).  Workers already attached keep
        their mappings; new attaches fail, which is the point — a released
        pack must never serve another task."""
        self._finalizer()

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive


# Worker-side LRU of attached packs by (unique) segment name; the cap
# bounds mappings across runs, and the fit pack every task touches stays
# recent while ephemeral run packs churn.
_ATTACHED: "OrderedDict[str, Tuple[shared_memory.SharedMemory, Dict[str, np.ndarray]]]" = (
    OrderedDict()
)
_ATTACH_CAP = 16


def attach_pack_views(handle) -> Dict[str, np.ndarray]:
    """Attach (or fetch from cache) the arrays behind a pack handle.  (In a
    worker the attach counter lands in the worker's metrics registry.)"""
    if obs_runtime._ENABLED:
        obs_metrics.counter(
            "repro_shm_attaches_total", "Shared-memory pack attach calls (per process)"
        ).inc()
    name, specs = handle
    cached = _ATTACHED.get(name)
    if cached is not None:
        _ATTACHED.move_to_end(name)
        return cached[1]
    # The attach registers the name with the resource tracker a forked
    # worker shares with its owner, whose per-name set absorbs it: the
    # owner's unlink still balances the registration.
    shm = shared_memory.SharedMemory(name=name)
    views = {
        key: np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
        for key, (dtype, shape, off) in specs.items()
    }
    if len(_ATTACHED) >= _ATTACH_CAP:
        oldest = next(iter(_ATTACHED))
        old_shm, _ = _ATTACHED.pop(oldest)
        try:
            old_shm.close()
        except (OSError, BufferError):  # pragma: no cover - views still alive
            pass  # the mmap goes when the last view dies
    _ATTACHED[name] = (shm, views)
    return views


def detach_pack(name: str) -> bool:
    """Drop this process's cached attachment to segment ``name``: a
    serving worker's hook when a snapshot image is retired.  Views still
    referenced keep the mapping alive.  True when one was dropped."""
    cached = _ATTACHED.pop(name, None)
    if cached is None:
        return False
    shm, _ = cached
    try:
        shm.close()
    except (OSError, BufferError):  # pragma: no cover - views still alive
        pass
    return True


# ---------------------------------------------------------------------------
# Job execution
# ---------------------------------------------------------------------------


def _result_checksum(result: Any) -> int:
    """CRC-32 over a job result: the one rule for all a worker sends back.

    Arrays hash by dtype, shape and bytes; dicts by sorted key, sequences
    in order and other objects (a ``DPCQuantities``, its density order) by
    their attributes, recursively; scalars and enums by ``repr`` — never an
    array, whose ``repr`` numpy truncates.
    """
    return _crc32(result, 0)


def _crc32(value: Any, crc: int) -> int:
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        crc = zlib.crc32(f"{arr.dtype.str}{arr.shape}".encode(), crc)
        return zlib.crc32(arr, crc)
    if isinstance(value, (list, tuple)):
        for item in value:
            crc = _crc32(item, crc)
        return crc
    if value is None or isinstance(value, (str, bytes, int, float, Enum, np.generic)):
        return zlib.crc32(repr(value).encode(), crc)
    if not isinstance(value, dict):
        slots = getattr(type(value), "__slots__", None)
        value = {s: getattr(value, s) for s in slots} if slots else vars(value)
    for key in sorted(value):
        crc = zlib.crc32(str(key).encode(), crc)
        crc = _crc32(value[key], crc)
    return crc


def _corrupt_result(result: Dict[str, Any]) -> Dict[str, Any]:
    """Bit-flip one byte of one result array (after the checksum ran)."""
    corrupted = dict(result)
    for key in sorted(corrupted):
        value = corrupted[key]
        if isinstance(value, np.ndarray) and value.size:
            bad = np.ascontiguousarray(value).copy()
            bad.view(np.uint8).reshape(-1)[0] ^= 0xFF
            corrupted[key] = bad
            break
    return corrupted


def _run_with_stats(fn, arrays, meta, payload, marker=None, in_worker=False):
    """Run one job ``fn(arrays, meta, payload, stats)``: ``(result, counter
    deltas, crc)``.

    The job's fault marker is enacted first (:func:`repro.faults.enact`).
    ``crc`` is ``None`` unless the result crosses a process boundary
    (``in_worker``) or the marker is about to corrupt it.
    """
    corrupt = faults.enact(marker, in_worker)
    stats = IndexStats()
    result = fn(arrays, meta, payload, stats)
    crc = _result_checksum(result) if in_worker or corrupt else None
    if corrupt:
        result = _corrupt_result(result)
    return result, stats.as_dict(), crc


def _accept_result(triple) -> Tuple[Any, Dict[str, int]]:
    """Verify a job's integrity checksum (when it carries one) before its
    result is used."""
    result, stats_delta, crc = triple
    if crc is not None and _result_checksum(result) != crc:
        raise ChunkIntegrityError(
            "job result failed its integrity checksum "
            "(payload corrupted in transit)"
        )
    return result, stats_delta


def _merge_stats(stats: IndexStats, delta: Dict[str, int]) -> None:
    for key, value in delta.items():
        setattr(stats, key, getattr(stats, key) + value)


def _observe_chunk_seconds(seconds: float) -> None:
    obs_metrics.histogram(
        "repro_parallel_chunk_seconds",
        "Per-chunk task latency (submit to settle)",
    ).observe(seconds)


class ExecutionBackend:
    """A configured execution policy plus its lazily created worker pool.

    One instance can be shared by several indexes (pass it as the
    ``backend=`` argument); the pool spins up on first use and is torn down
    by :meth:`shutdown` (or interpreter exit).  The object itself is
    stateless with respect to any particular index — fit-time shard packs
    belong to the index, per-run packs to the run.
    """

    def __init__(
        self,
        kind: str = "serial",
        n_jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
        max_retries: int = 2,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 1.0,
        retry_seed: int = 0,
    ):
        if kind not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {kind!r}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_base_s < 0 or backoff_max_s < 0:
            raise ValueError("backoff durations must be >= 0")
        self.kind = kind
        self.n_jobs = 1 if kind == "serial" else resolve_n_jobs(n_jobs)
        self.chunk_size = chunk_size
        #: Backoff rounds per ladder rung before degrading; the jitter (and
        #: the process rung's respawn jitter) is seeded, so chaos replays.
        self.max_retries = int(max_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.retry_seed = int(retry_seed)
        self._pool = None  # a ThreadPoolExecutor or a repro.supervisor.Supervisor
        self._pool_kind: Optional[str] = None
        self._degraded_kind: Optional[str] = None
        self._health_lock = threading.Lock()
        self._health = {
            "chunk_failures": 0,
            "retries": 0,
            "worker_deaths": 0,
            "degradations": 0,
        }
        self._last_error: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutionBackend({self.kind!r}, n_jobs={self.n_jobs}, "
            f"chunk_size={self.chunk_size})"
        )

    # -- planning ------------------------------------------------------------

    def plan(self, n: int) -> List[Tuple[int, int]]:
        """Chunk boundaries for ``n`` queries under this policy."""
        return plan_chunks(n, self.chunk_size, self.n_jobs)

    # -- degradation / health --------------------------------------------------

    @property
    def effective_kind(self) -> str:
        """The rung runs start on: the configured kind, or the sticky
        degraded one after repeated failures."""
        return self._degraded_kind or self.kind

    @property
    def degraded(self) -> bool:
        return self._degraded_kind is not None

    def health(self) -> Dict[str, Any]:
        """Counters + degradation state for observability (JSON-friendly);
        ``worker_deaths`` counts process-rung workers lost (and respawned)."""
        with self._health_lock:
            snapshot = dict(self._health)
            last_error = self._last_error
        pool, pool_kind = self._pool, self._pool_kind
        if pool_kind == "process" and pool is not None:
            snapshot["worker_deaths"] += pool.stats_snapshot()["worker_deaths"]
        return {
            "kind": self.kind,
            "effective_kind": self.effective_kind,
            "degraded": self.degraded,
            "last_error": last_error,
            **snapshot,
        }

    def reset_degradation(self) -> None:
        """Return to the configured rung (after the operator fixed the cause)."""
        with self._health_lock:
            self._degraded_kind = None

    def _note(self, key: str, count: int, error: Optional[BaseException]) -> None:
        with self._health_lock:
            self._health[key] += count
            if error is not None:
                self._last_error = f"{type(error).__name__}: {error}"
        if obs_runtime._ENABLED:
            help = "Chunk attempts failed" if key == "chunk_failures" else "Retry rounds"
            obs_metrics.counter(f"repro_parallel_{key}_total", help).inc(count)

    def _degrade_to(self, kind: str, error: Optional[BaseException]) -> None:
        with self._health_lock:
            self._degraded_kind = kind
            self._health["degradations"] += 1
            if error is not None:
                self._last_error = f"{type(error).__name__}: {error}"
        if obs_runtime._ENABLED:
            obs_metrics.counter(
                "repro_parallel_degradations_total",
                "Ladder degradations (process -> threads -> serial)",
                ("to",),
            ).labels(kind).inc()
        self._teardown_pool(wait=False)

    # -- pool lifecycle --------------------------------------------------------

    def _ensure_pool(self, kind: str):
        if self._pool is not None and self._pool_kind != kind:
            self._teardown_pool(wait=False)
        if self._pool is None:
            if kind == "threads":
                self._pool = ThreadPoolExecutor(max_workers=self.n_jobs)
            else:
                from repro.supervisor import Supervisor

                respawn = Backoff(0.05, 2.0, self.retry_seed)
                self._pool = Supervisor(self.n_jobs, "parallel", respawn=respawn, depth=2)
                # A backend dropped without shutdown() still stops its workers.
                self._close_workers = weakref.finalize(self, self._pool.close)
            self._pool_kind = kind
        return self._pool

    def _teardown_pool(self, wait: bool) -> None:
        pool, pool_kind = self._pool, self._pool_kind
        self._pool, self._pool_kind = None, None
        if pool_kind == "threads":
            pool.shutdown(wait=wait, cancel_futures=True)
        elif pool is not None:
            self._close_workers()
            with self._health_lock:
                self._health["worker_deaths"] += pool.stats_snapshot()["worker_deaths"]

    def shutdown(self) -> None:
        """Tear down the worker pool (a later run recreates it)."""
        self._teardown_pool(wait=True)


# -- the chunk supervisor -----------------------------------------------------


def _wave_outcomes(futures: "List[Future]") -> List[Tuple[bool, Any]]:
    """Settle every future; per-payload ``(ok, value_or_exception)``.

    No early cancel: in-flight chunks are awaited even after a failure, so
    nothing can touch a shared-memory pack the caller is about to free.
    """
    outcomes: List[Tuple[bool, Any]] = []
    for future in futures:
        try:
            outcomes.append((True, future.result()))
        except BaseException as exc:
            outcomes.append((False, exc))
    return outcomes


def _submit_timed(pool, *args):
    """Submit one chunk; per-chunk latency is observed at settle time."""
    t0 = time.perf_counter()
    future = pool.submit(*args)
    future.add_done_callback(
        lambda _f, _t0=t0: _observe_chunk_seconds(time.perf_counter() - _t0)
    )
    return future


def _run_wave(backend, kind, fn, arrays, meta, wave, markers):
    """One attempt over the wave: per-payload ``(ok, value_or_exception)``.

    ``arrays`` are in-process array references (serial/threads) or the
    shared-memory pack handles the process rung's workers attach.
    """
    record = obs_runtime._ENABLED
    if kind == "serial" or (kind == "threads" and len(wave) <= 1):
        outcomes = []
        for payload, marker in zip(wave, markers):
            t0 = time.perf_counter() if record else 0.0
            try:
                triple = _run_with_stats(fn, arrays, meta, payload, marker)
                outcomes.append((True, triple))
            except BaseException as exc:
                outcomes.append((False, exc))
            if record:
                _observe_chunk_seconds(time.perf_counter() - t0)
        return outcomes
    if kind == "threads":
        pool, head = backend._ensure_pool("threads"), (_run_with_stats, fn, arrays)
    else:
        pool, head = backend._ensure_pool("process"), (fn, arrays)
    jobs = [(*head, meta, p, m) for p, m in zip(wave, markers)]
    if record:
        return _wave_outcomes([_submit_timed(pool, *job) for job in jobs])
    return _wave_outcomes([pool.submit(*job) for job in jobs])


def _wave_markers(n: int) -> List[Optional[tuple]]:
    """Chaos-plan fault markers for one wave's ``n`` chunks.

    Decisions happen here in the parent (deterministic occurrence
    counting); workers only enact the marker.  Every attempt decides anew:
    a retried chunk runs clean unless the plan trips again.
    """
    if faults.active_plan() is None:
        return [None] * n
    return [
        faults.marker("parallel.worker")
        or faults.marker("parallel.slow")
        or faults.marker("parallel.corrupt")
        for _ in range(n)
    ]


def run_index_tasks(
    index,
    fn: Callable,
    payloads: Sequence[dict],
    run_arrays: Optional[Dict[str, np.ndarray]] = None,
) -> List[dict]:
    """Execute one sharded kernel call for ``index``, fault-tolerantly.

    ``fn`` is a module-level task function ``fn(arrays, meta, payload,
    stats) -> dict`` (one of the ``*_task`` functions below).  ``arrays``
    unions the index's fit-time shard arrays (``index._shard_arrays()``)
    with the per-run ``run_arrays``; ``meta`` is the index's picklable
    ``_shard_meta()`` plus the metric token.  Under the process backend the
    fit arrays are published once per fit (and reused by every later call),
    the run arrays once per run; the run pack is unlinked in a ``finally``
    whatever happens to the chunks.

    Chunks that fail with a :data:`RETRYABLE_ERRORS` infrastructure fault
    (worker death, vanished shm segment, corrupted result, injected chaos
    fault) are retried with seeded, jittered exponential backoff; after
    ``backend.max_retries`` exhausted rounds the run degrades one ladder
    rung (``process → threads → serial``) and continues with only the
    still-failed chunks.  Results and probe counters are bit-identical on
    every rung; only *accepted* attempts' counters are merged, so a failed
    attempt never skews the totals.  Deterministic kernel errors propagate
    immediately with their original type and message.

    Returns the per-payload result dicts in payload order; each accepted
    task's counter deltas are folded into ``index._stats``.
    """
    backend: ExecutionBackend = index._execution()
    meta = dict(index._shard_meta())
    meta["metric"] = metric_token(index.metric)
    n_tasks = len(payloads)
    if n_tasks == 0:
        return []
    accepted: List[Optional[Tuple[dict, Dict[str, int]]]] = [None] * n_tasks
    pending = list(range(n_tasks))
    kind = backend.effective_kind
    retries_left = backend.max_retries
    attempt = 0
    backoff = Backoff(backend.backoff_base_s, backend.backoff_max_s, backend.retry_seed)
    local_arrays: Optional[Dict[str, np.ndarray]] = None
    run_pack: Optional[ShmPack] = None
    last_error: Optional[BaseException] = None
    run_span = obs_trace.begin_span("parallel.tasks", kind=kind, tasks=n_tasks)
    waves = 0

    def _local_arrays() -> Dict[str, np.ndarray]:
        nonlocal local_arrays
        if local_arrays is None:
            local_arrays = dict(index._shard_arrays())
            if run_arrays:
                local_arrays.update(run_arrays)
        return local_arrays

    try:
        while pending:
            wave = [payloads[i] for i in pending]
            markers = _wave_markers(len(wave))
            waves += 1
            if obs_runtime._ENABLED:
                obs_metrics.counter(
                    "repro_parallel_tasks_total",
                    "Chunk tasks dispatched, by execution rung",
                    ("kind",),
                ).labels(kind).inc(len(wave))
            wave_span = obs_trace.begin_span(
                "parallel.wave", parent=run_span, kind=kind, tasks=len(wave)
            )
            if kind == "process":
                if index._shard_pack is None:
                    index._shard_pack = ShmPack(index._shard_arrays())
                arrays = [index._shard_pack.handle]
                if run_arrays:
                    if run_pack is None or run_pack.closed:
                        run_pack = ShmPack(run_arrays)
                    arrays.append(run_pack.handle)
                if faults.decide("parallel.shm_unlink") is not None:
                    # The injected unlink race: the run pack vanishes while
                    # this wave's tasks are still attaching.
                    if run_pack is not None:
                        run_pack.close()
                    else:
                        index._release_shards()
            else:
                arrays = _local_arrays()
            outcomes = _run_wave(backend, kind, fn, arrays, meta, wave, markers)
            wave_span.finish()
            still_failed: List[int] = []
            for task_index, (ok, value) in zip(pending, outcomes):
                if ok:
                    try:
                        accepted[task_index] = _accept_result(value)
                        continue
                    except ChunkIntegrityError as exc:
                        value = exc
                if not isinstance(value, RETRYABLE_ERRORS):
                    raise value  # deterministic error: original type/message
                still_failed.append(task_index)
                last_error = value
            wave_span.set("failed", len(still_failed))
            if not still_failed:
                break
            backend._note("chunk_failures", len(still_failed), last_error)
            pending = still_failed
            if retries_left > 0:
                retries_left -= 1
                backend._note("retries", 1, None)
                delay = backoff.delay(attempt)
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
            else:
                next_kind = DEGRADE_TO[kind]
                if next_kind is None:
                    raise last_error
                backend._degrade_to(next_kind, last_error)
                kind = next_kind
                retries_left = backend.max_retries
                attempt = 0
    finally:
        run_span.set("waves", waves)
        run_span.set("final_kind", kind)
        run_span.finish()
        if run_pack is not None:
            run_pack.close()
    results = []
    for entry in accepted:
        result, stats_delta = entry
        _merge_stats(index._stats, stats_delta)
        results.append(result)
    return results


# ---------------------------------------------------------------------------
# Task functions (module-level: picklable by reference)
# ---------------------------------------------------------------------------
#
# Every task reads its inputs from `arrays` (fit pack ∪ run pack), static
# facts from `meta`, chunk coordinates from `payload`, and accumulates probe
# counters into the fresh `stats` it was handed.  Payloads carry only plain
# scalars, so a task pickles in a few dozen bytes.


def csr_rho_task(arrays, meta, payload, stats):
    """Row-sharded list-family ρ: one bounded binary search over the chunk's
    ``(rows, cut-offs)`` grid of search ranges.

    ``needles`` are the cut-offs and ``bins`` / ``on_edge`` their target
    bins, resolved once by the caller so every chunk decides alike.  With
    cumulative histograms in the image (CH, RN-CH) a range is the section
    :func:`~repro.indexes.kernels.histogram_sections` gives, and its entries
    count as scanned; without them (List, RN-List) a row is one bin, and a
    range is the whole row, or empty at the row's end for a cut-off past it
    (``bins > 0``: beyond τ).  An empty range answers without a search, and
    only a non-empty one counts as a binary search.  The ``(rows,
    cut-offs)`` result is chunk-local and re-assembled by the caller.
    """
    start, stop = payload["start"], payload["stop"]
    offsets = arrays["offsets"]
    row_lo, row_hi = offsets[start:stop, None], offsets[start + 1 : stop + 1, None]
    bins = np.asarray(payload["bins"], dtype=np.int64)
    if "hist_values" in arrays:
        first, last = histogram_sections(
            arrays["hist_offsets"][start : stop + 1],
            arrays["hist_values"],
            bins,
            np.asarray(payload["on_edge"], dtype=bool),
        )
        lo, hi = row_lo + first, row_lo + last
        stats.objects_scanned += int((last - first).sum())
    else:
        # Whole rows stay (rows, 1) ranges unless a cut-off lies past them.
        lo, hi = row_lo, row_hi
        if bins.any():
            lo = np.where(bins > 0, row_hi, row_lo)
    needles = np.asarray(payload["needles"], dtype=np.float64)[None, :]
    pos = bounded_searchsorted(arrays["dists"], lo, hi, needles)
    stats.binary_searches += int(np.count_nonzero(np.broadcast_to(hi > lo, pos.shape)))
    return {"rho": pos - row_lo}


def scan_delta_task(arrays, meta, payload, stats):
    """Row-sharded near-to-far δ scans over the list family's CSR rows.

    One task covers rows ``[start, stop)`` for *every* density order of the
    sweep (rows of ``arrays["keys"]``, one for a single order): the
    candidate layout — and hence the prefetched first ``min(8, block)``
    columns — is ``dc``-independent, so it is gathered once per chunk and
    reused across all orders.  The first block is that narrow because it
    still resolves almost every row (Theorem 1) while keeping the per-order
    key compare cheap.  Returns ``(n_orders, stop - start)`` result rows.
    """
    start, stop = payload["start"], payload["stop"]
    block = payload["block"]
    offsets = arrays["offsets"][start : stop + 1]
    ids, dists = arrays["ids"], arrays["dists"]
    qid = np.arange(start, stop, dtype=np.int64)
    prefetch = prefetch_scan_block(offsets, ids, dists, min(8, block))
    deltas, mus = [], []
    for key in arrays["keys"]:
        delta, mu, _resolved, scanned = scan_first_denser(
            offsets, ids, dists, key, block=block, prefetch=prefetch, qid=qid
        )
        stats.objects_scanned += scanned
        deltas.append(delta)
        mus.append(mu)
    return {"delta": np.stack(deltas), "mu": np.stack(mus)}


def _flat_from_arrays(arrays, meta) -> FlatTree:
    return FlatTree.from_arrays(arrays, meta["levels"], meta["n_nodes"])


def tree_rho_task(arrays, meta, payload, stats):
    """Query-sharded Algorithm 5 over the shared flattened tree image."""
    start, stop = payload["start"], payload["stop"]
    counts = tree_rho_batched(
        _flat_from_arrays(arrays, meta),
        arrays["points"],
        payload["dc"],
        metric_from_token(meta["metric"]),
        stats,
        qid=np.arange(start, stop, dtype=np.int64),
    )
    return {"rho": counts}


def tree_delta_task(arrays, meta, payload, stats):
    """One ``(order, chunk)`` cell of the sharded frontier-batched δ engine.

    ``arrays["qid"]`` holds the sweep's concatenated non-peak query ids
    (per-order segments contiguous); the chunk covers absolute positions
    ``[a, b)`` of it, all belonging to order ``payload["order"]``.
    """
    a, b, o = payload["a"], payload["b"], payload["order"]
    qid = arrays["qid"][a:b]
    delta, mu = tree_delta_batched(
        _flat_from_arrays(arrays, meta),
        arrays["points"],
        qid,
        np.zeros(len(qid), dtype=np.int64),
        arrays["rho_rows"][o : o + 1],
        arrays["key_rows"][o : o + 1],
        metric_from_token(meta["metric"]),
        stats,
        density_pruning=meta["density_pruning"],
        distance_pruning=meta["distance_pruning"],
        maxrho=arrays["maxrho"][o : o + 1],
    )
    return {"delta": delta, "mu": mu}


def grid_rho_task(arrays, meta, payload, stats):
    """Cell-locality-sharded Observation-1 ρ over the shared grid arrays.

    The chunk is a slice of the *cell-sorted* id array, so each task walks
    a contiguous run of home cells instead of re-sweeping every occupied
    cell; the caller scatters the counts back into object-id order.
    """
    start, stop = payload["start"], payload["stop"]
    qid = arrays["ids"][start:stop]
    counts = grid_rho_batched(
        arrays["points"],
        qid,
        payload["dc"],
        meta["w"],
        arrays["grid_lo"],
        tuple(meta["shape"]),
        arrays["offsets"],
        arrays["ids"],
        arrays["cell_of"],
        metric_from_token(meta["metric"]),
        stats,
    )
    return {"rho": counts}


def grid_delta_task(arrays, meta, payload, stats):
    """One ``(order, chunk)`` cell of the sharded expanding-ring δ engine."""
    a, b, o = payload["a"], payload["b"], payload["order"]
    qid = arrays["qid"][a:b]
    delta, mu = grid_delta_batched(
        arrays["points"],
        qid,
        np.zeros(len(qid), dtype=np.int64),
        arrays["rho_rows"][o : o + 1],
        arrays["key_rows"][o : o + 1],
        arrays["cell_maxrho"][o : o + 1],
        arrays["offsets"],
        arrays["ids"],
        arrays["cell_of"],
        arrays["grid_lo"],
        meta["w"],
        tuple(meta["shape"]),
        metric_from_token(meta["metric"]),
        stats,
    )
    return {"delta": delta, "mu": mu}
