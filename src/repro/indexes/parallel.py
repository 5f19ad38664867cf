"""Sharded parallel execution backends for the batched ρ/δ kernels.

Parallel execution
------------------
PR 1 and PR 2 rewrote every per-object query loop onto the batched kernel
layer (:mod:`repro.indexes.kernels`); this module shards those kernels over
*query chunks* and runs the chunks on worker pools.  The work is exactly the
shape the parallel-DPC literature exploits ("Faster Parallel Exact Density
Peaks Clustering", Huang / Yu / Shun): every query's ρ count and δ search is
independent of every other query's, so a chunk of queries is an embarrassingly
parallel task over the frozen index image.

Three backends share one chunk-planning code path (:func:`plan_chunks`):

* ``"serial"`` — the default: one chunk covering all queries, executed
  inline.  Zero overhead over the pre-backend code path.
* ``"threads"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`; useful
  for kernel sections that release the GIL (BLAS/einsum reductions) and for
  exercising the chunked path without process machinery.
* ``"process"`` — a :class:`~concurrent.futures.ProcessPoolExecutor` over
  **shared-memory** views of the index image: the point array, the FlatTree
  structure-of-arrays image, the grid CSR arrays, or the N-List rows are
  published once per fit into :class:`multiprocessing.shared_memory` segments
  (:class:`ShmPack`), and workers attach by name — no index is ever pickled
  per task.  Per-run inputs (density rows, order keys, ``maxrho``
  annotations) travel through a second, ephemeral pack that is unlinked the
  moment the run's futures settle.

Backend selection hangs off every index: ``DPCIndex(...,
backend="process", n_jobs=4, chunk_size=2048)`` or, after construction,
``index.set_execution(backend="process", n_jobs=4)``.  Multi-``dc`` sweeps
shard the full ``(dc, chunk)`` — respectively ``(order, chunk)`` — task
grid, so a sweep keeps every worker busy even when one cut-off has fewer
chunks than workers.

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

Workers accumulate probe counters into a private
:class:`~repro.indexes.base.IndexStats` and return the deltas; the parent
folds them into the index's counters.  Counter totals are integer sums, so
merge order is irrelevant and the seed counter semantics survive sharding.

Failure / cleanup contract
--------------------------
An exception raised inside a worker chunk (e.g. a metric that rejects its
input) is re-raised in the parent with its original type and message;
in-flight chunks are awaited first, and ephemeral shared-memory segments
are unlinked in a ``finally`` block, so a failed run leaks nothing.
Fit-time packs live until the index is re-fitted (``fit`` invalidates
shard plans and unlinks the pack — stale images can never serve a new
dataset), explicitly released (``index.release_execution()``), or
garbage-collected (a ``weakref.finalize`` guard unlinks the segment even
on abandoned indexes).

Fault tolerance
---------------
*Infrastructure* failures — a worker process dying
(:class:`~concurrent.futures.BrokenExecutor`), a shared-memory segment
vanishing mid-run (``FileNotFoundError`` on attach), a chunk result failing
its integrity checksum (:class:`ChunkIntegrityError`), or an injected chaos
fault (:class:`~repro.faults.InjectedFault`) — are **retryable**: the
failed chunks (only those) are re-executed with jittered exponential
backoff, and after ``max_retries`` exhausted rounds the run *degrades* one
rung down the ladder ``process → threads → serial`` and continues there.
Because every chunk is a pure function of the frozen index image, a chunk
recomputed on any rung returns bit-identical results and probe counters —
degradation trades throughput, never answers.  Deterministic (non-injected)
errors raised by the kernels themselves — a metric rejecting its input, a
``ValueError`` — stay fail-fast with their original type and message.

Every chunk result that crosses a process boundary carries a CRC-32
computed in the worker *after* the kernels ran; the parent re-verifies it
before accepting, so a payload corrupted in transit (shared memory,
pickling) is retried instead of silently merged.  A result of the
``serial`` and ``threads`` rungs never leaves the process, so it is
checksummed only when an injected ``parallel.corrupt`` fault is about to
flip one of its bytes.  Retries, pool breaks and degradations are recorded
on the :class:`ExecutionBackend` (:meth:`ExecutionBackend.health`), which
the serving layer surfaces through ``ClusteringService.stats()``; a
degraded backend stays on its rung until
:meth:`ExecutionBackend.reset_degradation`.
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
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import multiprocessing
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro import faults
from repro.faults import InjectedFault, WorkerCrashError
from repro.geometry.distance import get_metric
from repro.indexes.base import IndexStats
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.obs import trace as obs_trace
from repro.indexes.kernels import (
    FlatTree,
    bounded_searchsorted,
    ch_rho_from_histograms,
    grid_delta_batched,
    grid_rho_batched,
    prefetch_scan_block,
    row_searchsorted,
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
    """A worker chunk's result failed its integrity checksum.

    The checksum is computed in the worker after the kernels ran and
    re-verified in the parent, so this means the payload was corrupted in
    transit (shared memory, pickling) — the chunk is retried, never merged.
    """


#: Failure types the chunk supervisor treats as transient infrastructure
#: faults (retry, then degrade).  Everything else — kernel ``ValueError``s,
#: metric ``TypeError``s — is deterministic and propagates immediately with
#: its original type and message.
RETRYABLE_ERRORS = (
    BrokenExecutor,
    ChunkIntegrityError,
    InjectedFault,
    FileNotFoundError,  # a shm segment unlinked while tasks still attach
    ConnectionError,  # a dying pool's pipes
    EOFError,
)

#: Shared-memory segment name prefix — recognisable in /dev/shm, so leak
#: checks (tests, ops) can assert nothing of ours is left behind.
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

    The publisher (the parent process) owns the segment: :meth:`close`
    unlinks it, and a :func:`weakref.finalize` guard unlinks it at garbage
    collection even if nobody calls :meth:`close`.  :attr:`handle` is the
    small picklable descriptor workers use to attach
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


# Worker-side cache of attached packs, keyed by segment name.  Names are
# unique per pack (uuid), so a cached entry can never alias a different
# pack; the cap bounds mapping growth across many runs/fits.  True LRU:
# hits refresh recency, so the fit-time pack — touched by every task —
# can never become the eviction victim while ephemeral run packs churn.
_ATTACHED: "OrderedDict[str, Tuple[shared_memory.SharedMemory, Dict[str, np.ndarray]]]" = (
    OrderedDict()
)
_ATTACH_CAP = 16

#: Start method of the pool this worker belongs to (set by _worker_init).
_WORKER_START_METHOD: Optional[str] = None


def _worker_init(start_method: str) -> None:
    global _WORKER_START_METHOD
    _WORKER_START_METHOD = start_method


def attach_pack_views(handle) -> Dict[str, np.ndarray]:
    """Attach (or fetch from cache) the arrays behind a pack handle.

    Runs worker-side: under the process backend the attach counter lives in
    the *worker's* registry (inherited at fork), so the parent's
    ``/metrics`` only sees attaches made in-process.
    """
    if obs_runtime._ENABLED:
        obs_metrics.counter(
            "repro_shm_attaches_total", "Shared-memory pack attach calls (per process)"
        ).inc()
    name, specs = handle
    cached = _ATTACHED.get(name)
    if cached is not None:
        _ATTACHED.move_to_end(name)
        return cached[1]
    shm = shared_memory.SharedMemory(name=name)
    # The worker only *attaches* — the parent owns the segment's lifetime.
    # Forked workers share the parent's resource-tracker process, whose
    # per-name set dedupes the attach-time registration (the parent's
    # unlink balances it exactly — an extra unregister here would make the
    # tracker complain about a name it no longer knows).  Spawned workers
    # get a *private* tracker that would unlink the parent's segment at
    # worker exit, so there the attach-time registration must be undone.
    if _WORKER_START_METHOD != "fork":
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
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
            # A lingering external reference to the evicted views keeps the
            # mapping exported; dropping our handles is enough — the mmap is
            # reclaimed when the last view dies, and eviction must never
            # fail the task that triggered it.
            pass
    _ATTACHED[name] = (shm, views)
    return views


def detach_pack(name: str) -> bool:
    """Drop this process's cached attachment to segment ``name`` (if any).

    The attach cache above is LRU-bounded, which is enough for the
    ephemeral per-run packs of the parallel backend; long-lived *serving
    workers*, however, hold snapshot images for as long as a snapshot is
    live and are told explicitly when one is retired — this is that
    hygiene hook.  Returns True when an attachment was dropped.  Any views
    still referenced elsewhere keep the mapping alive (dropping the handle
    never invalidates them); once the last view dies the memory goes back
    to the OS even if the publisher already unlinked the segment name.
    """
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
# Task execution
# ---------------------------------------------------------------------------


def _enact_payload_fault(payload) -> bool:
    """Obey an injected fault marker riding in the payload (chaos tests).

    The *parent* decides which chunks misbehave (so occurrence counting is
    deterministic, see :mod:`repro.faults`); the worker only enacts the
    marker.  Returns True when the result must be corrupted after its
    checksum is computed (so a marked result is always checksummed).
    """
    marker = payload.get("_fault")
    if not marker:
        return False
    mode = marker.get("mode")
    if mode == "sleep":
        time.sleep(float(marker.get("delay_s", 0.0)))
        return False
    if mode == "kill":
        if marker.get("hard"):  # a real process death, not an exception
            os._exit(13)
        raise WorkerCrashError("injected worker crash (parallel.worker)")
    if mode == "raise":
        raise InjectedFault("injected worker fault (parallel.worker)")
    return mode == "corrupt"


def _result_checksum(result: Dict[str, Any]) -> int:
    """CRC-32 over a task result's arrays (key + dtype + shape + bytes)."""
    crc = 0
    for key in sorted(result):
        crc = zlib.crc32(key.encode(), crc)
        value = result[key]
        if isinstance(value, np.ndarray):
            arr = np.ascontiguousarray(value)
            crc = zlib.crc32(str(arr.dtype).encode(), crc)
            crc = zlib.crc32(repr(arr.shape).encode(), crc)
            crc = zlib.crc32(arr, crc)
        else:  # pragma: no cover - tasks currently return arrays only
            crc = zlib.crc32(repr(value).encode(), crc)
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


def _run_with_stats(fn, arrays, meta, payload, checksum: bool = False):
    """Run one chunk: ``(result, counter deltas, crc)``.  ``crc`` is
    ``None`` unless the result crosses a process boundary (``checksum``) or
    an injected fault is about to corrupt it."""
    corrupt = _enact_payload_fault(payload)
    stats = IndexStats()
    result = fn(arrays, meta, payload, stats)
    crc = _result_checksum(result) if checksum or corrupt else None
    if corrupt:
        result = _corrupt_result(result)
    return result, stats.as_dict(), crc


def _worker_exec(fn, handles, meta, payload):
    """Process-pool entry point: resolve pack handles, run one chunk."""
    arrays: Dict[str, np.ndarray] = {}
    for handle in handles:
        arrays.update(attach_pack_views(handle))
    return _run_with_stats(fn, arrays, meta, payload, checksum=True)


def _accept_chunk(triple) -> Tuple[dict, Dict[str, int]]:
    """Verify a chunk's integrity checksum (when it carries one) before its
    result is merged."""
    result, stats_delta, crc = triple
    if crc is not None and _result_checksum(result) != crc:
        raise ChunkIntegrityError(
            "worker chunk result failed its integrity checksum "
            "(payload corrupted in transit)"
        )
    return result, stats_delta


def _merge_stats(stats: IndexStats, delta: Dict[str, int]) -> None:
    for key, value in delta.items():
        setattr(stats, key, getattr(stats, key) + value)


_HEALTH_METRIC_HELP = {
    "chunk_failures": "Worker chunks that failed an attempt",
    "retries": "Backoff retry rounds over failed chunks",
    "pool_breaks": "Worker pools torn down after a BrokenExecutor",
}


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
        #: Retry policy: how many backoff rounds each ladder rung gets
        #: before execution degrades to the next rung (process → threads →
        #: serial).  The jitter stream is seeded, so recovery timing — and
        #: therefore chaos tests — is reproducible.
        self.max_retries = int(max_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.retry_seed = int(retry_seed)
        self._pool = None
        self._pool_kind: Optional[str] = None
        self._degraded_kind: Optional[str] = None
        self._health_lock = threading.Lock()
        self._health = {
            "chunk_failures": 0,
            "retries": 0,
            "pool_breaks": 0,
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
        """Counters + degradation state for observability (JSON-friendly)."""
        with self._health_lock:
            snapshot = dict(self._health)
            last_error = self._last_error
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
            obs_metrics.counter(
                f"repro_parallel_{key}_total",
                _HEALTH_METRIC_HELP.get(key, "Execution backend health events"),
            ).inc(count)

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
            elif kind == "process":
                # fork (where available) keeps pool start-up cheap and lets
                # workers inherit registered metrics; the shared-memory
                # protocol itself is start-method agnostic.
                methods = multiprocessing.get_all_start_methods()
                start_method = "fork" if "fork" in methods else methods[0]
                ctx = multiprocessing.get_context(start_method)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.n_jobs,
                    mp_context=ctx,
                    initializer=_worker_init,
                    initargs=(start_method,),
                )
            self._pool_kind = kind
        return self._pool

    def _teardown_pool(self, wait: bool) -> None:
        pool, self._pool, self._pool_kind = self._pool, None, None
        if pool is not None:
            try:
                pool.shutdown(wait=wait, cancel_futures=True)
            except Exception:  # pragma: no cover - a broken pool may object
                pass

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


def _submit_timed(pool, fn, *args):
    """Submit one chunk; per-chunk latency is observed at settle time."""
    t0 = time.perf_counter()
    future = pool.submit(fn, *args)
    future.add_done_callback(
        lambda _f, _t0=t0: _observe_chunk_seconds(time.perf_counter() - _t0)
    )
    return future


def _run_wave_local(backend, kind, fn, arrays, meta, wave):
    """One attempt over in-process array references (serial/threads)."""
    record = obs_runtime._ENABLED
    if kind == "serial" or len(wave) <= 1:
        outcomes = []
        for payload in wave:
            t0 = time.perf_counter() if record else 0.0
            try:
                outcomes.append((True, _run_with_stats(fn, arrays, meta, payload)))
            except BaseException as exc:
                outcomes.append((False, exc))
            if record:
                _observe_chunk_seconds(time.perf_counter() - t0)
        return outcomes
    pool = backend._ensure_pool("threads")
    if record:
        futures = [_submit_timed(pool, _run_with_stats, fn, arrays, meta, p) for p in wave]
    else:
        futures = [pool.submit(_run_with_stats, fn, arrays, meta, p) for p in wave]
    return _wave_outcomes(futures)


def _run_wave_process(backend, fn, handles, meta, wave):
    """One attempt over shared-memory pack handles (process backend)."""
    pool = backend._ensure_pool("process")
    if obs_runtime._ENABLED:
        futures = [_submit_timed(pool, _worker_exec, fn, handles, meta, p) for p in wave]
    else:
        futures = [pool.submit(_worker_exec, fn, handles, meta, p) for p in wave]
    return _wave_outcomes(futures)


def _mark_injected_faults(wave: List[dict], kind: str) -> None:
    """Stamp chaos-plan fault markers onto this wave's payloads.

    Decisions happen here in the parent (deterministic occurrence
    counting); workers only enact the marker.  Stale markers from a
    previous attempt are cleared first — a retried chunk runs clean unless
    the plan trips again.
    """
    for payload in wave:
        payload.pop("_fault", None)
    if faults.active_plan() is None:
        return
    for payload in wave:
        spec = faults.decide("parallel.worker")
        if spec is not None:
            payload["_fault"] = {"mode": spec.mode, "hard": kind == "process"}
            continue
        spec = faults.decide("parallel.slow")
        if spec is not None:
            payload["_fault"] = {"mode": "sleep", "delay_s": spec.delay_s}
            continue
        spec = faults.decide("parallel.corrupt")
        if spec is not None:
            payload["_fault"] = {"mode": "corrupt"}


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
    fault) are retried with jittered exponential backoff; after
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
    # Payloads are annotated (fault markers) per attempt — never mutate the
    # caller's dicts.
    payloads = [dict(p) for p in payloads]
    n_tasks = len(payloads)
    if n_tasks == 0:
        return []
    accepted: List[Optional[Tuple[dict, Dict[str, int]]]] = [None] * n_tasks
    pending = list(range(n_tasks))
    kind = backend.effective_kind
    retries_left = backend.max_retries
    attempt = 0
    jitter = random.Random(backend.retry_seed)
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
            _mark_injected_faults(wave, kind)
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
                handles = [index._shard_pack.handle]
                if run_arrays:
                    if run_pack is None or run_pack.closed:
                        run_pack = ShmPack(run_arrays)
                    handles.append(run_pack.handle)
                if faults.decide("parallel.shm_unlink") is not None:
                    # The injected unlink race: the run pack vanishes while
                    # this wave's tasks are still attaching.
                    if run_pack is not None:
                        run_pack.close()
                    else:
                        index._release_shards()
                outcomes = _run_wave_process(backend, fn, handles, meta, wave)
            else:
                outcomes = _run_wave_local(
                    backend, kind, fn, _local_arrays(), meta, wave
                )
            wave_span.finish()
            still_failed: List[int] = []
            pool_broken = False
            for task_index, (ok, value) in zip(pending, outcomes):
                if ok:
                    try:
                        accepted[task_index] = _accept_chunk(value)
                        continue
                    except ChunkIntegrityError as exc:
                        value = exc
                if isinstance(value, BrokenExecutor):
                    pool_broken = True
                if not isinstance(value, RETRYABLE_ERRORS):
                    raise value  # deterministic error: original type/message
                still_failed.append(task_index)
                last_error = value
            wave_span.set("failed", len(still_failed))
            if pool_broken:
                backend._note("pool_breaks", 1, last_error)
                backend._teardown_pool(wait=False)
            if not still_failed:
                break
            backend._note("chunk_failures", len(still_failed), last_error)
            pending = still_failed
            if retries_left > 0:
                retries_left -= 1
                backend._note("retries", 1, None)
                delay = min(
                    backend.backoff_max_s, backend.backoff_base_s * (2 ** attempt)
                )
                if delay > 0:
                    time.sleep(delay * (0.5 + jitter.random()))
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


def list_rho_task(arrays, meta, payload, stats):
    """Row-sharded N-List ρ: one batched binary search per chunk row.

    ``needles`` is a scalar ``dc`` or a list of them (the multi-``dc``
    grid); the result rows are chunk-local and re-assembled by the caller.
    """
    start, stop = payload["start"], payload["stop"]
    n, m = meta["n"], meta["row_len"]
    rows = arrays["dists"].reshape(n, m)[start:stop]
    needles = payload["needles"]
    if isinstance(needles, (list, tuple)):
        pos = row_searchsorted(rows, np.asarray(needles, dtype=np.float64)[None, :])
    else:
        pos = row_searchsorted(rows, float(needles))
    stats.binary_searches += pos.size
    return {"rho": pos}


def csr_rho_task(arrays, meta, payload, stats):
    """Row-sharded RN-List ρ: bounded binary searches over CSR rows."""
    start, stop = payload["start"], payload["stop"]
    offsets = arrays["offsets"]
    needles = payload["needles"]
    if isinstance(needles, (list, tuple)):
        grid = np.asarray(needles, dtype=np.float64)
        pos = bounded_searchsorted(
            arrays["dists"],
            offsets[start:stop, None],
            offsets[start + 1 : stop + 1, None],
            grid[None, :],
        )
        rho = pos - offsets[start:stop, None]
        stats.binary_searches += (stop - start) * len(grid)
    else:
        pos = bounded_searchsorted(
            arrays["dists"],
            offsets[start:stop],
            offsets[start + 1 : stop + 1],
            float(needles),
        )
        rho = pos - offsets[start:stop]
        stats.binary_searches += stop - start
    return {"rho": rho}


def ch_rho_task(arrays, meta, payload, stats):
    """Row-sharded CH ρ (Algorithm 4) over the histogram CSR slice.

    ``max_bins`` pins the bin resolution to the whole table's largest
    histogram so the chunk resolves exactly the bin the unsharded call
    would (see :func:`repro.indexes.kernels.ch_rho_from_histograms`).
    """
    start, stop = payload["start"], payload["stop"]
    offsets = arrays["offsets"]
    rho, scanned, searches = ch_rho_from_histograms(
        arrays["hist_offsets"][start : stop + 1],
        arrays["hist_values"],
        arrays["dists"].reshape(-1),
        offsets[start:stop],
        payload["dc"],
        payload["w"],
        max_bins=payload["max_bins"],
    )
    stats.objects_scanned += scanned
    stats.binary_searches += searches
    return {"rho": rho}


def scan_delta_task(arrays, meta, payload, stats):
    """Row-sharded near-to-far δ scans over N-List / RN-List CSR rows.

    One task covers rows ``[start, stop)`` for *every* density order of the
    sweep (rows of ``arrays["keys"]``): the candidate layout — and hence
    the prefetch block — is ``dc``-independent, so gathering it once per
    chunk and reusing it across all orders keeps the seed sweep's
    gather-once economics while the chunks carry the parallelism.
    Returns ``(n_orders, stop - start)`` result rows.
    """
    start, stop = payload["start"], payload["stop"]
    keys = arrays["keys"]
    offsets = arrays["offsets"][start : stop + 1]
    ids = arrays["ids"].reshape(-1)
    dists = arrays["dists"].reshape(-1)
    qid = np.arange(start, stop, dtype=np.int64)
    prefetch = None
    width = payload["prefetch_width"]
    if width:
        prefetch = prefetch_scan_block(offsets, ids, dists, width)
    deltas, mus = [], []
    for key in keys:
        delta, mu, _resolved, scanned = scan_first_denser(
            offsets, ids, dists, key, block=payload["block"], prefetch=prefetch, qid=qid
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
