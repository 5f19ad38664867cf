"""Common contract for every DPC index.

An index is built **once** over a point set and then answers the two DPC
queries for **any** ``dc`` (the whole point of the paper: users try many
``dc`` values, so ρ/δ must be cheap per run):

* ``rho_all(dc)`` — local densities of every object;
* ``delta_all(order)`` — dependent distances + nearest denser neighbours,
  given the :class:`~repro.core.quantities.DensityOrder` derived from ρ.

``quantities(dc)`` is the template method that chains the two, and
``cluster(dc, ...)`` runs steps 3–4 (centre selection + assignment) on top.
The multi-``dc`` sweep variants — ``rho_all_multi``, ``quantities_multi``
and ``cluster_multi`` — evaluate a whole grid of cut-offs against the one
built structure; the base implementations loop, and every family overrides
``rho_all_multi``/``delta_all_multi`` with batched kernels
(:mod:`repro.indexes.kernels`).

Every index also exposes:

* ``memory_bytes()`` — the storage footprint (Table 3 of the paper);
* ``stats()`` — probe counters (distance evaluations, node visits, objects
  scanned, prunes) so the complexity claims of Theorems 1–4 can be tested
  without wall-clock timing;
* ``build_seconds`` — construction time (Table 4).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, Optional, Tuple

import numpy as np

from repro.core.assignment import assign_labels
from repro.core.decision import (
    select_centers_auto,
    select_centers_threshold,
    select_centers_top_k,
)
from repro.core.halo import halo_mask
from repro.core.quantities import (
    DensityOrder,
    DPCQuantities,
    DPCResult,
    TieBreak,
    check_dc,
    check_points,
)
from repro.geometry.distance import Metric, get_metric
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.obs import trace as obs_trace

__all__ = ["IndexStats", "DPCIndex"]


def _observe_phase(phase: str, sp) -> None:
    """Fold one finished phase span into the shared phase histogram."""
    obs_metrics.histogram(
        "repro_engine_phase_seconds",
        "Engine phase latency (rho / delta / assign)",
        ("phase",),
    ).labels(phase).observe(sp.duration_ns / 1e9)


@dataclass
class IndexStats:
    """Probe counters accumulated across queries since the last reset.

    These are *logical* work measures, independent of Python overhead:

    * ``distance_evals`` — point-to-point distance computations;
    * ``objects_scanned`` — list entries or leaf objects examined;
    * ``nodes_visited`` — tree/grid nodes popped or recursed into;
    * ``nodes_pruned_density`` — nodes skipped by Lemma 1 (maxrho);
    * ``nodes_pruned_distance`` — nodes skipped by Lemma 2 (dmin ≥ δ);
    * ``nodes_contained`` — nodes fully inside the query circle
      (Observation 1) whose count was added wholesale;
    * ``binary_searches`` — N-List binary searches performed.
    """

    distance_evals: int = 0
    objects_scanned: int = 0
    nodes_visited: int = 0
    nodes_pruned_density: int = 0
    nodes_pruned_distance: int = 0
    nodes_contained: int = 0
    binary_searches: int = 0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def total_work(self) -> int:
        """A single scalar proxy for query effort."""
        return (
            self.distance_evals
            + self.objects_scanned
            + self.nodes_visited
            + self.binary_searches
        )


class DPCIndex(abc.ABC):
    """Abstract base class for all DPC indexes.

    Subclasses implement ``_build``, ``rho_all`` and ``delta_all``; the
    lifecycle, validation, timing and the high-level ``quantities`` /
    ``cluster`` orchestration live here.

    Usage::

        index = ListIndex().fit(points)
        result = index.cluster(dc=0.25, n_centers=15)
    """

    #: Registry name; subclasses override.
    name: ClassVar[str] = "abstract"
    #: Whether ρ/δ are exact for every ``dc`` (False for the τ-truncated ones).
    exact: ClassVar[bool] = True
    #: Required dimensionality (None = any).
    required_ndim: ClassVar[Optional[int]] = None

    def __init__(
        self,
        metric: "str | Metric" = "euclidean",
        backend: "str | Any" = "serial",
        n_jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ):
        self.metric = get_metric(metric)
        self.points: Optional[np.ndarray] = None
        self.build_seconds: float = float("nan")
        self._stats = IndexStats()
        # Execution policy (repro.indexes.parallel): how the batched ρ/δ
        # kernels are sharded over query chunks.  `backend` is a kind name
        # ("serial" | "threads" | "process") or a shared ExecutionBackend
        # instance; results are bit-identical across all of them.  Runtime
        # configuration only — never serialised with the index (persist.py).
        self.backend = backend
        self.n_jobs = n_jobs
        self.chunk_size = chunk_size
        self._execution_ = None  # resolved ExecutionBackend (lazy)
        self._shard_pack = None  # published fit-time shared-memory pack
        self._fingerprint_ = None  # cached content fingerprint (lazy)
        self._validate_backend(backend)

    @staticmethod
    def _validate_backend(backend) -> None:
        from repro.indexes.parallel import BACKENDS, ExecutionBackend

        if not isinstance(backend, ExecutionBackend) and backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS} or an ExecutionBackend, "
                f"got {backend!r}"
            )

    # -- lifecycle ----------------------------------------------------------

    def fit(self, points: np.ndarray) -> "DPCIndex":
        """Validate ``points``, build the index, record construction time.

        Re-fitting starts a fresh measurement epoch: the probe counters are
        reset so Theorem 1–4 complexity checks never mix work from a
        previous dataset.  Any published shard state (shared-memory image,
        chunk plans) from a previous fit is invalidated first — workers must
        never see a stale index image for the new dataset.
        """
        self._release_shards()
        self._fingerprint_ = None  # new data ⇒ new identity for result caches
        points = check_points(points)
        if self.required_ndim is not None and points.shape[1] != self.required_ndim:
            raise ValueError(
                f"{type(self).__name__} requires {self.required_ndim}-D points, "
                f"got {points.shape[1]}-D"
            )
        self._stats.reset()
        self.points = points
        start = time.perf_counter()
        self._build()
        self.build_seconds = time.perf_counter() - start
        return self

    @property
    def is_fitted(self) -> bool:
        return self.points is not None

    def _require_fitted(self) -> np.ndarray:
        if self.points is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted; call fit(points) first")
        return self.points

    @property
    def n(self) -> int:
        return len(self._require_fitted())

    def fingerprint(self) -> str:
        """Stable content fingerprint of this fitted index (cached).

        Delegates to :func:`repro.indexes.persist.index_fingerprint`: a
        SHA-256 over the index family, constructor + fit-resolved params and
        the exact point bytes.  Equal fingerprints ⇒ bit-identical answers
        to every query, which is what the serving result cache keys on.
        The cache is cleared by :meth:`fit`, so a refit on new data can
        never be mistaken for the old snapshot.
        """
        self._require_fitted()
        if self._fingerprint_ is None:
            from repro.indexes.persist import index_fingerprint

            self._fingerprint_ = index_fingerprint(self)
        return self._fingerprint_

    # -- incremental maintenance ------------------------------------------------

    def add_points(self, new_points: np.ndarray) -> "DPCIndex":
        """Append ``new_points`` to the fitted index.

        The default (:meth:`_append`) refits over the combined points, which
        preserves exactness trivially and is cheap for the bulk-built tree
        and grid families; the N-List families override it with a sorted
        merge that skips their ``O(n²)`` build.  Either way the index is
        indistinguishable from a fresh fit over the combined points.

        Published shard state and the cached fingerprint are invalidated:
        an index with more points is new content.  Arrays are never mutated
        in place (ingest rebinds attributes), so a :meth:`snapshot_copy`
        taken earlier keeps answering for its own point-in-time content.
        """
        self._require_fitted()
        new_points = check_points(np.atleast_2d(new_points), "new_points")
        if new_points.shape[1] != self.points.shape[1]:
            raise ValueError(
                f"dimension mismatch: index holds {self.points.shape[1]}-D points, "
                f"got {new_points.shape[1]}-D"
            )
        self._release_shards()
        self._fingerprint_ = None
        self._append(new_points)
        return self

    def _append(self, new_points: np.ndarray) -> None:
        """Family hook for :meth:`add_points`; the default is a full refit."""
        self.fit(np.concatenate([self.points, new_points]))

    def snapshot_copy(self) -> "DPCIndex":
        """A cheap, independently publishable copy of this fitted index.

        The copy shares the (immutable) arrays but owns its stats, shard
        state and fingerprint cache.  Because :meth:`add_points` rebinds
        attributes instead of mutating arrays in place, the copy keeps
        answering for the content it was taken at while the original
        continues to evolve — this is what :class:`StreamingDPC` hands to
        its subscribers.
        """
        import copy

        self._require_fitted()
        clone = copy.copy(self)
        clone._stats = IndexStats()
        clone._shard_pack = None
        clone._execution_ = None
        clone._fingerprint_ = None
        return clone

    # -- subclass responsibilities -------------------------------------------

    @abc.abstractmethod
    def _build(self) -> None:
        """Construct the index over ``self.points``."""

    @abc.abstractmethod
    def _rho_all(self, dc: float) -> np.ndarray:
        """The family's ρ pass behind :meth:`rho_all`; the index is fitted
        and ``dc`` already validated."""

    @abc.abstractmethod
    def delta_all(self, order: DensityOrder) -> Tuple[np.ndarray, np.ndarray]:
        """Dependent distance δ and nearest denser neighbour μ for every
        object, under the density ordering ``order``.

        Returns ``(delta, mu)``; ``mu`` uses
        :data:`~repro.core.quantities.NO_NEIGHBOR` for objects with no denser
        neighbour (see the tie-break discussion in
        :mod:`repro.core.quantities`).
        """

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Approximate resident size of the index structures, in bytes."""

    # -- template methods ------------------------------------------------------

    def rho_all(self, dc: float) -> np.ndarray:
        """Local density of every object for cut-off ``dc`` (int64).

        ``dc`` goes through :func:`check_dc` here, so a bad cut-off fails
        the same way on every family; families implement :meth:`_rho_all`.
        """
        self._require_fitted()
        return self._rho_all(check_dc(dc))

    def quantities(
        self, dc: float, tie_break: "str | TieBreak" = TieBreak.ID
    ) -> DPCQuantities:
        """Compute the full (ρ, δ, μ) triple for ``dc`` (steps 1–2)."""
        self._require_fitted()
        dc = check_dc(dc)
        return self._traced_quantities(dc, tie_break, self.rho_all, self.delta_all)

    def quantities_after_append(self, prev: DPCQuantities, n_prev: int) -> DPCQuantities:
        """``quantities(prev.dc, tie_break)`` for an index that has grown.

        ``prev`` is this index's answer when it held only its first
        ``n_prev`` points (same ``dc``, same tie-break); points were only
        appended since.  Families that can repair ``prev`` exactly override
        this; the default recomputes everything with :meth:`quantities`.
        Either way the result is bit-identical to a fresh fit's answer, and
        ``prev`` is left untouched.
        """
        self._check_prev(prev, n_prev)
        return self.quantities(prev.dc, prev.density_order.tie_break)

    def _check_prev(self, prev: DPCQuantities, n_prev: int) -> None:
        if len(prev) != n_prev or not 0 < n_prev <= self.n:
            raise ValueError(
                f"prev answers {len(prev)} points, n_prev is {n_prev}, "
                f"the index holds {self.n}"
            )

    def _traced_quantities(self, dc: float, tie_break, rho_fn, delta_fn) -> DPCQuantities:
        """``rho_fn(dc)`` then ``delta_fn(order)`` under the engine spans.

        One place for the ``engine.quantities``/``engine.rho``/
        ``engine.delta`` spans, the phase histograms and the probe-counter
        increments, whichever way a family computes the two steps.
        """
        probes_before = self._probe_snapshot()
        with obs_trace.span("engine.quantities", dc=float(dc)):
            with obs_trace.span("engine.rho") as sp_rho:
                rho = rho_fn(float(dc))
            order = DensityOrder(rho, tie_break)
            with obs_trace.span("engine.delta") as sp_delta:
                delta, mu = delta_fn(order)
        if obs_runtime._ENABLED:
            _observe_phase("rho", sp_rho)
            _observe_phase("delta", sp_delta)
            self._emit_probe_delta(probes_before)
        return DPCQuantities(dc=float(dc), rho=rho, delta=delta, mu=mu, density_order=order)

    # -- multi-dc sweeps ---------------------------------------------------------

    @staticmethod
    def _validate_dcs(dcs) -> np.ndarray:
        dcs = np.asarray(list(dcs), dtype=np.float64)
        if dcs.ndim != 1 or len(dcs) == 0:
            raise ValueError(f"dcs must be a non-empty 1-D sequence, got shape {dcs.shape}")
        for dc in dcs:
            check_dc(dc)
        return dcs

    def rho_all_multi(self, dcs) -> np.ndarray:
        """Local densities for a whole grid of cut-offs; ``(len(dcs), n)``.

        Row ``i`` equals ``rho_all(dcs[i])`` exactly.  The base class loops;
        list-family indexes override this with one batched kernel call.
        """
        self._require_fitted()
        dcs = self._validate_dcs(dcs)
        return np.stack([self.rho_all(float(dc)) for dc in dcs])

    def delta_all_multi(self, orders) -> "list[Tuple[np.ndarray, np.ndarray]]":
        """``delta_all`` for a sequence of density orders, in input order.

        Element ``i`` equals ``delta_all(orders[i])`` exactly.  The base
        class loops; every family overrides this with one batched pass
        shared by the whole sweep (:mod:`repro.indexes.kernels`).
        """
        self._require_fitted()
        return [self.delta_all(order) for order in orders]

    def quantities_multi(
        self, dcs, tie_break: "str | TieBreak" = TieBreak.ID
    ) -> "list[DPCQuantities]":
        """The (ρ, δ, μ) triples for every ``dc`` in ``dcs``, in input order.

        The whole point of the paper's index-once workflow: one built
        structure amortised over a ``dc`` sensitivity sweep.  Element ``i``
        agrees element-wise with ``quantities(dcs[i], tie_break)``.
        """
        self._require_fitted()
        dcs = self._validate_dcs(dcs)
        probes_before = self._probe_snapshot()
        with obs_trace.span("engine.quantities", dcs=len(dcs)):
            with obs_trace.span("engine.rho") as sp_rho:
                rhos = self.rho_all_multi(dcs)
            orders = [DensityOrder(rho, tie_break) for rho in rhos]
            with obs_trace.span("engine.delta") as sp_delta:
                deltas = self.delta_all_multi(orders)
        if obs_runtime._ENABLED:
            _observe_phase("rho", sp_rho)
            _observe_phase("delta", sp_delta)
            self._emit_probe_delta(probes_before)
        return [
            DPCQuantities(dc=float(dc), rho=rho, delta=delta, mu=mu, density_order=order)
            for dc, rho, order, (delta, mu) in zip(dcs, rhos, orders, deltas)
        ]

    def cluster_multi(
        self,
        dcs,
        n_centers: Optional[int] = None,
        rho_min: Optional[float] = None,
        delta_min: Optional[float] = None,
        tie_break: "str | TieBreak" = TieBreak.ID,
        halo: bool = False,
    ) -> "list[DPCResult]":
        """Full DPC runs for every ``dc`` in ``dcs`` over the one index."""
        qs = self.quantities_multi(dcs, tie_break)
        return [self._finish_cluster(q, n_centers, rho_min, delta_min, halo) for q in qs]

    def cluster(
        self,
        dc: float,
        n_centers: Optional[int] = None,
        rho_min: Optional[float] = None,
        delta_min: Optional[float] = None,
        tie_break: "str | TieBreak" = TieBreak.ID,
        halo: bool = False,
    ) -> DPCResult:
        """Full DPC run: quantities, centre selection, assignment (+ halo).

        Exactly one selection mode applies: ``n_centers`` (top-k by γ),
        both ``rho_min`` and ``delta_min`` (decision-graph thresholds), or
        neither (automatic largest-γ-gap heuristic).
        """
        self._require_fitted()
        q = self.quantities(dc, tie_break)
        return self._finish_cluster(q, n_centers, rho_min, delta_min, halo)

    def cluster_from_quantities(
        self,
        q: DPCQuantities,
        n_centers: Optional[int] = None,
        rho_min: Optional[float] = None,
        delta_min: Optional[float] = None,
        halo: bool = False,
    ) -> DPCResult:
        """Steps 3–4 (centre selection + assignment + halo) on precomputed
        quantities.

        ``cluster(dc, ...)`` is exactly ``quantities(dc)`` followed by this,
        so a caller holding a cached :class:`DPCQuantities` (the serving
        layer, a coalesced batch answering several selection configs for one
        ``dc``) reproduces ``cluster`` bit-for-bit without re-running ρ/δ.
        ``q`` must come from this index's data: the assignment and halo
        steps read ``self.points``.
        """
        self._require_fitted()
        if len(q) != self.n:
            raise ValueError(
                f"quantities are for {len(q)} objects but the index holds {self.n}"
            )
        return self._finish_cluster(q, n_centers, rho_min, delta_min, halo)

    def _finish_cluster(
        self,
        q: DPCQuantities,
        n_centers: Optional[int],
        rho_min: Optional[float],
        delta_min: Optional[float],
        halo: bool,
    ) -> DPCResult:
        """Steps 3–4 (centre selection + assignment + halo) from quantities."""
        points = self._require_fitted()
        if n_centers is not None and (rho_min is not None or delta_min is not None):
            raise ValueError("pass either n_centers or rho_min/delta_min, not both")
        with obs_trace.span("engine.assign", dc=float(q.dc)) as sp:
            if n_centers is not None:
                centers = select_centers_top_k(q, n_centers)
            elif rho_min is not None or delta_min is not None:
                if rho_min is None or delta_min is None:
                    raise ValueError("rho_min and delta_min must be given together")
                centers = select_centers_threshold(q, rho_min, delta_min)
            else:
                centers = select_centers_auto(q)
            labels = assign_labels(q, centers, points=points, metric=self.metric)
            result = DPCResult(quantities=q, centers=centers, labels=labels)
            if halo:
                result.halo = halo_mask(points, labels, q.rho, q.dc, metric=self.metric)
        if obs_runtime._ENABLED:
            _observe_phase("assign", sp)
        return result

    # -- execution backend (repro.indexes.parallel) -------------------------------

    def _execution(self):
        """The resolved :class:`~repro.indexes.parallel.ExecutionBackend`."""
        from repro.indexes.parallel import ExecutionBackend

        if self._execution_ is None:
            if isinstance(self.backend, ExecutionBackend):
                self._execution_ = self.backend
            else:
                self._execution_ = ExecutionBackend(
                    self.backend, n_jobs=self.n_jobs, chunk_size=self.chunk_size
                )
        return self._execution_

    def set_execution(
        self,
        backend: "str | Any | None" = None,
        n_jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> "DPCIndex":
        """Reconfigure how queries are sharded, without re-fitting.

        Any published shard state and a previously owned worker pool are
        released; fitted structures (and therefore results) are untouched —
        results are bit-identical across backends by contract.
        """
        if backend is not None:
            self._validate_backend(backend)
        # Release BEFORE reassigning: the ownership check inside
        # release_execution compares against the *old* self.backend —
        # reassigning first would make a shared pool look index-owned and
        # shut it down under the other indexes using it.
        self.release_execution()
        if backend is not None:
            self.backend = backend
        if n_jobs is not None:
            self.n_jobs = n_jobs
        if chunk_size is not None:
            self.chunk_size = chunk_size
        return self

    def _release_shards(self) -> None:
        """Unlink this fit's shared-memory image (chunk plans die with it)."""
        if self._shard_pack is not None:
            self._shard_pack.close()
            self._shard_pack = None

    def release_execution(self) -> None:
        """Release shard state and shut down an index-owned worker pool.

        A pool passed in as a shared ``ExecutionBackend`` instance is left
        running (other indexes may be using it).  Idempotent; queries after
        a release lazily recreate whatever they need.
        """
        self._release_shards()
        if self._execution_ is not None:
            if self._execution_ is not self.backend:
                self._execution_.shutdown()
            self._execution_ = None

    def execution_health(self) -> Optional[Dict[str, Any]]:
        """Retry/degradation counters of the resolved execution backend.

        ``None`` until a query first resolves the backend; afterwards the
        :meth:`~repro.indexes.parallel.ExecutionBackend.health` dict —
        configured vs effective rung, retry/worker-death/degradation counts
        and the last infrastructure error.  The serving layer folds this
        into per-snapshot health states.
        """
        return None if self._execution_ is None else self._execution_.health()

    def _shard_arrays(self) -> Dict[str, np.ndarray]:
        """Fit-time arrays the sharded kernel tasks read (per-family)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not define a sharded kernel image"
        )

    def _shard_meta(self) -> Dict[str, Any]:
        """Small picklable facts accompanying :meth:`_shard_arrays`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not define a sharded kernel image"
        )

    def _dispatch(self, fn, payloads, run_arrays=None):
        """Run sharded kernel tasks through the execution backend.

        Results come back in payload order; worker probe-counter deltas are
        folded into this index's :class:`IndexStats` (integer sums, so the
        totals equal a serial run exactly).
        """
        from repro.indexes.parallel import run_index_tasks

        return run_index_tasks(self, fn, payloads, run_arrays)

    def _sharded_rho(self, task, dcs) -> "list[np.ndarray]":
        """ρ for every ``dc`` in ``dcs`` as one sharded ``(dc, chunk)`` grid.

        Shared by the tree and grid families: all ``len(dcs) × n_chunks``
        tasks are submitted in one wave, so a multi-``dc`` sweep keeps every
        worker busy even when a single cut-off has fewer chunks than
        workers.  Row ``i`` of the result is bit-identical to a serial
        ``rho_all(dcs[i])``.
        """
        chunks = self._execution().plan(self.n)
        payloads = [
            {"dc": float(dc), "start": start, "stop": stop}
            for dc in dcs
            for start, stop in chunks
        ]
        outs = self._dispatch(task, payloads)
        per_dc = len(chunks)
        return [
            np.concatenate(
                [outs[i * per_dc + j]["rho"] for j in range(per_dc)]
            ).astype(np.int64, copy=False)
            for i in range(len(dcs))
        ]

    def _sharded_delta_engine(self, task, qid, qord, n_orders, run_arrays):
        """Shard a sweep's batched δ engine runs into ``(order, chunk)`` tasks.

        ``qid``/``qord`` come from
        :func:`~repro.indexes.kernels.delta_multi_from_orders`, whose
        per-order query segments are contiguous; every chunk of every
        segment becomes one task and all tasks go out in a single wave.
        Shared by the tree family and the grid (same schedule, different
        task function).
        """
        ex = self._execution()
        payloads = []
        for o in range(n_orders):
            seg = np.flatnonzero(qord == o)
            base = int(seg[0]) if len(seg) else 0
            payloads.extend(
                {"order": o, "a": base + start, "b": base + stop}
                for start, stop in ex.plan(len(seg))
            )
        outs = self._dispatch(task, payloads, run_arrays)
        delta = np.empty(len(qid), dtype=np.float64)
        mu = np.empty(len(qid), dtype=np.int64)
        for payload, out in zip(payloads, outs):
            delta[payload["a"] : payload["b"]] = out["delta"]
            mu[payload["a"] : payload["b"]] = out["mu"]
        return delta, mu

    # -- instrumentation ---------------------------------------------------------

    def stats(self) -> IndexStats:
        return self._stats

    def reset_stats(self) -> None:
        self._stats.reset()

    def _probe_snapshot(self) -> Optional[Dict[str, int]]:
        """Probe counters before a query, or ``None`` with capture off."""
        if not obs_runtime._ENABLED:
            return None
        return self.stats().as_dict()

    def _emit_probe_delta(self, before: Optional[Dict[str, int]]) -> None:
        """Publish the probe work one query added as counter increments.

        Emitted at query granularity (never inside kernel loops), from the
        same :class:`IndexStats` the bit-identity suites assert on — so the
        live metrics and the test-visible counters cannot drift apart.
        """
        if before is None or not obs_runtime._ENABLED:
            return
        after = self.stats().as_dict()
        probe_counter = obs_metrics.counter(
            "repro_probe_ops_total",
            "Logical probe work by counter kind (distance evals, node visits, prunes)",
            ("counter",),
        )
        for key, value in after.items():
            delta = value - before.get(key, 0)
            if delta:
                probe_counter.labels(key).inc(delta)

    def describe(self) -> Dict[str, Any]:
        """Human-oriented summary used by the harness tables."""
        return {
            "index": self.name,
            "n": self.n if self.is_fitted else None,
            "metric": self.metric.name,
            "exact": self.exact,
            "memory_bytes": self.memory_bytes() if self.is_fitted else None,
            "build_seconds": self.build_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"n={self.n}" if self.is_fitted else "unfitted"
        return f"{type(self).__name__}({state}, metric={self.metric.name!r})"
