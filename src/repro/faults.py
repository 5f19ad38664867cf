"""Deterministic, seedable fault injection for chaos testing.

The fault-tolerance layer (sharded parallel execution, the serving
dispatcher, snapshot persistence) is only trustworthy if its failure paths
are *exercised* — and a chaos test that cannot reproduce its failures is
worse than none.  This module gives every failure-handling site in the
codebase a **named fault point**; a test (or an operator drill) activates a
:class:`FaultPlan` that decides, deterministically, which activations of
which points misbehave and how.

Named fault points
------------------
==========================  ====================================================
``parallel.worker``         a worker chunk crashes (``mode="kill"``: the
                            worker process dies with ``os._exit`` under the
                            process backend, a typed :class:`WorkerCrashError`
                            under threads/serial)
``parallel.slow``           a worker chunk stalls for ``delay_s`` before
                            computing (straggler simulation; the result is
                            still correct)
``parallel.corrupt``        a worker chunk's result payload is bit-flipped
                            *after* its integrity checksum was computed —
                            transport corruption the parent must detect
``parallel.shm_unlink``     the per-run shared-memory pack is unlinked while
                            tasks that need it are still being dispatched
                            (the unlink race)
``coalescer.dispatch``      the serving dispatcher thread raises mid-cycle
``snapshots.publish``       a snapshot publish fails before the swap
``persist.save``            ``save_index`` dies after writing the temp file,
                            before the atomic rename (crash-mid-save)
``persist.payload``         the saved payload is bit-flipped on disk after
                            the rename (bitrot the loader must detect)
``serving.worker.kill``     a serving worker process dies (``os._exit``)
                            mid-batch; the supervisor must fail over the
                            in-flight batch to a warm replica
``serving.worker.hang``     a serving worker wedges (sleeps ``delay_s``)
                            mid-batch; the supervisor's batch deadline must
                            detect it and fail over
``serving.heartbeat.drop``  the supervisor discards a received worker
                            heartbeat — lost-heartbeat noise that must at
                            worst cause a spurious (idempotent) failover
``serving.shm.unlink``      a snapshot's shared-memory image segment is
                            unlinked right after publication; worker
                            attaches fail and the pool must republish
==========================  ====================================================

Determinism
-----------
A :class:`FaultPlan` counts activations per point; a :class:`FaultSpec`
trips on the first ``times`` activations, on an explicit ``at`` set of
occurrence indices, or on a seeded per-point Bernoulli draw
(``probability``).  Two runs with the same plan, seed and workload trip the
same faults at the same occurrences — which is what lets the chaos property
suite (``tests/properties/test_prop_faults.py``) assert *exact* outcomes
under injected failures.

All decisions are made in the **parent** process, so occurrence counting
never depends on worker scheduling.  A point that misbehaves *inside* a job
(``parallel.worker``, ``parallel.slow``, ``parallel.corrupt``,
``serving.worker.kill``, ``serving.worker.hang``) becomes a :func:`marker`
that rides with the job, and :func:`enact` is the one place any job obeys
one — in a worker process or in-process alike.

Usage::

    from repro import faults

    plan = faults.FaultPlan(
        [faults.FaultSpec("parallel.worker", mode="kill", times=1)], seed=7
    )
    with faults.inject(plan):
        index.quantities_multi(dcs)   # first worker chunk crashes, run recovers
    assert plan.fired()["parallel.worker"] == 1

With no plan installed every fault point is a near-free no-op (one global
read), so production code paths keep their cost.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "FAULT_MODES",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "WorkerCrashError",
    "active_plan",
    "clear",
    "decide",
    "enact",
    "inject",
    "install",
    "marker",
    "trip",
]

#: How a tripped point misbehaves.  ``raise``/``sleep`` are handled by
#: :func:`trip` itself; ``kill``, ``corrupt`` and ``hang`` are returned to
#: the site, which owns the mechanics (process exit, payload bit-flip, a
#: wedged worker sleeping through its batch deadline).
FAULT_MODES = ("raise", "sleep", "kill", "corrupt", "hang")

#: Exit status of a worker process that obeyed a ``kill`` marker.
_KILLED_EXIT_STATUS = 13


class InjectedFault(RuntimeError):
    """An error raised by a tripped fault point.

    Deliberately a distinct type: recovery layers treat it as *retryable*
    (like the infrastructure failures it stands in for), and assertions can
    tell an injected failure from a genuine bug.
    """


class WorkerCrashError(InjectedFault):
    """A simulated worker crash under a backend that cannot lose a process
    (threads/serial); the process backend dies for real instead."""


@dataclass(frozen=True)
class FaultSpec:
    """One rule: *which* activations of *one* point misbehave, and *how*.

    Exactly one trigger applies, in precedence order ``probability`` →
    ``at`` → ``times`` (``times=None`` with the others unset means every
    activation trips).
    """

    point: str
    mode: str = "raise"
    times: Optional[int] = 1
    at: Optional[Tuple[int, ...]] = None
    probability: Optional[float] = None
    delay_s: float = 0.0
    message: str = ""

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(f"mode must be one of {FAULT_MODES}, got {self.mode!r}")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.at is not None:
            object.__setattr__(self, "at", tuple(int(i) for i in self.at))


class FaultPlan:
    """A seeded, counting schedule of fault activations.

    Thread-safe: points fire from worker-dispatch loops, the serving
    dispatcher thread and test threads simultaneously; the per-point
    occurrence counters (and the seeded RNG draws) are serialised under one
    lock, so a plan replayed against the same workload makes the same
    decisions.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.seed = int(seed)
        self._specs: Dict[str, List[FaultSpec]] = {}
        for spec in specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"expected a FaultSpec, got {type(spec).__name__}")
            self._specs.setdefault(spec.point, []).append(spec)
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}
        # One RNG per point, seeded from (seed, point): probability-based
        # specs draw from it in occurrence order, so the trip pattern is a
        # pure function of (seed, workload), never of wall clock or hashing.
        self._rngs: Dict[str, random.Random] = {}

    def points(self) -> Tuple[str, ...]:
        return tuple(sorted(self._specs))

    def decide(self, point: str) -> Optional[FaultSpec]:
        """Count one activation of ``point``; return the spec if it trips."""
        with self._lock:
            occurrence = self._counts.get(point, 0)
            self._counts[point] = occurrence + 1
            for spec in self._specs.get(point, ()):
                if spec.probability is not None:
                    rng = self._rngs.get(point)
                    if rng is None:
                        rng = self._rngs[point] = random.Random(f"{self.seed}:{point}")
                    tripped = rng.random() < spec.probability
                elif spec.at is not None:
                    tripped = occurrence in spec.at
                elif spec.times is None:
                    tripped = True
                else:
                    tripped = occurrence < spec.times
                if tripped:
                    self._fired[point] = self._fired.get(point, 0) + 1
                    return spec
        return None

    def activations(self) -> Dict[str, int]:
        """How many times each point was *reached* (tripped or not)."""
        with self._lock:
            return dict(self._counts)

    def fired(self) -> Dict[str, int]:
        """How many times each point actually tripped."""
        with self._lock:
            return dict(self._fired)


# The active plan is process-global: fault points fire on worker-dispatch
# and serving threads that know nothing about the test that installed it.
_ACTIVE: Optional[FaultPlan] = None
_ACTIVE_LOCK = threading.Lock()


def install(plan: FaultPlan) -> None:
    """Install ``plan`` as the process-wide active plan."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = plan


def clear() -> None:
    """Deactivate fault injection (every point returns to no-op)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = None


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the duration of the block (always cleared)."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


def decide(point: str) -> Optional[FaultSpec]:
    """Consult the active plan about one activation of ``point``.

    Returns the tripped :class:`FaultSpec` (site handles the mechanics) or
    ``None``.  With no plan installed this is a single global read.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.decide(point)


def trip(point: str) -> Optional[FaultSpec]:
    """Fire ``point``: no-op, sleep, or raise, per the active plan.

    ``raise`` specs raise :class:`InjectedFault` here; ``sleep`` specs sleep
    ``delay_s`` and return; ``kill``/``corrupt``/``hang`` specs are returned
    for the call site to enact.
    """
    spec = decide(point)
    if spec is None:
        return None
    if spec.mode == "sleep":
        time.sleep(spec.delay_s)
        return spec
    if spec.mode == "raise":
        raise InjectedFault(
            f"injected fault at {point}" + (f": {spec.message}" if spec.message else "")
        )
    return spec


def marker(point: str) -> Optional[Tuple[str, str, float]]:
    """Decide one activation of a point that misbehaves inside a job: the
    marker the job carries to wherever it runs (:func:`enact`), or None."""
    spec = decide(point)
    return None if spec is None else (point, spec.mode, spec.delay_s)


def enact(job_marker: Optional[Tuple[str, str, float]], in_worker: bool) -> bool:
    """Obey a job's fault marker before the job runs: ``sleep``/``hang``
    stall ``delay_s``, ``raise`` raises :class:`InjectedFault`, ``kill``
    ends a worker process (``in_worker``) or raises
    :class:`WorkerCrashError` in-process.  True for ``corrupt``: the caller
    flips a byte of the result after taking its checksum."""
    if not job_marker:
        return False
    point, mode, delay_s = job_marker
    if mode in ("sleep", "hang"):
        time.sleep(delay_s)
    elif mode == "kill" and in_worker:
        os._exit(_KILLED_EXIT_STATUS)
    elif mode == "kill":
        raise WorkerCrashError(f"injected worker crash ({point})")
    elif mode == "raise":
        raise InjectedFault(f"injected worker fault ({point})")
    return mode == "corrupt"
