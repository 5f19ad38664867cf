"""Chaos properties (repro.faults): exactness or fast typed failure.

Under every injected fault plan the system must keep its contracts:

* **Exactness survives recovery** — a run that completes under injected
  worker crashes, stragglers, corrupted payloads, shm unlink races or
  backend degradation returns results bit-identical to the serial direct
  call, probe-counter totals included.
* **Fail fast, never hang** — serving futures always resolve: with the
  exact result, or with a typed ``ServingError``, within a bounded wait.
* **No leaks** — every plan leaves ``/dev/shm`` free of our segments and
  the save directory free of temp files.
"""

import os

import numpy as np
import pytest

from repro import faults
from repro.faults import FaultPlan, FaultSpec, InjectedFault
from repro.indexes.parallel import ExecutionBackend
from repro.indexes.persist import CorruptSnapshotError, load_index, save_index
from repro.indexes.registry import make_index
from repro.serving.errors import (
    DeadlineExceededError,
    DispatcherCrashError,
    LoadShedError,
)
from repro.serving.service import ClusteringService

from tests.conftest import safe_dc, shard_segments


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    """A failing test must never leave its plan armed for the next one."""
    yield
    faults.clear()


def corpus(seed=3, n=96):
    r = np.random.default_rng(seed)
    base = r.normal(0.0, 1.0, size=(n // 2, 2))
    return np.concatenate([base, base[: n // 4], r.normal(2.5, 0.8, size=(n // 4, 2))])


def assert_identical(qa, qb, context=""):
    np.testing.assert_array_equal(qa.rho, qb.rho, err_msg=f"rho differs {context}")
    np.testing.assert_array_equal(qa.delta, qb.delta, err_msg=f"delta differs {context}")
    np.testing.assert_array_equal(qa.mu, qb.mu, err_msg=f"mu differs {context}")


#: (plan factory, backend kind) — every parallel fault point, both rungs
#: where it is meaningful.  ``kill`` under process dies for real
#: (os._exit → the supervisor's JobLost); under threads it raises the typed
#: WorkerCrashError.  All are retryable: the run must complete exactly.
PARALLEL_PLANS = {
    "worker-raise-threads": (
        lambda: FaultPlan([FaultSpec("parallel.worker", mode="raise", times=1)]),
        "threads",
    ),
    "worker-kill-threads": (
        lambda: FaultPlan([FaultSpec("parallel.worker", mode="kill", times=1)]),
        "threads",
    ),
    "worker-kill-process": (
        lambda: FaultPlan([FaultSpec("parallel.worker", mode="kill", times=1)]),
        "process",
    ),
    "slow-worker": (
        lambda: FaultPlan([FaultSpec("parallel.slow", mode="sleep", times=2, delay_s=0.02)]),
        "threads",
    ),
    "corrupt-payload-threads": (
        lambda: FaultPlan([FaultSpec("parallel.corrupt", mode="corrupt", times=1)]),
        "threads",
    ),
    "corrupt-payload-process": (
        lambda: FaultPlan([FaultSpec("parallel.corrupt", mode="corrupt", times=1)]),
        "process",
    ),
    "shm-unlink-race": (
        lambda: FaultPlan([FaultSpec("parallel.shm_unlink", mode="kill", times=1)]),
        "process",
    ),
    "probabilistic-raise": (
        lambda: FaultPlan(
            [FaultSpec("parallel.worker", mode="raise", times=None, probability=0.3)],
            seed=11,
        ),
        "threads",
    ),
}


class TestParallelChaos:
    """Injected infrastructure failures: recovered runs stay bit-identical."""

    @pytest.mark.parametrize("plan_name", sorted(PARALLEL_PLANS))
    def test_recovered_run_is_bit_identical(self, plan_name):
        make_plan, kind = PARALLEL_PLANS[plan_name]
        points = corpus()
        dc = safe_dc(points)
        serial = make_index("kdtree", leaf_size=8).fit(points)
        reference = serial.quantities(dc)
        ref_stats = serial.stats().as_dict()
        backend = ExecutionBackend(kind, n_jobs=2, chunk_size=11, max_retries=3)
        sharded = make_index("kdtree", leaf_size=8, backend=backend).fit(points)
        before = shard_segments()
        try:
            with faults.inject(make_plan()) as plan:
                got = sharded.quantities(dc)
            assert_identical(reference, got, context=f"[{plan_name}]")
            assert sharded.stats().as_dict() == ref_stats, plan_name
            if "probabilistic" not in plan_name:
                assert sum(plan.fired().values()) >= 1, plan_name
        finally:
            sharded.release_execution()
            backend.shutdown()
        assert shard_segments() == before, f"shm leak under {plan_name}"

    def test_same_plan_same_seed_fires_identically(self):
        """Determinism: two identical runs trip the same occurrences."""
        points = corpus()
        dc = safe_dc(points)
        fired = []
        for _ in range(2):
            backend = ExecutionBackend("threads", n_jobs=2, chunk_size=11)
            sharded = make_index("kdtree", leaf_size=8, backend=backend).fit(points)
            plan = FaultPlan(
                [FaultSpec("parallel.worker", mode="raise", times=None, probability=0.4)],
                seed=29,
            )
            try:
                with faults.inject(plan):
                    sharded.quantities(dc)
            finally:
                sharded.release_execution()
                backend.shutdown()
            fired.append((plan.fired(), plan.activations()))
        assert fired[0] == fired[1]

    def test_degradation_ladder_process_to_threads(self):
        """Retries exhausted on the process rung: degrade, stay exact."""
        points = corpus()
        dc = safe_dc(points)
        serial = make_index("kdtree", leaf_size=8).fit(points)
        reference = serial.quantities(dc)
        backend = ExecutionBackend("process", n_jobs=2, chunk_size=11, max_retries=0)
        sharded = make_index("kdtree", leaf_size=8, backend=backend).fit(points)
        before = shard_segments()
        try:
            plan = FaultPlan([FaultSpec("parallel.worker", mode="kill", times=1)])
            with faults.inject(plan):
                got = sharded.quantities(dc)
            assert_identical(reference, got, context="[degraded]")
            assert backend.degraded
            assert backend.effective_kind == "threads"
            health = backend.health()
            assert health["degradations"] >= 1
            assert health["last_error"]
            # degradation is sticky until the operator resets it
            assert_identical(reference, sharded.quantities(dc), context="[sticky]")
            assert backend.effective_kind == "threads"
            backend.reset_degradation()
            assert not backend.degraded
            assert backend.effective_kind == "process"
            assert_identical(reference, sharded.quantities(dc), context="[reset]")
        finally:
            sharded.release_execution()
            backend.shutdown()
        assert shard_segments() == before

    def test_deterministic_worker_error_propagates_unretried(self):
        """A genuine bug (non-infrastructure error) is never retried into
        silence: it propagates with its original type immediately."""
        points = corpus()
        backend = ExecutionBackend("threads", n_jobs=2, chunk_size=11, max_retries=3)
        sharded = make_index("kdtree", leaf_size=8, backend=backend).fit(points)
        try:
            with pytest.raises(ValueError, match="dc must be positive"):
                sharded.quantities(-1.0)
            assert backend.health()["retries"] == 0
        finally:
            sharded.release_execution()
            backend.shutdown()


#: CI chaos-smoke seed: the workflow matrix re-runs this module with
#: several fixed seeds, steering every probability-based plan into a
#: different (but reproducible) trip pattern.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


class TestSeededChaosMix:
    """One storm of every parallel fault class at once, seed-matrixed."""

    @pytest.mark.parametrize("kind", ("threads", "process"))
    def test_mixed_fault_storm_stays_exact(self, kind):
        points = corpus()
        dc = safe_dc(points)
        serial = make_index("kdtree", leaf_size=8).fit(points)
        reference = serial.quantities(dc)
        ref_stats = serial.stats().as_dict()
        plan = FaultPlan(
            [
                FaultSpec("parallel.worker", mode="raise", times=None, probability=0.2),
                FaultSpec("parallel.slow", mode="sleep", times=None, probability=0.2, delay_s=0.005),
                FaultSpec("parallel.corrupt", mode="corrupt", times=None, probability=0.2),
            ],
            seed=CHAOS_SEED,
        )
        backend = ExecutionBackend(kind, n_jobs=2, chunk_size=11, max_retries=6)
        sharded = make_index("kdtree", leaf_size=8, backend=backend).fit(points)
        before = shard_segments()
        try:
            with faults.inject(plan):
                got = sharded.quantities(dc)
            assert_identical(reference, got, context=f"[storm/{kind}/seed={CHAOS_SEED}]")
            assert sharded.stats().as_dict() == ref_stats
        finally:
            sharded.release_execution()
            backend.shutdown()
        assert shard_segments() == before


class TestServingChaos:
    """Serving futures resolve exactly or fail fast — never hang."""

    def test_dispatcher_crash_fails_fast_and_recovers(self, blobs):
        points = corpus()
        reference = make_index("kdtree").fit(points).cluster(0.5, n_centers=3)
        with ClusteringService(linger_ms=1.0, cache_entries=0) as service:
            service.fit_snapshot("main", points, index="kdtree")
            plan = FaultPlan([FaultSpec("coalescer.dispatch", mode="raise", times=1)])
            with faults.inject(plan):
                futures = [
                    service.submit("main", "cluster", 0.5, n_centers=3)
                    for _ in range(6)
                ]
                outcomes = []
                for future in futures:
                    try:  # bounded wait: a hang here is the failure mode
                        outcomes.append(future.result(timeout=30.0))
                    except DispatcherCrashError as exc:
                        outcomes.append(exc)
            assert plan.fired()["coalescer.dispatch"] == 1
            crashed = [o for o in outcomes if isinstance(o, DispatcherCrashError)]
            served = [o for o in outcomes if not isinstance(o, Exception)]
            assert crashed, "the injected crash must fail at least one request"
            for result in served:
                np.testing.assert_array_equal(result.value.labels, reference.labels)
            # the supervisor restarted the dispatcher: next request serves
            after = service.cluster("main", 0.5, n_centers=3)
            np.testing.assert_array_equal(after.value.labels, reference.labels)
            assert service.stats()["coalescer"]["dispatcher_restarts"] >= 1

    def test_deadline_expired_fails_fast(self):
        points = corpus()
        with ClusteringService(linger_ms=0.0, cache_entries=0) as service:
            service.fit_snapshot("main", points, index="kdtree")
            # A dispatcher stall longer than the request deadline: the
            # request must be failed at dispatch, not ride the engine call.
            plan = FaultPlan(
                [FaultSpec("coalescer.dispatch", mode="sleep", times=1, delay_s=0.2)]
            )
            with faults.inject(plan):
                future = service.submit("main", "cluster", 0.5, timeout_s=0.05)
                with pytest.raises(DeadlineExceededError):
                    future.result(timeout=30.0)
            assert service.stats()["coalescer"]["expired"] == 1
            # no deadline → same request serves fine afterwards
            assert service.cluster("main", 0.5).value is not None

    def test_load_shedding_and_cached_degradation(self):
        points = corpus()
        reference = make_index("kdtree").fit(points).cluster(0.5, n_centers=3)
        with ClusteringService(linger_ms=1.0) as service:
            service.fit_snapshot("main", points, index="kdtree")
            warm = service.cluster("main", 0.5, n_centers=3)  # prime the cache
            np.testing.assert_array_equal(warm.value.labels, reference.labels)
            service.coalescer.max_queue = 0  # drain mode: shed everything
            with pytest.raises(LoadShedError) as shed:
                service.submit("main", "cluster", 0.7).result(timeout=30.0)
            assert shed.value.retry_after_s > 0
            health = service.health()
            assert health["state"] == "shedding"
            assert health["shed"] >= 1
            # graceful degradation: the exact-result cache still serves
            hit = service.cluster("main", 0.5, n_centers=3)
            assert hit.meta["cache_hit"] is True
            np.testing.assert_array_equal(hit.value.labels, reference.labels)
            service.coalescer.max_queue = None
            assert service.health()["state"] == "healthy"

    def test_publish_fault_keeps_last_good_snapshot(self):
        points = corpus()
        with ClusteringService(linger_ms=1.0) as service:
            snapshot = service.fit_snapshot("main", points, index="kdtree")
            plan = FaultPlan([FaultSpec("snapshots.publish", mode="raise", times=1)])
            with faults.inject(plan):
                with pytest.raises(InjectedFault):
                    service.fit_snapshot("main", corpus(seed=9), index="kdtree")
            # the failed publish never swapped: the old snapshot still serves
            assert service.store.get("main") is snapshot
            assert service.store.is_current(snapshot)
            assert service.cluster("main", 0.5).value is not None


class TestPersistChaos:
    """Atomic save and corruption quarantine under injected faults."""

    def test_crash_mid_save_leaves_previous_payload(self, tmp_path):
        points = corpus()
        path = str(tmp_path / "index.npz")
        first = make_index("kdtree").fit(points)
        save_index(first, path)
        second = make_index("kdtree").fit(corpus(seed=9))
        plan = FaultPlan([FaultSpec("persist.save", mode="raise", times=1)])
        with faults.inject(plan):
            with pytest.raises(InjectedFault):
                save_index(second, path)
        # the interrupted save replaced nothing and leaked no temp file
        assert load_index(path).fingerprint() == first.fingerprint()
        assert os.listdir(tmp_path) == ["index.npz"]

    def test_bitrot_detected_and_quarantined(self, tmp_path):
        points = corpus()
        path = str(tmp_path / "index.npz")
        plan = FaultPlan([FaultSpec("persist.payload", mode="corrupt", times=1)])
        with faults.inject(plan):
            save_index(make_index("kdtree").fit(points), path)
        with pytest.raises(CorruptSnapshotError) as info:
            load_index(path)
        assert info.value.quarantined_to == path + ".corrupt"
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        # a retry loop now fails clean instead of re-reading the same bytes
        with pytest.raises(FileNotFoundError):
            load_index(path)
