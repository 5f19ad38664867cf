"""WorkerPool unit behaviour: lifecycle, failover bookkeeping, drain, health.

The chaos *properties* (bit-identity under storms) live in
``tests/properties/test_prop_serving_replicated.py``; these tests pin the
pool's mechanical contract — validation, stats, image retirement, sticky
degradation, respawn — at unit granularity with one tiny corpus.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.core.quantities import TieBreak
from repro.indexes.registry import make_index
from repro.serving.coalescer import RequestCoalescer, ServeRequest
from repro.serving.errors import WorkerPoolUnavailableError
from repro.serving.snapshots import SnapshotStore
from repro.serving.workers import WorkerPool

from tests.conftest import safe_dc, shard_segments


def small_corpus(seed=5, n=64):
    r = np.random.default_rng(seed)
    return r.normal(size=(n, 2))


def wait_until(predicate, timeout_s=10.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@pytest.fixture
def store():
    return SnapshotStore()


class TestValidation:
    def test_rejects_zero_workers(self, store):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(store, workers=0)

    def test_rejects_nonpositive_heartbeat(self, store):
        with pytest.raises(ValueError, match="heartbeat_s"):
            WorkerPool(store, workers=1, heartbeat_s=0.0)

    def test_rejects_nonpositive_batch_timeout(self, store):
        with pytest.raises(ValueError, match="batch_timeout_s"):
            WorkerPool(store, workers=1, batch_timeout_s=-1.0)


class TestRoundTrip:
    def test_batch_is_bit_identical_and_counted(self, store):
        points = small_corpus()
        snapshot = store.fit("main", points, index="ch")
        dcs = [safe_dc(points, 0.2), safe_dc(points, 0.4)]
        reference = make_index("ch").fit(points).quantities_multi(dcs)
        with WorkerPool(store, workers=1, heartbeat_s=0.05) as pool:
            payload = pool.submit(snapshot, dcs, TieBreak.ID).result(timeout=60.0)
            assert len(payload) == len(dcs)
            for got, want in zip(payload, reference):
                np.testing.assert_array_equal(got.rho, want.rho)
                np.testing.assert_array_equal(got.delta, want.delta)
                np.testing.assert_array_equal(got.mu, want.mu)
            stats = pool.stats_snapshot()
            assert stats["submitted"] == 1
            assert stats["completed"] == 1
            assert stats["failovers"] == 0
            assert stats["images_published"] == 1
            assert len(pool.worker_pids()) == 1

    def test_stats_snapshot_is_a_copy(self, store):
        store.fit("main", small_corpus(), index="ch")
        with WorkerPool(store, workers=1, heartbeat_s=0.05) as pool:
            snap = pool.stats_snapshot()
            snap["submitted"] = 999
            assert pool.stats_snapshot()["submitted"] == 0

    def test_health_rollup_shape(self, store):
        store.fit("main", small_corpus(), index="ch")
        with WorkerPool(store, workers=2, heartbeat_s=0.05) as pool:
            assert wait_until(lambda: len(pool.worker_pids()) == 2)
            health = pool.health()
            assert health["state"] in ("healthy", "degraded")
            assert len(health["workers"]) == 2
            for row in health["workers"]:
                assert row["state"] in ("healthy", "busy", "respawning", "draining")
                assert isinstance(row["pid"], int)
            assert health["pending_batches"] == 0


class TestImageLifecycle:
    def test_swap_retires_the_old_image(self, store):
        before = shard_segments()
        points_v1 = small_corpus(seed=5)
        points_v2 = small_corpus(seed=6)
        snapshot = store.fit("main", points_v1, index="ch")
        dc = safe_dc(points_v1, 0.3)
        with WorkerPool(store, workers=1, heartbeat_s=0.05) as pool:
            pool.submit(snapshot, [dc], TieBreak.ID).result(timeout=60.0)
            assert pool.stats_snapshot()["images_published"] == 1
            swapped = store.fit("main", points_v2, index="ch")
            assert wait_until(
                lambda: pool.stats_snapshot()["images_retired"] == 1
            ), "old content image never retired after the swap"
            dc2 = safe_dc(points_v2, 0.3)
            reference = make_index("ch").fit(points_v2).quantities_multi([dc2])[0]
            got = pool.submit(swapped, [dc2], TieBreak.ID).result(timeout=60.0)[0]
            np.testing.assert_array_equal(got.rho, reference.rho)
            np.testing.assert_array_equal(got.delta, reference.delta)
        assert shard_segments() == before, "pool close leaked shm segments"

    def test_same_content_republish_is_not_retired(self, store):
        points = small_corpus()
        store.fit("main", points, index="ch")
        with WorkerPool(store, workers=1, heartbeat_s=0.05) as pool:
            # Same bytes, same fingerprint: the image must be reused as-is.
            store.fit("main", points, index="ch")
            time.sleep(0.2)
            stats = pool.stats_snapshot()
            assert stats["images_retired"] == 0


class TestDrainAndClose:
    def test_drain_idle_pool_is_clean(self, store):
        store.fit("main", small_corpus(), index="ch")
        pool = WorkerPool(store, workers=1, heartbeat_s=0.05)
        assert pool.drain(timeout_s=10.0) is True
        # Idempotent: draining/closing again is a no-op that stays clean.
        assert pool.drain(timeout_s=1.0) is True
        pool.close()

    def test_submit_after_close_raises_unavailable(self, store):
        snapshot = store.fit("main", small_corpus(), index="ch")
        pool = WorkerPool(store, workers=1, heartbeat_s=0.05)
        pool.close()
        with pytest.raises(WorkerPoolUnavailableError):
            pool.submit(snapshot, [0.5], TieBreak.ID)

    def test_close_releases_every_segment(self, store):
        before = shard_segments()
        snapshot = store.fit("main", small_corpus(), index="ch")
        pool = WorkerPool(store, workers=2, heartbeat_s=0.05)
        pool.submit(snapshot, [safe_dc(small_corpus(), 0.3)], TieBreak.ID).result(
            timeout=60.0
        )
        pool.close()
        assert shard_segments() == before


class TestFailoverMechanics:
    def test_killed_worker_is_respawned_and_pool_recovers(self, store):
        points = small_corpus()
        snapshot = store.fit("main", points, index="ch")
        dc = safe_dc(points, 0.3)
        reference = make_index("ch").fit(points).quantities_multi([dc])[0]
        with WorkerPool(
            store, workers=1, heartbeat_s=0.05, respawn_backoff_s=0.01
        ) as pool:
            (pid,) = pool.worker_pids()
            os.kill(pid, signal.SIGKILL)
            assert wait_until(
                lambda: pool.stats_snapshot()["worker_deaths"] >= 1
            ), "supervisor never noticed the SIGKILL"
            assert wait_until(
                lambda: pool.worker_pids() and pool.worker_pids() != [pid]
            ), "worker never respawned"
            got = pool.submit(snapshot, [dc], TieBreak.ID).result(timeout=60.0)[0]
            np.testing.assert_array_equal(got.rho, reference.rho)
            np.testing.assert_array_equal(got.delta, reference.delta)
            stats = pool.stats_snapshot()
            assert stats["respawns"] >= 1
            assert stats["worker_deaths"] >= 1

    def test_all_workers_down_raises_and_sets_sticky_degradation(self, store):
        snapshot = store.fit("main", small_corpus(), index="ch")
        with WorkerPool(
            store,
            workers=1,
            heartbeat_s=0.05,
            # Park the respawn far away so the down window is observable.
            respawn_backoff_s=30.0,
            respawn_backoff_cap_s=60.0,
        ) as pool:
            (pid,) = pool.worker_pids()
            os.kill(pid, signal.SIGKILL)
            assert wait_until(lambda: not pool.worker_pids())
            with pytest.raises(WorkerPoolUnavailableError):
                pool.submit(snapshot, [0.5], TieBreak.ID)
            assert pool.degraded is not None
            assert pool.health()["state"] == "degraded"
            pool.reset_degradation()
            assert pool.degraded is None

    def test_slow_cluster_tail_leaves_the_supervisor_free(self, store):
        """The ``cluster`` tail of a pool-answered group (centre selection,
        assignment, a halo on request) runs off the supervisor thread: a
        tail held far past the liveness timeout kills no healthy worker,
        and a request sent meanwhile is answered before the tail returns."""
        points = small_corpus()
        snapshot = store.fit("main", points, index="kdtree")
        dc, other_dc = safe_dc(points, 0.3), safe_dc(points, 0.5)
        started, release = threading.Event(), threading.Event()
        real = snapshot.index.cluster_from_quantities

        def slow_tail(*args, **kwargs):
            started.set()
            release.wait(timeout=30.0)
            return real(*args, **kwargs)

        snapshot.index.cluster_from_quantities = slow_tail
        with WorkerPool(
            store, workers=2, heartbeat_s=0.05, liveness_timeout_s=0.3
        ) as pool, RequestCoalescer(linger_ms=0.0, executor=pool.submit) as coalescer:
            slow = coalescer.submit(ServeRequest(snapshot, "cluster", dc, n_centers=2))
            try:
                assert started.wait(timeout=30.0), "the tail never started"
                quick = coalescer.submit(ServeRequest(snapshot, "quantities", other_dc))
                value, _meta = quick.result(timeout=10.0)
                assert not slow.done()
                want = make_index("kdtree").fit(points).quantities(other_dc)
                np.testing.assert_array_equal(value.delta, want.delta)
                time.sleep(4 * pool.liveness_timeout_s)  # heartbeats keep landing
                assert not slow.done()
            finally:
                release.set()
            clustered, _meta = slow.result(timeout=30.0)
            assert len(clustered.labels) == len(points)
            assert pool.stats_snapshot()["worker_deaths"] == 0

    def test_worker_exits_on_sigterm_under_a_parent_handler(self, store):
        """``cmd_serve`` installs a Python SIGTERM handler before it forks
        workers; a worker inherits it through ``fork`` and must still exit
        on SIGTERM."""
        store.fit("main", small_corpus(), index="ch")
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            with WorkerPool(
                store,
                workers=1,
                heartbeat_s=0.05,
                # Park the respawn far away so the exit is observable.
                respawn_backoff_s=30.0,
                respawn_backoff_cap_s=60.0,
            ) as pool:
                (pid,) = pool.worker_pids()
                os.kill(pid, signal.SIGTERM)
                assert wait_until(
                    lambda: pool.stats_snapshot()["worker_deaths"] == 1,
                    timeout_s=5.0,
                ), "the worker ignored SIGTERM"
                assert not pool.worker_pids()
        finally:
            signal.signal(signal.SIGTERM, previous)


#: Builds a two-worker pool over a published snapshot, prints the worker
#: pids and waits to be killed.
_POOL_HELPER = """
import time
import numpy as np
from repro.serving.snapshots import SnapshotStore
from repro.serving.workers import WorkerPool
store = SnapshotStore()
store.fit("main", np.random.default_rng(5).normal(size=(64, 2)), index="kdtree")
pool = WorkerPool(store, workers=2, heartbeat_s={heartbeat_s})
print(*pool.worker_pids(), flush=True)
time.sleep(60)
"""


def running(pid):
    """Alive and not a zombie (an orphan's exit may wait for a reaper)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


#: Runs one ``process``-backend query, prints the engine's worker pids and
#: waits to be killed.
_ENGINE_HELPER = """
import multiprocessing
import time
import numpy as np
from repro.indexes.registry import make_index
index = make_index("kdtree", backend="process", n_jobs=2, chunk_size=50)
index.fit(np.random.default_rng(5).normal(size=(400, 2))).quantities(0.5)
print(*(p.pid for p in multiprocessing.active_children()), flush=True)
time.sleep(60)
"""

#: Holds a two-worker pool and a ``process``-backend index at once: the
#: engine's workers fork after the pool's, holding copies of its pipe ends.
_BOTH_HELPER = """
import multiprocessing
import time
import numpy as np
from repro.indexes.registry import make_index
from repro.serving.snapshots import SnapshotStore
from repro.serving.workers import WorkerPool
points = np.random.default_rng(5).normal(size=(400, 2))
store = SnapshotStore()
store.fit("main", points[:64], index="kdtree")
pool = WorkerPool(store, workers=2, heartbeat_s={heartbeat_s})
index = make_index("kdtree", backend="process", n_jobs=2, chunk_size=50)
index.fit(points).quantities(0.5)
print(*(p.pid for p in multiprocessing.active_children()), flush=True)
time.sleep(60)
"""


def orphan_survivors(heartbeat_s, timeout_s, helper_source=_POOL_HELPER, workers=2):
    """SIGKILL a pool owner; the pids of its workers still running
    ``timeout_s`` later (killed here, so a failing run leaks none)."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    helper = subprocess.Popen(
        [sys.executable, "-c", helper_source.format(heartbeat_s=heartbeat_s)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        pids = [int(pid) for pid in helper.stdout.readline().split()]
    finally:
        helper.kill()
        helper.wait()
        helper.stdout.close()
    assert len(pids) == workers
    wait_until(lambda: not any(running(pid) for pid in pids), timeout_s=timeout_s)
    survivors = [pid for pid in pids if running(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    return survivors


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_exit_when_the_parent_is_sigkilled():
    """A SIGKILLed parent sends no ("stop",); its workers must notice the
    reparenting and exit rather than keep the snapshot image mapped."""
    assert orphan_survivors(heartbeat_s=0.05, timeout_s=2.0) == [], (
        "serving workers outlived a SIGKILLed parent"
    )


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_orphaned_workers_exit_before_their_next_heartbeat():
    """A worker holds no copy of any pool-side pipe end, so its pipe reads
    EOF the moment the owner dies: it exits well inside a 5 s heartbeat,
    without waiting for the getppid watch."""
    assert orphan_survivors(heartbeat_s=5.0, timeout_s=1.0) == [], (
        "orphaned serving workers waited for their heartbeat to exit"
    )


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_engine_workers_exit_when_the_owner_is_sigkilled():
    """The engine's ``process`` rung runs on the same supervised workers:
    a SIGKILLed owner leaves none of them running."""
    assert orphan_survivors(
        heartbeat_s=0.05, timeout_s=2.0, helper_source=_ENGINE_HELPER
    ) == [], "engine workers outlived a SIGKILLed owner"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_of_two_supervisors_exit_when_the_owner_is_sigkilled():
    """An owner holding a serving pool and a ``process``-backend index: a
    worker of one supervisor that inherited the other's pipe ends still
    exits (the ``getppid`` watch), and so do all the others."""
    assert orphan_survivors(
        heartbeat_s=0.05, timeout_s=2.0, helper_source=_BOTH_HELPER, workers=4
    ) == [], "workers outlived a SIGKILLed owner of two supervisors"
