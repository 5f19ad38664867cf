"""Chaos properties of the replicated serving tier (ISSUE 10 acceptance).

The contract under seeded fault storms against a service running supervised
shared-memory serving workers:

* **Zero client-visible errors under worker death** — killing any single
  serving worker mid-batch re-dispatches the in-flight batch to a warm
  replica (or degrades to in-process dispatch); every client future still
  resolves with a result.
* **Bit-identical responses** — every served payload equals a direct
  ``quantities_multi`` on the same index, fingerprint-checked element-wise;
  failover replays are idempotent, so retries cannot smear results.
* **Failovers are observable** — ``repro_serving_failovers_total`` lands in
  the metrics registry when a batch was re-dispatched.
* **No shm leaks** — every storm leaves ``/dev/shm`` free of our segments
  once the service is drained/closed, snapshot-image unlink races included.
"""

import threading
import time

import numpy as np
import pytest

from repro import faults, obs
from repro.faults import FaultPlan, FaultSpec
from repro.indexes.registry import make_index
from repro.obs.export import render_prometheus
from repro.serving.service import ClusteringService

from tests.conftest import safe_dc, shard_segments


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    faults.clear()


def corpus(seed=7, n=96):
    r = np.random.default_rng(seed)
    base = r.normal(0.0, 1.0, size=(n // 2, 2))
    return np.concatenate([base, base[: n // 4], r.normal(2.5, 0.8, size=(n // 4, 2))])


def assert_identical(qa, qb, context=""):
    np.testing.assert_array_equal(qa.rho, qb.rho, err_msg=f"rho differs {context}")
    np.testing.assert_array_equal(qa.delta, qb.delta, err_msg=f"delta differs {context}")
    np.testing.assert_array_equal(qa.mu, qb.mu, err_msg=f"mu differs {context}")


#: name -> (plan factory, service kwargs overrides).  ``kill`` storms lose a
#: real worker process mid-batch (os._exit inside the child); ``hang`` wedges
#: one (heartbeats continue, the batch deadline catches it); heartbeat drops
#: starve liveness until the supervisor declares false deaths — all must end
#: in exact results, the idempotent-failover way.
STORMS = {
    "kill-mid-batch": (
        lambda: FaultPlan([FaultSpec("serving.worker.kill", mode="kill", times=1)]),
        {},
    ),
    "kill-twice": (
        lambda: FaultPlan([FaultSpec("serving.worker.kill", mode="kill", times=2)]),
        {},
    ),
    "hang-wedged-worker": (
        lambda: FaultPlan(
            [FaultSpec("serving.worker.hang", mode="hang", times=1, delay_s=30.0)]
        ),
        {"batch_timeout_s": 0.5},
    ),
    "heartbeat-drop-burst": (
        lambda: FaultPlan(
            [FaultSpec("serving.heartbeat.drop", mode="raise", times=12)]
        ),
        {},
    ),
    "shm-unlink-race": (
        lambda: FaultPlan([FaultSpec("serving.shm.unlink", mode="kill", times=1)]),
        {},
    ),
    "seeded-mixed-storm": (
        lambda: FaultPlan(
            [
                FaultSpec(
                    "serving.worker.kill", mode="kill", times=None, probability=0.25
                ),
                FaultSpec(
                    "serving.heartbeat.drop", mode="raise", times=None, probability=0.2
                ),
            ],
            seed=42,
        ),
        {},
    ),
}


@pytest.mark.parametrize("storm", sorted(STORMS))
def test_storm_zero_visible_errors_bit_identical(storm):
    """Under every storm: all futures resolve with results bit-identical to
    a direct ``quantities_multi``, and no shm segment survives the close."""
    plan_factory, overrides = STORMS[storm]
    points = corpus()
    dcs = [safe_dc(points, f) for f in (0.15, 0.3, 0.5)]
    direct = make_index("ch").fit(points)
    references = dict(zip(dcs, direct.quantities_multi(dcs)))

    before = shard_segments()
    with ClusteringService(
        workers=2, heartbeat_s=0.1, cache_entries=0, linger_ms=5.0, **overrides
    ) as service:
        # Armed before the publish: the shm-unlink point fires in the
        # publish window itself; the others activate during dispatch.
        plan = plan_factory()
        faults.install(plan)
        try:
            service.fit_snapshot("data", points, index="ch")
            # Three waves of concurrent clients: enough activations for the
            # storm to fire mid-batch, and for post-failover batches to show
            # the pool recovered (not just degraded once and stayed down).
            for _ in range(3):
                futures = [
                    service.submit("data", "quantities", dc, use_cache=False)
                    for dc in dcs
                ]
                for dc, future in zip(dcs, futures):
                    result = future.result(timeout=60.0)
                    assert_identical(
                        result.value, references[dc], f"(storm={storm}, dc={dc})"
                    )
            # Heartbeat-borne points only activate when a heartbeat arrives
            # while the plan is armed — give the 0.1 s cadence a moment.
            deadline = time.monotonic() + 5.0
            while not sum(plan.fired().values()) and time.monotonic() < deadline:
                time.sleep(0.05)
            fired = plan.fired()
        finally:
            faults.clear()
        assert sum(fired.values()) >= 1, f"storm {storm} never fired: {fired}"
        assert service.drain(timeout_s=30.0)
    assert shard_segments() == before, "serving images leaked into /dev/shm"


def test_kill_mid_batch_counts_failover_in_metrics():
    """The acceptance check: one worker killed mid-batch → zero errors,
    bit-identical responses, and the failover visible in /metrics."""
    points = corpus(seed=11)
    dcs = [safe_dc(points, f) for f in (0.2, 0.4)]
    direct = make_index("ch").fit(points)
    references = dict(zip(dcs, direct.quantities_multi(dcs)))

    with obs.enabled_scope():
        with ClusteringService(
            workers=2, heartbeat_s=0.1, cache_entries=0, linger_ms=5.0
        ) as service:
            service.fit_snapshot("data", points, index="ch")
            plan = FaultPlan(
                [FaultSpec("serving.worker.kill", mode="kill", times=1)]
            )
            faults.install(plan)
            try:
                futures = [
                    service.submit("data", "quantities", dc, use_cache=False)
                    for dc in dcs
                ]
                for dc, future in zip(dcs, futures):
                    assert_identical(future.result(timeout=60.0).value, references[dc])
                fired = plan.fired()
            finally:
                faults.clear()
            assert fired.get("serving.worker.kill") == 1
            stats = service.pool.stats_snapshot()
            assert stats["worker_deaths"] >= 1
            assert stats["failovers"] >= 1 or stats["inline_fallbacks"] >= 1
            exposition = render_prometheus()
            assert service.drain(timeout_s=30.0)
    assert "repro_serving_worker_deaths_total" in exposition
    if stats["failovers"]:
        assert "repro_serving_failovers_total" in exposition


def test_worker_death_under_concurrent_load_is_invisible():
    """A storm of kills while many clients hammer the service: every future
    resolves exactly; the pool either failed over or degraded, never erred."""
    points = corpus(seed=23, n=80)
    dcs = [safe_dc(points, f) for f in (0.2, 0.35, 0.5)]
    direct = make_index("ch").fit(points)
    references = dict(zip(dcs, direct.quantities_multi(dcs)))

    before = shard_segments()
    with ClusteringService(
        workers=2, heartbeat_s=0.1, cache_entries=0, linger_ms=2.0
    ) as service:
        service.fit_snapshot("data", points, index="ch")
        faults.install(
            FaultPlan(
                [FaultSpec("serving.worker.kill", mode="kill", times=None,
                           probability=0.5)],
                seed=7,
            )
        )
        errors = []
        outcomes = []
        lock = threading.Lock()

        def client(slot):
            rng = np.random.default_rng(slot)
            for _ in range(4):
                dc = dcs[int(rng.integers(0, len(dcs)))]
                try:
                    value = service.submit(
                        "data", "quantities", dc, use_cache=False
                    ).result(timeout=60.0).value
                except Exception as exc:  # noqa: BLE001 - the assertion
                    with lock:
                        errors.append((slot, type(exc).__name__, str(exc)))
                else:
                    with lock:
                        outcomes.append((dc, value))

        threads = [threading.Thread(target=client, args=(s,)) for s in range(4)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            faults.clear()
        assert not errors, f"client-visible errors under worker death: {errors}"
        assert len(outcomes) == 16
        for dc, value in outcomes:
            assert_identical(value, references[dc], f"(dc={dc})")
        assert service.drain(timeout_s=30.0)
    assert shard_segments() == before, "leaked serving segments"


def test_shm_unlink_storm_republishes_and_stays_exact():
    """Unlinking the snapshot image right after publish (the crash window)
    forces a republish on next dispatch; responses stay exact, no leak."""
    points = corpus(seed=31, n=72)
    dc = safe_dc(points, 0.3)
    reference = make_index("ch").fit(points).quantities_multi([dc])[0]

    before = shard_segments()
    with ClusteringService(workers=2, heartbeat_s=0.1, cache_entries=0) as service:
        plan = FaultPlan([FaultSpec("serving.shm.unlink", mode="kill", times=1)])
        faults.install(plan)
        try:
            service.fit_snapshot("data", points, index="ch")
            result = service.submit("data", "quantities", dc, use_cache=False).result(
                timeout=60.0
            )
            fired = plan.fired()
        finally:
            faults.clear()
        assert fired.get("serving.shm.unlink", 0) >= 1
        assert_identical(result.value, reference)
        assert service.drain(timeout_s=30.0)
    assert shard_segments() == before


def test_drain_under_load_flushes_and_refuses():
    """SIGTERM semantics at the service layer: drain() lets in-flight
    requests finish (exactly), refuses new ones, and reports clean."""
    from repro.serving.errors import ServiceDrainingError

    points = corpus(seed=41, n=80)
    dc = safe_dc(points, 0.3)
    reference = make_index("ch").fit(points).quantities_multi([dc])[0]

    before = shard_segments()
    service = ClusteringService(workers=2, heartbeat_s=0.1, cache_entries=0,
                                linger_ms=20.0)
    try:
        service.fit_snapshot("data", points, index="ch")
        futures = [
            service.submit("data", "quantities", dc, use_cache=False)
            for _ in range(3)
        ]
        assert service.drain(timeout_s=30.0) is True
        for future in futures:
            assert_identical(future.result(timeout=1.0).value, reference)
        with pytest.raises((ServiceDrainingError, RuntimeError)):
            service.submit("data", "quantities", dc)
    finally:
        service.close()
    assert shard_segments() == before
