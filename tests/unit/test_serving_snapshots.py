"""SnapshotStore: atomic publish/swap, subscriptions, streaming sources."""

import threading

import numpy as np
import pytest

from repro.extras.streaming import StreamingDPC
from repro.indexes.kdtree import KDTreeIndex
from repro.indexes.persist import save_index
from repro.serving.snapshots import SnapshotStore
from repro.serving.service import ClusteringService


@pytest.fixture
def store():
    return SnapshotStore()


class TestPublish:
    def test_fit_and_get(self, store, blobs):
        snapshot = store.fit("a", blobs, index="kdtree")
        assert store.get("a") is snapshot
        assert snapshot.fingerprint == snapshot.index.fingerprint()
        assert snapshot.version == 1
        assert snapshot.n == len(blobs)

    def test_publish_requires_fitted_index(self, store):
        with pytest.raises(ValueError, match="unfitted"):
            store.publish("a", KDTreeIndex())
        with pytest.raises(TypeError, match="DPCIndex"):
            store.publish("a", object())

    def test_swap_replaces_atomically(self, store, blobs):
        first = store.fit("a", blobs, index="kdtree")
        second = store.fit("a", blobs + 1.0, index="kdtree")
        assert store.get("a") is second
        assert second.version > first.version
        assert second.fingerprint != first.fingerprint
        assert not store.is_current(first)
        assert store.is_current(second)

    def test_same_data_same_fingerprint_new_version(self, store, blobs):
        first = store.fit("a", blobs, index="kdtree")
        second = store.fit("a", blobs, index="kdtree")
        assert second.fingerprint == first.fingerprint
        assert second.version > first.version

    def test_load_publishes_persisted_index(self, store, blobs, tmp_path):
        path = str(tmp_path / "x.npz")
        fitted = KDTreeIndex().fit(blobs)
        save_index(fitted, path)
        snapshot = store.load("a", path)
        assert snapshot.fingerprint == fitted.fingerprint()
        np.testing.assert_array_equal(
            snapshot.index.quantities(0.5).rho, fitted.quantities(0.5).rho
        )

    def test_get_unknown_name(self, store):
        with pytest.raises(KeyError, match="no snapshot named"):
            store.get("missing")

    def test_drop(self, store, blobs):
        store.fit("a", blobs, index="grid")
        store.drop("a")
        assert "a" not in store
        store.drop("a")  # idempotent

    def test_names_and_describe(self, store, blobs):
        store.fit("b", blobs, index="grid")
        store.fit("a", blobs, index="kdtree")
        assert store.names() == ("a", "b")
        info = store.describe()
        assert [row["name"] for row in info] == ["a", "b"]
        assert info[0]["index"] == "kdtree"
        assert info[0]["n"] == len(blobs)


class TestSubscriptions:
    def test_swap_notifies_with_old_and_new(self, store, blobs):
        events = []
        store.subscribe(lambda name, new, old: events.append((name, new, old)))
        first = store.fit("a", blobs, index="grid")
        second = store.fit("a", blobs + 1.0, index="grid")
        assert events[0] == ("a", first, None)
        assert events[1] == ("a", second, first)

    def test_drop_notifies(self, store, blobs):
        events = []
        store.subscribe(lambda name, new, old: events.append((name, new, old)))
        snapshot = store.fit("a", blobs, index="grid")
        store.drop("a")
        assert events[-1] == ("a", None, snapshot)

    def test_unsubscribe(self, store, blobs):
        events = []
        unsubscribe = store.subscribe(lambda *args: events.append(args))
        unsubscribe()
        store.fit("a", blobs, index="grid")
        assert events == []

    def test_subscriber_sees_new_snapshot_already_live(self, store, blobs):
        seen = []
        store.subscribe(lambda name, new, old: seen.append(store.get(name) is new))
        store.fit("a", blobs, index="grid")
        store.fit("a", blobs + 1.0, index="grid")
        assert seen == [True, True]


class TestStreamingSource:
    """StreamingDPC as a snapshot source (publish on every add)."""

    def test_add_publishes_new_snapshot(self, blobs):
        with ClusteringService() as service:
            stream = StreamingDPC(index_factory=lambda: KDTreeIndex())
            stream.add(blobs[:100])
            first = service.attach_stream("s", stream)
            assert service.store.get("s") is first
            stream.add(blobs[100:])
            current = service.store.get("s")
            assert current is not first
            assert current.n == len(blobs)
            # The published snapshot answers exactly like a fresh index over
            # the full stream.
            reference = KDTreeIndex().fit(stream.points())
            np.testing.assert_array_equal(
                current.index.quantities(0.5).rho, reference.quantities(0.5).rho
            )

    def test_attach_empty_stream_rejected(self):
        with ClusteringService() as service:
            with pytest.raises(ValueError, match="empty stream"):
                service.attach_stream("s", StreamingDPC())

    def test_every_small_add_publishes_once(self, blobs):
        # Each add, however small, publishes exactly one fresh snapshot
        # through the one swap subscription.
        with ClusteringService() as service:
            stream = StreamingDPC(index_factory=lambda: KDTreeIndex())
            stream.add(blobs)
            swaps = []
            service.store.subscribe(lambda name, new, old: swaps.append(new))
            first = service.attach_stream("s", stream)
            stream.add(blobs[:3])
            stream.add(blobs[3:4])
            assert len(swaps) == 3
            assert swaps[0] is first and swaps[-1] is service.store.get("s")
            assert [snap.n for snap in swaps] == [len(blobs) + k for k in (0, 3, 4)]

    def test_failed_publish_keeps_last_snapshot_until_the_next_add(self, blobs):
        from repro import faults
        from repro.faults import FaultPlan, FaultSpec

        with ClusteringService() as service:
            stream = StreamingDPC(index_factory=lambda: KDTreeIndex())
            stream.add(blobs[:100])
            first = service.attach_stream("s", stream)
            plan = FaultPlan([FaultSpec("snapshots.publish", mode="raise", times=1)])
            with faults.inject(plan):
                stream.add(blobs[100:150])  # the publish fails; the add does not
            assert stream.n == 150
            assert service.store.get("s") is first
            assert service.health()["snapshots"]["s"]["publish_error"]
            stream.add(blobs[150:])  # the next add publishes the whole stream
            assert service.store.get("s").n == len(blobs)
            assert service.health()["snapshots"]["s"]["publish_error"] is None

    def test_swap_invalidates_cache_entries(self, blobs):
        with ClusteringService() as service:
            stream = StreamingDPC(index_factory=lambda: KDTreeIndex())
            stream.add(blobs[:100])
            service.attach_stream("s", stream)
            warm = service.cluster("s", 0.5, n_centers=3)
            assert service.cluster("s", 0.5, n_centers=3).meta["cache_hit"]
            stream.add(blobs[100:])  # ingest -> swap -> invalidation
            after = service.cluster("s", 0.5, n_centers=3)
            assert not after.meta["cache_hit"]
            assert after.meta["fingerprint"] != warm.meta["fingerprint"]
            assert service.cache.stats.invalidations > 0

    def test_failed_attach_leaves_no_subscription(self, blobs):
        with ClusteringService() as service:
            stream = StreamingDPC(index_factory=lambda: KDTreeIndex())
            with pytest.raises(ValueError, match="empty stream"):
                service.attach_stream("s", stream)
            stream.add(blobs)  # a later add must NOT publish "s"
            assert "s" not in service.store

    def test_drop_detaches_stream(self, blobs):
        with ClusteringService() as service:
            stream = StreamingDPC(index_factory=lambda: KDTreeIndex())
            stream.add(blobs[:100])
            service.attach_stream("s", stream)
            service.drop_snapshot("s")
            stream.add(blobs[100:])  # an add after the drop
            assert "s" not in service.store, "a dropped name must stay dropped"

    def test_close_detaches_stream(self, blobs):
        service = ClusteringService()
        stream = StreamingDPC(index_factory=lambda: KDTreeIndex())
        stream.add(blobs[:100])
        service.attach_stream("s", stream)
        service.close()
        before = service.store.get("s")
        stream.add(blobs[100:])
        assert service.store.get("s") is before  # no post-close publishes

    def test_reattach_replaces_previous_stream(self, blobs):
        with ClusteringService() as service:
            old = StreamingDPC(index_factory=lambda: KDTreeIndex())
            old.add(blobs[:60])
            service.attach_stream("s", old)
            new = StreamingDPC(index_factory=lambda: KDTreeIndex())
            new.add(blobs[:80])
            service.attach_stream("s", new)
            current = service.store.get("s")
            old.add(blobs[60:])  # the replaced stream must stop publishing
            assert service.store.get("s") is current
            assert current.n == 80

    def test_unsubscribe(self, blobs):
        stream = StreamingDPC(index_factory=lambda: KDTreeIndex())
        calls = []
        unsubscribe = stream.subscribe(lambda index: calls.append(index))
        stream.add(blobs[:50])
        assert len(calls) == 1
        unsubscribe()
        stream.add(blobs[50:])
        assert len(calls) == 1


class TestSwapRace:
    """A slow in-flight computation must not re-populate invalidated entries."""

    def test_inflight_result_not_cached_after_swap(self, blobs):
        with ClusteringService(dispatch="serial") as service:
            first = service.fit_snapshot("a", blobs, index="grid")
            release = threading.Event()
            entered = threading.Event()
            index = first.index
            original = type(index).quantities_multi

            def stalled(self_, dcs, tie_break="id"):
                entered.set()
                assert release.wait(timeout=10.0)
                return original(self_, dcs, tie_break)

            # Stall the engine call for snapshot v1 mid-flight.
            index.quantities_multi = stalled.__get__(index)
            try:
                future = service.submit("a", "cluster", 0.5, n_centers=3)
                assert entered.wait(timeout=10.0)
                # The swap lands while v1's batch is still computing.
                service.fit_snapshot("a", blobs + 1.0, index="grid")
                release.set()
                result = future.result(timeout=10.0)
            finally:
                index.quantities_multi = original.__get__(index)
            # The in-flight request still answers from the snapshot it
            # resolved (point-in-time consistency)...
            assert result.meta["fingerprint"] == first.fingerprint
            # ...but its result was barred from the cache (guard rejected),
            # so no post-swap request can ever see v1 data.
            assert service.cache.stats.rejected_puts >= 1
            fresh = service.cluster("a", 0.5, n_centers=3)
            assert not fresh.meta["cache_hit"]
            assert fresh.meta["fingerprint"] != first.fingerprint
            assert len(service.cache) <= 1  # only the fresh entry, never v1's
