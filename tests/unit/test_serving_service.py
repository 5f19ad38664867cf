"""ClusteringService + RequestCoalescer behaviour (exactness, caching, errors)."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.indexes.registry import make_index
from repro.serving.coalescer import RequestCoalescer, ServeRequest
from repro.serving.service import ClusteringService


@pytest.fixture
def service(blobs):
    with ClusteringService(linger_ms=1.0) as service:
        service.fit_snapshot("main", blobs, index="kdtree")
        yield service


class TestExactness:
    def test_fit_snapshot_defaults_to_kdtree(self, service, blobs):
        assert service.fit_snapshot("plain", blobs).index.name == "kdtree"

    def test_quantities_matches_direct_call(self, service, blobs):
        direct = make_index("kdtree").fit(blobs)
        for dc in (0.3, 0.5, 0.9):
            served = service.quantities("main", dc).value
            reference = direct.quantities(dc)
            np.testing.assert_array_equal(served.rho, reference.rho)
            np.testing.assert_array_equal(served.delta, reference.delta)
            np.testing.assert_array_equal(served.mu, reference.mu)

    def test_cluster_matches_direct_call(self, service, blobs):
        direct = make_index("kdtree").fit(blobs)
        served = service.cluster("main", 0.5, n_centers=3, halo=True).value
        reference = direct.cluster(0.5, n_centers=3, halo=True)
        np.testing.assert_array_equal(served.labels, reference.labels)
        np.testing.assert_array_equal(served.centers, reference.centers)
        np.testing.assert_array_equal(served.halo, reference.halo)

    def test_serial_and_coalesced_dispatch_agree(self, blobs):
        results = {}
        for dispatch in ("serial", "coalesce"):
            with ClusteringService(dispatch=dispatch) as service:
                service.fit_snapshot("main", blobs, index="grid")
                with ThreadPoolExecutor(6) as pool:
                    futures = [
                        service.submit("main", "cluster", dc, n_centers=3, use_cache=False)
                        for dc in (0.3, 0.5, 0.7, 0.3, 0.5, 0.7)
                    ]
                    results[dispatch] = [f.result().value for f in futures]
        for a, b in zip(results["serial"], results["coalesce"]):
            np.testing.assert_array_equal(a.labels, b.labels)
            np.testing.assert_array_equal(a.rho, b.rho)
            np.testing.assert_array_equal(a.delta, b.delta)

    def test_tie_break_conventions_served(self, service, blobs):
        direct = make_index("kdtree").fit(blobs)
        for tie_break in ("id", "strict"):
            served = service.quantities("main", 0.5, tie_break=tie_break).value
            reference = direct.quantities(0.5, tie_break)
            np.testing.assert_array_equal(served.mu, reference.mu)


class TestCache:
    def test_hit_returns_same_object(self, service):
        first = service.cluster("main", 0.5, n_centers=3)
        second = service.cluster("main", 0.5, n_centers=3)
        assert not first.meta["cache_hit"]
        assert second.meta["cache_hit"]
        assert second.value is first.value  # memoised, trivially bit-identical

    def test_quantities_and_cluster_cached_separately(self, service):
        service.quantities("main", 0.5)
        result = service.cluster("main", 0.5, n_centers=3)
        assert not result.meta["cache_hit"]

    def test_use_cache_false_bypasses(self, service):
        service.cluster("main", 0.5, n_centers=3)
        result = service.cluster("main", 0.5, n_centers=3, use_cache=False)
        assert not result.meta["cache_hit"]

    def test_refit_regression_no_stale_results(self, service, blobs):
        """After a fit on new data (snapshot swap), the service must never
        serve results derived from the old dataset — the PR-3 refit
        invalidation extended up through the cache layer."""
        old = service.cluster("main", 0.5, n_centers=3)
        new_points = blobs + 5.0
        service.fit_snapshot("main", new_points, index="kdtree")
        fresh = service.cluster("main", 0.5, n_centers=3)
        assert not fresh.meta["cache_hit"]
        assert fresh.meta["fingerprint"] != old.meta["fingerprint"]
        reference = make_index("kdtree").fit(new_points).cluster(0.5, n_centers=3)
        np.testing.assert_array_equal(fresh.value.labels, reference.labels)
        np.testing.assert_array_equal(fresh.value.rho, reference.rho)

    def test_republish_same_data_keeps_cache_warm(self, service, blobs):
        service.cluster("main", 0.5, n_centers=3)
        service.fit_snapshot("main", blobs, index="kdtree")  # same content
        assert service.cluster("main", 0.5, n_centers=3).meta["cache_hit"]

    def test_shared_fingerprint_survives_other_names_swap(self, service, blobs):
        """Two names serving identical content share cache entries; swapping
        one must not cold-start the other (content-addressed keys)."""
        service.fit_snapshot("twin", blobs, index="kdtree")  # same fp as "main"
        warm = service.cluster("main", 0.5, n_centers=3)
        service.fit_snapshot("main", blobs + 9.0, index="kdtree")  # swap "main"
        still_warm = service.cluster("twin", 0.5, n_centers=3)
        assert still_warm.meta["cache_hit"]
        assert still_warm.meta["fingerprint"] == warm.meta["fingerprint"]
        # Once the last holder goes too, the fingerprint's entries purge.
        service.drop_snapshot("twin")
        assert service.cache.stats.invalidations > 0

    def test_drop_purges_cache(self, service, blobs):
        service.cluster("main", 0.5, n_centers=3)
        service.drop_snapshot("main")
        assert service.cache.stats.invalidations > 0
        with pytest.raises(KeyError):
            service.cluster("main", 0.5)


class TestCoalescing:
    def test_concurrent_requests_batch_into_one_engine_call(self, blobs):
        with ClusteringService(linger_ms=25.0) as service:
            service.fit_snapshot("main", blobs, index="grid")
            barrier = threading.Barrier(8)

            def query(dc):
                barrier.wait()
                return service.submit("main", "quantities", dc, use_cache=False).result()

            with ThreadPoolExecutor(8) as pool:
                results = list(pool.map(query, [0.3, 0.4, 0.5, 0.6, 0.3, 0.4, 0.5, 0.6]))
            stats = service.coalescer.stats
            assert stats["requests"] == 8
            # All 8 arrived inside one linger window -> far fewer engine calls
            # than requests, with duplicate dcs deduplicated.
            assert stats["engine_calls"] < 8
            assert stats["deduped_dcs"] >= 1
            coalesced = [r for r in results if r.meta.get("coalesced")]
            assert coalesced, "at least some requests must have shared a batch"

    def test_mixed_ops_share_one_quantities_run(self, blobs):
        with ClusteringService(linger_ms=25.0) as service:
            service.fit_snapshot("main", blobs, index="grid")
            barrier = threading.Barrier(2)
            direct = make_index("grid").fit(blobs)

            def run(op):
                barrier.wait()
                kwargs = {"n_centers": 3} if op == "cluster" else {}
                return service.submit("main", op, 0.5, use_cache=False, **kwargs).result()

            with ThreadPoolExecutor(2) as pool:
                q_res, c_res = pool.map(run, ["quantities", "cluster"])
            np.testing.assert_array_equal(q_res.value.rho, direct.quantities(0.5).rho)
            np.testing.assert_array_equal(
                c_res.value.labels, direct.cluster(0.5, n_centers=3).labels
            )

    def test_bad_selection_params_fail_only_that_request(self, blobs):
        with ClusteringService(linger_ms=25.0) as service:
            service.fit_snapshot("main", blobs, index="grid")
            barrier = threading.Barrier(2)

            def good():
                barrier.wait()
                return service.submit("main", "cluster", 0.5, n_centers=3).result()

            def bad():
                barrier.wait()
                # n_centers AND thresholds together is a per-request error.
                return service.submit(
                    "main", "cluster", 0.5, n_centers=3, rho_min=1.0, delta_min=0.1
                ).result()

            with ThreadPoolExecutor(2) as pool:
                good_future = pool.submit(good)
                bad_future = pool.submit(bad)
                assert good_future.result().value.n_clusters == 3
                with pytest.raises(ValueError, match="not both"):
                    bad_future.result()

    def test_engine_error_propagates(self, service):
        with pytest.raises(ValueError, match="dc must be positive"):
            service.cluster("main", -1.0)
        with pytest.raises(ValueError, match="dc must be positive"):
            service.cluster("main", float("nan"))
        with pytest.raises(ValueError, match="dc must be positive"):
            service.cluster("main", float("inf"))

    def test_bad_dc_cannot_poison_a_batch(self, blobs):
        """An invalid dc is rejected at admission, so it can never ride a
        coalesced batch and fail its batch-mates (serial equivalence)."""
        with ClusteringService(linger_ms=25.0) as service:
            service.fit_snapshot("main", blobs, index="grid")
            # inf once passed admission and made grid raise IndexError inside
            # the coalesced batch.  Each round's good dc is new, so it is not
            # answered from the result cache.
            for good_dc, bad_dc in ((0.5, -1.0), (0.6, float("inf"))):
                barrier = threading.Barrier(2)

                def good():
                    barrier.wait()
                    future = service.submit("main", "cluster", good_dc, n_centers=3)
                    return future.result()

                def bad():
                    barrier.wait()
                    return service.submit("main", "cluster", bad_dc)

                with ThreadPoolExecutor(2) as pool:
                    good_future = pool.submit(good)
                    bad_future = pool.submit(bad)
                    assert good_future.result().value.n_clusters == 3
                    with pytest.raises(ValueError, match="dc must be positive"):
                        bad_future.result()

    def test_coalescer_close_rejects_new_submits(self):
        coalescer = RequestCoalescer()
        coalescer.close()
        with pytest.raises(RuntimeError, match="closed"):
            coalescer.submit(
                ServeRequest(snapshot=None, op="quantities", dc=1.0)  # type: ignore[arg-type]
            )

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            RequestCoalescer(max_batch=0)
        with pytest.raises(ValueError, match="linger_ms"):
            RequestCoalescer(linger_ms=-1.0)
        with pytest.raises(ValueError, match="dispatch"):
            ClusteringService(dispatch="magic")
        with pytest.raises(ValueError, match="op must be"):
            ServeRequest(snapshot=None, op="explode", dc=1.0)  # type: ignore[arg-type]


class TestLoadgen:
    def test_errors_excluded_from_throughput_and_percentiles(self, blobs):
        from repro.serving.loadgen import run_load

        with ClusteringService() as service:
            service.fit_snapshot("main", blobs, index="grid")
            # Every request targets a missing snapshot -> all error.
            report = run_load(service, "ghost", [0.5], clients=2, requests_per_client=3)
        assert report.requests == 6 and report.errors == 6
        assert report.throughput_rps == 0.0
        assert all(np.isnan(v) for v in report.latency_ms.values())

    def test_successful_run_counts(self, blobs):
        from repro.serving.loadgen import run_load

        with ClusteringService() as service:
            service.fit_snapshot("main", blobs, index="grid")
            report = run_load(
                service, "main", [0.4, 0.6], clients=2, requests_per_client=3,
                use_cache=True, cluster_params={"n_centers": 3},
            )
        assert report.requests == 6 and report.errors == 0
        assert report.throughput_rps > 0.0
        assert report.latency_ms["p50"] > 0.0
        assert report.cache_hits >= 1  # 6 draws over 2 dcs must repeat


class TestMetaAndStats:
    def test_meta_fields(self, service):
        result = service.cluster("main", 0.5, n_centers=3)
        for field in ("snapshot", "fingerprint", "snapshot_version", "op",
                      "cache_hit", "batch_size", "batch_dcs", "elapsed_ms"):
            assert field in result.meta
        assert result.meta["snapshot"] == "main"
        assert result.meta["op"] == "cluster"

    def test_stats_shape(self, service):
        service.cluster("main", 0.5, n_centers=3)
        stats = service.stats()
        assert stats["dispatch"] == "coalesce"
        assert stats["snapshots"][0]["name"] == "main"
        assert "hits" in stats["cache"]
        assert stats["coalescer"]["requests"] >= 1

    def test_stats_returns_snapshot_copies(self, service):
        """Mutating what stats() returned must never touch live state."""
        service.cluster("main", 0.5, n_centers=3)
        stats = service.stats()
        stats["coalescer"]["requests"] = -999
        stats["cache"]["hits"] = -999
        stats["health"]["state"] = "broken"
        fresh = service.stats()
        assert fresh["coalescer"]["requests"] >= 1
        assert fresh["cache"]["hits"] >= 0
        assert fresh["health"]["state"] != "broken"

    def test_health_returns_copy_not_live_counters(self, service):
        service.cluster("main", 0.5, n_centers=3)
        health = service.health()
        health["shed"] = -999
        health["snapshots"]["main"]["state"] = "broken"
        fresh = service.health()
        assert fresh["shed"] >= 0
        assert fresh["snapshots"]["main"]["state"] in ("healthy", "degraded")

    def test_unknown_snapshot_raises_keyerror(self, service):
        with pytest.raises(KeyError, match="no snapshot named"):
            service.quantities("nope", 0.5)

    def test_close_is_idempotent(self, blobs):
        service = ClusteringService()
        service.fit_snapshot("main", blobs, index="grid")
        service.close()
        service.close()
