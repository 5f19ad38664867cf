"""HTTP front-end: routes, JSON fidelity, error codes, CLI serve wiring."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.indexes.persist import save_index
from repro.indexes.registry import make_index
from repro.serving.http import make_server, serialize_value
from repro.serving.service import ClusteringService


@pytest.fixture
def served(blobs):
    """A live server over one published snapshot; yields (base_url, service)."""
    with ClusteringService(linger_ms=1.0) as service:
        service.fit_snapshot("main", blobs, index="kdtree")
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        try:
            yield f"http://{host}:{port}", service
        finally:
            server.shutdown()
            server.server_close()


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return json.load(response)


def post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


def delete(base, path):
    request = urllib.request.Request(base + path, method="DELETE")
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


class TestRoutes:
    def test_healthz(self, served):
        base, _ = served
        out = get(base, "/healthz")
        assert out["status"] == "ok"
        assert out["snapshots"] == 1
        health = out["health"]
        assert health["state"] == "healthy"
        assert health["shedding"] is False
        assert health["snapshots"]["main"]["state"] == "healthy"

    def test_snapshots_listing(self, served):
        base, service = served
        rows = get(base, "/v1/snapshots")["snapshots"]
        assert rows[0]["name"] == "main"
        assert rows[0]["fingerprint"] == service.store.get("main").fingerprint

    def test_query_bit_identical_through_json(self, served, blobs):
        base, _ = served
        out = post(base, "/v1/query", {
            "snapshot": "main", "op": "cluster", "dc": 0.5,
            "n_centers": 3, "halo": True,
        })
        reference = make_index("kdtree").fit(blobs).cluster(0.5, n_centers=3, halo=True)
        assert out["labels"] == reference.labels.tolist()
        assert out["rho"] == reference.rho.tolist()
        assert out["centers"] == reference.centers.tolist()
        assert out["halo"] == reference.halo.tolist()
        # JSON floats are repr-based shortest round-trip: bit-identical δ.
        np.testing.assert_array_equal(np.asarray(out["delta"]), reference.delta)
        assert out["n_clusters"] == reference.n_clusters
        assert out["meta"]["cache_hit"] is False

    def test_quantities_op(self, served, blobs):
        base, _ = served
        out = post(base, "/v1/query", {"snapshot": "main", "op": "quantities", "dc": 0.5})
        reference = make_index("kdtree").fit(blobs).quantities(0.5)
        assert out["mu"] == reference.mu.tolist()
        assert "labels" not in out

    def test_cache_hit_over_http(self, served):
        base, _ = served
        body = {"snapshot": "main", "op": "cluster", "dc": 0.4, "n_centers": 3}
        first = post(base, "/v1/query", body)
        second = post(base, "/v1/query", body)
        assert not first["meta"]["cache_hit"]
        assert second["meta"]["cache_hit"]
        assert second["labels"] == first["labels"]

    def test_publish_points_then_query(self, served, rng):
        base, _ = served
        points = rng.normal(size=(60, 2))
        published = post(base, "/v1/snapshots/extra", {
            "points": points.tolist(), "index": "grid",
            "params": {"target_occupancy": 4},
        })["published"]
        assert published["n"] == 60
        out = post(base, "/v1/query", {"snapshot": "extra", "op": "cluster", "dc": 0.8})
        reference = make_index("grid", target_occupancy=4).fit(points).cluster(0.8)
        assert out["labels"] == reference.labels.tolist()

    def test_publish_from_persisted_path(self, served, blobs, tmp_path):
        base, _ = served
        path = str(tmp_path / "saved.npz")
        fitted = make_index("ch", bin_width=0.4).fit(blobs)
        save_index(fitted, path)
        published = post(base, "/v1/snapshots/loaded", {"path": path})["published"]
        assert published["fingerprint"] == fitted.fingerprint()

    def test_delete_snapshot(self, served):
        base, _ = served
        assert delete(base, "/v1/snapshots/main") == {"dropped": "main"}
        assert get(base, "/healthz")["snapshots"] == 0

    def test_stats(self, served):
        base, _ = served
        post(base, "/v1/query", {"snapshot": "main", "op": "cluster", "dc": 0.5})
        stats = get(base, "/v1/stats")
        assert stats["coalescer"]["requests"] >= 1
        assert stats["cache"]["misses"] >= 1


class TestErrors:
    def expect_error(self, fn, code):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fn()
        assert excinfo.value.code == code
        return json.load(excinfo.value)

    def test_unknown_route_404(self, served):
        base, _ = served
        body = self.expect_error(lambda: get(base, "/v1/nope"), 404)
        assert "no route" in body["error"]

    def test_unknown_snapshot_404(self, served):
        base, _ = served
        body = self.expect_error(
            lambda: post(base, "/v1/query", {"snapshot": "ghost", "op": "cluster", "dc": 1.0}),
            404,
        )
        assert "no snapshot" in body["error"]

    def test_bad_dc_400(self, served):
        base, _ = served
        # json.dumps writes Infinity / NaN, which the server's json parses.
        for dc in (-1, float("inf"), float("nan")):
            payload = {"snapshot": "main", "op": "cluster", "dc": dc}
            body = self.expect_error(lambda: post(base, "/v1/query", payload), 400)
            assert "dc must be positive and finite" in body["error"]

    def test_missing_dc_400(self, served):
        base, _ = served
        body = self.expect_error(
            lambda: post(base, "/v1/query", {"snapshot": "main", "op": "cluster"}), 400
        )
        assert "dc" in body["error"]

    def test_bad_op_400(self, served):
        base, _ = served
        self.expect_error(
            lambda: post(base, "/v1/query", {"snapshot": "main", "op": "explode", "dc": 1.0}),
            400,
        )

    def test_missing_body_400_closes_connection(self, served):
        # The unread body would desync a keep-alive socket; the server must
        # end the connection with the error.
        base, _ = served
        request = urllib.request.Request(base + "/v1/query", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert excinfo.value.headers.get("Connection") == "close"

    def test_invalid_json_400(self, served):
        base, _ = served
        request = urllib.request.Request(base + "/v1/query", data=b"{nope")
        body = self.expect_error(lambda: urllib.request.urlopen(request, timeout=30), 400)
        assert "invalid JSON" in body["error"]

    def test_publish_without_points_or_path_400(self, served):
        base, _ = served
        self.expect_error(lambda: post(base, "/v1/snapshots/x", {"index": "ch"}), 400)

    def test_publish_bad_index_name_400(self, served, rng):
        base, _ = served
        self.expect_error(
            lambda: post(base, "/v1/snapshots/x", {
                "points": rng.normal(size=(10, 2)).tolist(), "index": "warp-drive",
            }),
            400,
        )

    def test_delete_unknown_404(self, served):
        base, _ = served
        self.expect_error(lambda: delete(base, "/v1/snapshots/ghost"), 404)

    def test_unexpected_failure_returns_500_not_reset(self, served):
        # e.g. a request racing service shutdown: the client must still get
        # an HTTP status, never a bare connection reset.
        base, service = served
        service.coalescer.close()
        body = self.expect_error(
            lambda: post(base, "/v1/query", {"snapshot": "main", "op": "cluster", "dc": 0.5}),
            500,
        )
        assert "closed" in body["error"]


class TestOverload:
    """Shed/deadline → 503 + Retry-After + typed JSON body; healthz states."""

    def expect_error(self, fn, code):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fn()
        assert excinfo.value.code == code
        return excinfo.value

    def test_shed_returns_503_with_retry_after(self, served):
        base, service = served
        service.coalescer.max_queue = 0  # drain mode: shed every admission
        error = self.expect_error(
            lambda: post(base, "/v1/query", {"snapshot": "main", "op": "cluster", "dc": 0.5}),
            503,
        )
        assert int(error.headers["Retry-After"]) >= 1
        body = json.load(error)
        assert body["type"] == "LoadShedError"
        assert body["retry_after_s"] > 0
        assert "full" in body["error"]

    def test_healthz_reports_shedding_state(self, served):
        base, service = served
        service.coalescer.max_queue = 0
        out = get(base, "/healthz")
        assert out["status"] == "shedding"
        assert out["health"]["state"] == "shedding"
        service.coalescer.max_queue = None
        assert get(base, "/healthz")["status"] == "ok"

    def test_expired_deadline_returns_503(self, served):
        from repro import faults
        from repro.faults import FaultPlan, FaultSpec

        base, _ = served
        plan = FaultPlan(
            [FaultSpec("coalescer.dispatch", mode="sleep", times=1, delay_s=0.2)]
        )
        with faults.inject(plan):
            error = self.expect_error(
                lambda: post(base, "/v1/query", {
                    "snapshot": "main", "op": "cluster", "dc": 0.9,
                    "timeout_s": 0.05, "use_cache": False,
                }),
                503,
            )
        assert "Retry-After" in error.headers
        assert json.load(error)["type"] == "DeadlineExceededError"


class TestSerialize:
    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="cannot serialise"):
            serialize_value(object())


class TestCLIServe:
    def test_build_server_and_query(self, tmp_path, blobs):
        import argparse

        from repro.__main__ import build_server

        csv = tmp_path / "points.csv"
        np.savetxt(csv, blobs, delimiter=",")
        args = argparse.Namespace(
            input=str(csv), delimiter=",", dataset=None, n=None, profile="test",
            load=None, index="grid", snapshot="cli", tau=None, bin_width=None,
            backend="serial", n_jobs=None, chunk_size=None,
            host="127.0.0.1", port=0, dispatch="coalesce", max_batch=16,
            linger_ms=1.0, cache_entries=16, cache_ttl=None, verbose=False, seed=0,
        )
        service, server, snapshot = build_server(args)
        try:
            assert snapshot.name == "cli"
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            host, port = server.server_address
            out = post(f"http://{host}:{port}", "/v1/query", {
                "snapshot": "cli", "op": "cluster", "dc": 0.5, "n_centers": 3,
            })
            reference = make_index("grid").fit(blobs).cluster(0.5, n_centers=3)
            assert out["labels"] == reference.labels.tolist()
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_load_applies_execution_flags(self, blobs, tmp_path):
        """--backend/--n-jobs must reach a --load'ed index: persistence
        deliberately drops execution config, so the CLI re-applies it."""
        import argparse

        from repro.__main__ import build_server

        path = str(tmp_path / "x.npz")
        save_index(make_index("kdtree").fit(blobs), path)
        args = argparse.Namespace(
            input=None, delimiter=",", dataset=None, n=None, profile="test",
            load=path, index="ch", snapshot="x", tau=None, bin_width=None,
            backend="threads", n_jobs=2, chunk_size=64,
            host="127.0.0.1", port=0, dispatch="serial", max_batch=1,
            linger_ms=0.0, cache_entries=0, cache_ttl=None, verbose=False, seed=0,
        )
        service, server, snapshot = build_server(args)
        try:
            assert snapshot.index.backend == "threads"
            assert snapshot.index.n_jobs == 2
            assert snapshot.index.chunk_size == 64
        finally:
            server.server_close()
            service.close()

    def test_load_conflicts_with_dataset(self, blobs, tmp_path):
        import argparse

        from repro.__main__ import build_server

        path = str(tmp_path / "x.npz")
        save_index(make_index("kdtree").fit(blobs), path)
        args = argparse.Namespace(
            input=None, delimiter=",", dataset="s1", n=None, profile="test",
            load=path, index="ch", snapshot="x", tau=None, bin_width=None,
            backend="serial", n_jobs=None, chunk_size=None,
            host="127.0.0.1", port=0, dispatch="serial", max_batch=1,
            linger_ms=0.0, cache_entries=0, cache_ttl=None, verbose=False, seed=0,
        )
        with pytest.raises(SystemExit, match="--load"):
            build_server(args)

    def test_serve_parser_registered(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["serve", "--port", "not-a-number"])
