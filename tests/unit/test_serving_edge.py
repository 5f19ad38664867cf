"""Asyncio edge front-end: route parity, edge policies, drain semantics.

Response *content* parity with the threading front-end is structural (both
serialise through ``serialize_value``); these tests pin the edge-specific
behaviour — admission control, drain refusal with operator routes exempt,
keep-alive connection handling, and error mapping.
"""

import http.client
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.indexes.registry import make_index
from repro.serving.edge import EdgeServer, make_edge_server
from repro.serving.service import ClusteringService


@pytest.fixture
def served(blobs):
    """A live asyncio edge over one published snapshot."""
    with ClusteringService(linger_ms=1.0) as service:
        service.fit_snapshot("main", blobs, index="kdtree")
        server = make_edge_server(service)
        host, port = server.address
        try:
            yield f"http://{host}:{port}", server, service
        finally:
            server.close()


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


def post_error(base, path, payload):
    """POST expecting a failure status; returns (status, headers, body)."""
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    error = excinfo.value
    return error.code, dict(error.headers), json.load(error)


class TestRoutes:
    def test_healthz_reports_edge_state(self, served):
        base, server, _ = served
        out = get(base, "/healthz")
        assert out["status"] == "ok"
        assert out["snapshots"] == 1
        edge = out["health"]["edge"]
        assert edge["draining"] is False
        assert edge["inflight"] == 0
        assert edge["max_inflight"] is None

    def test_query_bit_identical_through_json(self, served, blobs):
        base, _, _ = served
        out = post(base, "/v1/query", {
            "snapshot": "main", "op": "cluster", "dc": 0.5, "n_centers": 3,
        })
        reference = make_index("kdtree").fit(blobs).cluster(0.5, n_centers=3)
        assert out["labels"] == reference.labels.tolist()
        np.testing.assert_array_equal(np.asarray(out["delta"]), reference.delta)
        assert out["n_clusters"] == reference.n_clusters

    def test_quantities_op(self, served, blobs):
        base, _, _ = served
        out = post(base, "/v1/query", {"snapshot": "main", "op": "quantities", "dc": 0.5})
        reference = make_index("kdtree").fit(blobs).quantities(0.5)
        assert out["mu"] == reference.mu.tolist()
        assert "labels" not in out

    def test_publish_and_delete_snapshot(self, served, rng):
        base, _, _ = served
        points = rng.normal(size=(50, 2))
        published = post(base, "/v1/snapshots/extra", {
            "points": points.tolist(), "index": "grid",
        })["published"]
        assert published["n"] == 50
        out = post(base, "/v1/query", {"snapshot": "extra", "op": "cluster", "dc": 0.8})
        reference = make_index("grid").fit(points).cluster(0.8)
        assert out["labels"] == reference.labels.tolist()
        request = urllib.request.Request(base + "/v1/snapshots/extra", method="DELETE")
        with urllib.request.urlopen(request, timeout=30) as response:
            assert json.load(response)["dropped"] == "extra"

    def test_metrics_exposition(self, served):
        base, _, _ = served
        post(base, "/v1/query", {"snapshot": "main", "op": "quantities", "dc": 0.5})
        with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
            assert "text/plain" in response.headers["Content-Type"]
            text = response.read().decode()
        assert "repro_serving_requests_total" in text

    def test_keep_alive_serves_sequential_requests(self, served):
        base, _, _ = served
        host, port = base[len("http://"):].rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                json.loads(response.read())
        finally:
            conn.close()


class TestErrorMapping:
    def test_unknown_route_404(self, served):
        base, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base + "/nope", timeout=30)
        assert excinfo.value.code == 404

    def test_unknown_snapshot_404(self, served):
        base, _, _ = served
        status, _, body = post_error(
            base, "/v1/query", {"snapshot": "ghost", "op": "cluster", "dc": 0.5}
        )
        assert status == 404
        assert "ghost" in body["error"]

    def test_missing_fields_400(self, served):
        base, _, _ = served
        status, _, body = post_error(base, "/v1/query", {"snapshot": "main"})
        assert status == 400
        assert "dc" in body["error"]
        status, _, body = post_error(base, "/v1/query", {"dc": 0.5})
        assert status == 400
        assert "snapshot" in body["error"]

    def test_non_finite_dc_400(self, served):
        # json.dumps writes Infinity / NaN, which the edge's json parses.
        base, _, _ = served
        for dc in (float("inf"), float("nan")):
            status, _, body = post_error(
                base, "/v1/query", {"snapshot": "main", "op": "cluster", "dc": dc}
            )
            assert status == 400
            assert "finite" in body["error"]

    def test_malformed_json_400(self, served):
        base, _, _ = served
        request = urllib.request.Request(
            base + "/v1/query",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_validation_rejects_bad_max_inflight(self, blobs):
        with ClusteringService(linger_ms=1.0) as service:
            with pytest.raises(ValueError, match="max_inflight"):
                EdgeServer(service, max_inflight=0, observability=False)


class TestEdgePolicies:
    def test_admission_control_sheds_with_retry_after(self, served):
        base, server, _ = served
        server.max_inflight = 1
        server._inflight = 1  # saturate the edge without a wedged backend
        try:
            status, headers, body = post_error(
                base, "/v1/query", {"snapshot": "main", "op": "quantities", "dc": 0.5}
            )
        finally:
            server._inflight = 0
            server.max_inflight = None
        assert status == 503
        assert int(headers["Retry-After"]) >= 1
        assert body["type"] == "LoadShedError"
        assert body["retry_after_s"] > 0
        assert server.stats["shed"] == 1

    def test_draining_refuses_queries_but_serves_operators(self, served):
        base, server, _ = served
        server._draining = True
        try:
            status, headers, body = post_error(
                base, "/v1/query", {"snapshot": "main", "op": "quantities", "dc": 0.5}
            )
            assert status == 503
            assert body["type"] == "ServiceDrainingError"
            assert "Retry-After" in headers
            # Operators keep their eyes while the edge drains.
            health = get(base, "/healthz")
            assert health["health"]["edge"]["draining"] is True
            assert health["status"] == "draining"
            with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
                assert response.status == 200
        finally:
            server._draining = False

    def test_drain_flushes_inflight_and_reports_clean(self, blobs):
        with ClusteringService(linger_ms=20.0) as service:
            service.fit_snapshot("main", blobs, index="kdtree")
            server = make_edge_server(service)
            base = f"http://{server.address[0]}:{server.address[1]}"
            results = []

            def client():
                results.append(
                    post(base, "/v1/query",
                         {"snapshot": "main", "op": "quantities", "dc": 0.5})
                )

            thread = threading.Thread(target=client)
            thread.start()
            # Let the request reach the edge before draining begins.
            deadline = threading.Event()
            deadline.wait(0.05)
            assert server.drain(timeout_s=30.0) is True
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            if results:  # the client may have landed before or during drain
                reference = make_index("kdtree").fit(blobs).quantities(0.5)
                assert results[0]["mu"] == reference.mu.tolist()

    def test_drain_then_connect_is_refused(self, served):
        base, server, _ = served
        assert server.drain(timeout_s=10.0) is True
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            urllib.request.urlopen(base + "/healthz", timeout=2)
