"""Observability over HTTP: /metrics, /trace/<id>, X-Trace-Id, obs lifecycle.

The acceptance-path test of the PR: a single served query must return an
``X-Trace-Id`` whose ``/trace/<id>`` tree shows the coalescer → quantities
→ parallel chain with monotonic non-negative durations, and ``/metrics``
must expose the key serving instruments in parseable Prometheus text.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.export import parse_prometheus
from repro.serving.http import make_server
from repro.serving.service import ClusteringService


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    obs_metrics.REGISTRY.reset()
    obs_trace.reset()
    yield
    obs.disable()
    obs_metrics.REGISTRY.reset()
    obs_trace.reset()


@pytest.fixture
def served(blobs):
    """A live observed server over one snapshot; yields the base URL."""
    with ClusteringService(linger_ms=1.0) as service:
        server = make_server(service)  # enables obs before the fit below
        service.fit_snapshot("main", blobs, index="kdtree")
        # A short poll keeps teardown's shutdown() from waiting out 0.5 s.
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        thread.start()
        host, port = server.server_address
        try:
            yield f"http://{host}:{port}"
        finally:
            server.shutdown()
            server.server_close()


def get_raw(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return response.read().decode(), dict(response.headers)


def post_raw(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read()), dict(response.headers)


def span_names(node, acc=None):
    acc = [] if acc is None else acc
    acc.append(node["name"])
    for child in node["children"]:
        span_names(child, acc)
    return acc


class TestServerObsLifecycle:
    def test_server_enables_obs_and_restores_on_close(self, blobs):
        assert not obs.enabled()
        with ClusteringService() as service:
            server = make_server(service)
            assert obs.enabled()
            server.server_close()
        assert not obs.enabled()

    def test_observability_false_keeps_obs_off(self, blobs):
        with ClusteringService() as service:
            server = make_server(service, observability=False)
            assert not obs.enabled()
            server.server_close()

    def test_already_enabled_obs_survives_server_close(self, blobs):
        obs.enable()
        with ClusteringService() as service:
            server = make_server(service)
            server.server_close()
        assert obs.enabled()

    def test_failed_bind_raises_oserror_not_attributeerror(self, blobs):
        """socketserver calls server_close() on a failed bind — before our
        __init__ body ran; the original OSError must surface untouched."""
        with ClusteringService() as service:
            server = make_server(service)
            host, port = server.server_address
            try:
                with pytest.raises(OSError):
                    from repro.serving.http import ClusteringServer
                    ClusteringServer((host, port), service)
            finally:
                server.server_close()
        assert not obs.enabled()


class TestQueryTracing:
    def test_query_returns_trace_id_and_tree(self, served):
        payload, headers = post_raw(
            served, "/v1/query", {"snapshot": "main", "op": "cluster", "dc": 0.5}
        )
        trace_id = headers.get("X-Trace-Id")
        assert trace_id
        assert payload["trace_id"] == trace_id
        assert payload["meta"]["trace_id"] == trace_id

        body, _ = get_raw(served, f"/trace/{trace_id}")
        tree = json.loads(body)["trace"]
        names = span_names(tree)
        # The acceptance chain: request → coalescer → engine → execution.
        assert names[0] == "serve.request"
        assert "coalescer.dispatch" in names
        assert "engine.quantities" in names
        assert "parallel.tasks" in names
        assert "engine.assign" in names

        def check_durations(node):
            assert node["duration_ns"] >= 0
            assert node["offset_ns"] >= 0
            for child in node["children"]:
                # A child never starts before its parent.
                assert child["offset_ns"] >= node["offset_ns"]
                check_durations(child)

        check_durations(tree)
        assert tree["attrs"]["outcome"] == "ok"

    def test_cache_hit_still_returns_a_trace(self, served):
        post_raw(served, "/v1/query", {"snapshot": "main", "op": "cluster", "dc": 0.5})
        payload, headers = post_raw(
            served, "/v1/query", {"snapshot": "main", "op": "cluster", "dc": 0.5}
        )
        assert payload["meta"]["cache_hit"] is True
        trace_id = headers["X-Trace-Id"]
        body, _ = get_raw(served, f"/trace/{trace_id}")
        assert json.loads(body)["trace"]["attrs"]["outcome"] == "cache_hit"

    def test_unknown_trace_is_404_with_recent_ids(self, served):
        post_raw(served, "/v1/query", {"snapshot": "main", "op": "cluster", "dc": 0.5})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_raw(served, "/trace/nope")
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read())
        assert body["recent"]  # the ring buffer is offered for discovery


class TestMetricsEndpoint:
    def test_metrics_parseable_with_key_instruments(self, served):
        for dc in (0.4, 0.5, 0.5):
            post_raw(served, "/v1/query", {"snapshot": "main", "op": "cluster", "dc": dc})
        text, headers = get_raw(served, "/metrics")
        assert headers["Content-Type"].startswith("text/plain")
        samples = parse_prometheus(text)  # raises on any malformed line
        # Serving pillar.
        assert any(
            labels.get("op") == "cluster" and labels.get("outcome") == "ok"
            for labels, _ in samples["repro_serving_requests_total"]
        )
        assert samples["repro_serving_request_seconds_count"][0][1] >= 3
        assert "repro_serving_queue_depth" in samples
        # Coalescer + cache pillars.
        assert samples["repro_coalescer_batches_total"][0][1] >= 1
        events = {labels["event"] for labels, _ in samples["repro_cache_ops_total"]}
        assert {"miss", "hit"} <= events
        # Engine + parallel pillars.
        phases = {labels["phase"] for labels, _ in samples["repro_engine_phase_seconds_count"]}
        assert {"rho", "delta", "assign"} <= phases
        assert "repro_parallel_tasks_total" in samples
        assert samples["repro_snapshot_swaps_total"][0][1] >= 1

    def test_stats_endpoint_still_works_with_obs_on(self, served):
        body, _ = get_raw(served, "/v1/stats")
        stats = json.loads(body)
        assert "coalescer" in stats and "health" in stats
