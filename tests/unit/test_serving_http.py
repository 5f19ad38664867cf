"""HTTP front-end: routes, JSON fidelity, error codes, drain, CLI serve wiring."""

import http.client
import json
import multiprocessing
import os
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.indexes.persist import save_index
from repro.indexes.registry import make_index
from repro.serving.http import make_server, serialize_value
from repro.serving.service import ClusteringService


def start(server):
    """Run ``server``'s accept loop on a daemon thread.

    A short poll interval keeps ``shutdown()`` (teardown, drain) from
    waiting out the stdlib's default 0.5 s select timeout.
    """
    threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    ).start()


def base_url(server):
    host, port = server.server_address
    return f"http://{host}:{port}"


@pytest.fixture
def live_server(blobs):
    """A live server over one published snapshot ("main", kdtree)."""
    with ClusteringService(linger_ms=1.0) as service:
        service.fit_snapshot("main", blobs, index="kdtree")
        server = make_server(service)
        start(server)
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()


@pytest.fixture
def served(live_server):
    """(base_url, service) of :func:`live_server`."""
    return base_url(live_server), live_server.service


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

    def test_publish_points_defaults_to_kdtree(self, served, rng):
        base, _ = served
        points = rng.normal(size=(30, 2))
        published = post(base, "/v1/snapshots/plain", {"points": points.tolist()})
        assert published["published"]["index"] == "kdtree"

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
        body = self.expect_error(lambda: post(base, "/v1/query", {"dc": 0.5}), 400)
        assert "snapshot" in body["error"]

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

    @pytest.mark.parametrize("index", ["warp-drive", "partitioned"])
    def test_publish_bad_index_name_400(self, served, rng, index):
        base, _ = served
        self.expect_error(
            lambda: post(base, "/v1/snapshots/x", {
                "points": rng.normal(size=(10, 2)).tolist(), "index": index,
            }),
            400,
        )

    @pytest.mark.parametrize(
        "params",
        [{"backend": "process", "n_jobs": 24}, {"n_jobs": 24}, {"chunk_size": 1}],
        ids=["backend+n_jobs", "n_jobs", "chunk_size"],
    )
    def test_publish_execution_params_400(self, served, rng, params):
        # Execution is server configuration: one publish must not be able
        # to make the server fork any number of processes.
        base, service = served
        before = {p.pid for p in multiprocessing.active_children()}
        body = self.expect_error(
            lambda: post(base, "/v1/snapshots/forky", {
                "points": rng.normal(size=(300, 2)).tolist(), "params": params,
            }),
            400,
        )
        assert "server configuration" in body["error"]
        assert "forky" not in service.store
        self.expect_error(
            lambda: post(base, "/v1/query", {
                "snapshot": "forky", "op": "cluster", "dc": 0.5,
            }),
            404,
        )
        after = {p.pid for p in multiprocessing.active_children()}
        assert after <= before

    def test_publish_unreadable_path_leaves_the_file_alone(self, served, tmp_path):
        # Quarantine is for a crash-looping ``serve --load``; a path a client
        # names must never be renamed.
        base, service = served
        path = tmp_path / "notes.txt"
        path.write_bytes(b"not an index\n")
        self.expect_error(
            lambda: post(base, "/v1/snapshots/notes", {"path": str(path)}), 400
        )
        assert path.read_bytes() == b"not an index\n"
        assert not (tmp_path / "notes.txt.corrupt").exists()
        assert "notes" not in service.store

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=repr)
    @pytest.mark.parametrize("family", ["grid", "kdtree"])
    def test_publish_non_finite_points_400(self, served, rng, family, bad):
        # json.dumps writes NaN / Infinity, which the server's json parses;
        # grid used to answer inf with a 500 (OverflowError), kdtree to fit.
        base, service = served
        points = rng.normal(size=(20, 2))
        points[7, 1] = bad
        body = self.expect_error(
            lambda: post(base, "/v1/snapshots/bad", {
                "points": points.tolist(), "index": family,
            }),
            400,
        )
        assert "must be finite" in body["error"]
        assert "bad" not in service.store

    @pytest.mark.parametrize("family", ["list", "kdtree"])
    def test_publish_zero_width_points_400(self, served, family):
        # Every family refuses points of width 0 in fit: ``list`` used to
        # publish them (ρ = n - 1 everywhere), ``kdtree`` to fail its build.
        base, service = served
        body = self.expect_error(
            lambda: post(base, "/v1/snapshots/flat", {
                "points": [[], [], []], "index": family,
            }),
            400,
        )
        assert "non-empty" in body["error"]
        assert "flat" not in service.store

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


def query_with_dispatch_stall(base, delay_s):
    """POST one uncached query while the dispatcher stalls ``delay_s``."""
    from repro import faults
    from repro.faults import FaultPlan, FaultSpec

    plan = FaultPlan(
        [FaultSpec("coalescer.dispatch", mode="sleep", times=1, delay_s=delay_s)]
    )
    with faults.inject(plan):
        return post(base, "/v1/query", {
            "snapshot": "main", "op": "quantities", "dc": 0.5, "use_cache": False,
        })


def wait_for_heartbeat_of_respawn(pool, killed, timeout_s=30.0):
    """Wait until the worker respawned in place of ``killed`` has sent a
    heartbeat: its pid shows once it is forked, a heartbeat once the child
    runs Python code of its own (past the at-fork hooks)."""
    deadline = time.monotonic() + timeout_s
    seen = None
    while time.monotonic() < deadline:
        rows = [w for w in pool.health()["workers"] if w["pid"] not in (None, killed)]
        if len(rows) == 2:
            seen = seen or time.monotonic()
            # heartbeat_age_s is rounded to 1 ms.
            if max(w["heartbeat_age_s"] for w in rows) + 0.002 < time.monotonic() - seen:
                return True
        time.sleep(0.01)
    return False


class TestDrain:
    """Graceful drain: refuse new work, keep operators' routes, flush."""

    def test_keep_alive_serves_sequential_requests(self, live_server):
        host, port = live_server.server_address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            sockets = []
            for _ in range(3):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                assert not response.will_close
                json.loads(response.read())
                sockets.append(conn.sock)
            assert sockets[0] is not None
            assert all(sock is sockets[0] for sock in sockets)
        finally:
            conn.close()

    def test_draining_refuses_queries_but_serves_operators(self, live_server):
        host, port = live_server.server_address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/healthz")  # open the connection pre-drain
            conn.getresponse().read()
            assert live_server.drain(timeout_s=10.0) is True
            # Operators keep their eyes on an open connection.
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            health = json.loads(response.read())
            assert health["status"] == "draining"
            assert health["health"]["draining"] is True
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
            # Queries are refused with a retry hint, and the connection ends
            # because the refused body was never read.
            conn.request(
                "POST", "/v1/query",
                body=json.dumps({"snapshot": "main", "op": "quantities", "dc": 0.5}),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 503
            assert int(response.getheader("Retry-After")) >= 1
            assert response.getheader("Connection") == "close"
            body = json.loads(response.read())
            assert body["type"] == "ServiceDrainingError"
            assert body["retry_after_s"] > 0
        finally:
            conn.close()

    def test_drain_flushes_inflight_query_bit_identical(self, live_server, blobs):
        base = base_url(live_server)
        results = []
        client = threading.Thread(
            target=lambda: results.append(query_with_dispatch_stall(base, 0.3))
        )
        client.start()
        deadline = time.monotonic() + 30.0
        while live_server.inflight() == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert live_server.inflight() == 1
        assert live_server.drain(timeout_s=30.0) is True
        assert live_server.inflight() == 0
        client.join(timeout=30.0)
        assert not client.is_alive()
        reference = make_index("kdtree").fit(blobs).quantities(0.5)
        assert results[0]["rho"] == reference.rho.tolist()
        assert results[0]["mu"] == reference.mu.tolist()
        np.testing.assert_array_equal(np.asarray(results[0]["delta"]), reference.delta)

    def test_connect_after_drain_is_refused_at_once(self, live_server):
        host, port = live_server.server_address
        assert live_server.drain(timeout_s=10.0) is True
        conn = http.client.HTTPConnection(host, port, timeout=2)
        began = time.monotonic()
        try:
            # Before the listener closed with the drain, this connect was
            # accepted by the kernel and the request hung until the timeout.
            with pytest.raises(ConnectionRefusedError):
                conn.request("GET", "/healthz")
                conn.getresponse()
        finally:
            conn.close()
        assert time.monotonic() - began < 1.0

    def test_connect_is_refused_after_a_worker_respawned(self, blobs):
        """A worker respawned after the bind is forked with the listening
        socket open; it must not keep it, or a connect after
        ``server_close()`` lands in a backlog that nothing reads."""
        with ClusteringService(linger_ms=1.0, workers=2, heartbeat_s=0.05) as service:
            service.fit_snapshot("main", blobs, index="kdtree")
            server = make_server(service)
            start(server)
            address = server.server_address
            try:
                killed = service.pool.worker_pids()[0]
                os.kill(killed, signal.SIGKILL)
                assert wait_for_heartbeat_of_respawn(service.pool, killed)
            finally:
                server.shutdown()
                server.server_close()
            began = time.monotonic()
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(address, timeout=1.0).close()
            assert time.monotonic() - began < 1.0


class TestSerialize:
    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="cannot serialise"):
            serialize_value(object())


class TestCLIServe:
    @staticmethod
    def parse(*argv):
        from repro.__main__ import build_parser

        return build_parser().parse_args(
            ["serve", "--profile", "test", "--port", "0", *argv]
        )

    def test_build_server_and_query(self, tmp_path, blobs):
        from repro.__main__ import build_server

        csv = tmp_path / "points.csv"
        np.savetxt(csv, blobs, delimiter=",")
        args = self.parse(
            "--input", str(csv), "--index", "grid", "--snapshot", "cli",
            "--max-batch", "16", "--linger-ms", "1.0", "--cache-entries", "16",
        )
        service, server, snapshot = build_server(args)
        try:
            assert snapshot.name == "cli"
            start(server)
            out = post(base_url(server), "/v1/query", {
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
        from repro.__main__ import build_server

        path = str(tmp_path / "x.npz")
        save_index(make_index("kdtree").fit(blobs), path)
        args = self.parse(
            "--load", path, "--snapshot", "x",
            "--backend", "threads", "--n-jobs", "2", "--chunk-size", "64",
            "--dispatch", "serial", "--max-batch", "1", "--linger-ms", "0",
            "--cache-entries", "0",
        )
        service, server, snapshot = build_server(args)
        try:
            assert snapshot.index.backend == "threads"
            assert snapshot.index.n_jobs == 2
            assert snapshot.index.chunk_size == 64
        finally:
            server.server_close()
            service.close()

    def test_load_quarantines_a_corrupt_payload(self, tmp_path):
        """``serve --load`` keeps quarantine: a restart in a crash loop then
        gets a clean FileNotFoundError instead of the same bad bytes."""
        from repro.__main__ import build_server
        from repro.indexes.persist import CorruptSnapshotError

        path = tmp_path / "x.npz"
        path.write_bytes(b"not an index")
        args = self.parse("--load", str(path), "--snapshot", "x")
        with pytest.raises(CorruptSnapshotError):
            build_server(args)
        assert not path.exists()
        assert (tmp_path / "x.npz.corrupt").read_bytes() == b"not an index"

    def test_load_conflicts_with_dataset(self, blobs, tmp_path):
        from repro.__main__ import build_server

        path = str(tmp_path / "x.npz")
        save_index(make_index("kdtree").fit(blobs), path)
        args = self.parse("--load", path, "--dataset", "s1", "--snapshot", "x")
        with pytest.raises(SystemExit, match="--load"):
            build_server(args)

    def test_sigterm_handled_on_another_thread_still_drains(
        self, tmp_path, blobs, monkeypatch
    ):
        """A process-directed SIGTERM may land on any thread; Python then
        runs the handler only when the main thread next takes the GIL.  The
        serve loop must notice it and drain, not sleep through it."""
        import signal

        import repro.__main__ as cli

        csv = tmp_path / "points.csv"
        np.savetxt(csv, blobs, delimiter=",")
        args = self.parse("--input", str(csv), "--index", "kdtree")
        built, ready, done, rescued = {}, threading.Event(), threading.Event(), []
        build_server = cli.build_server

        def record(parsed):
            triple = build_server(parsed)
            built["server"] = triple[1]
            ready.set()
            return triple

        monkeypatch.setattr(cli, "build_server", record)
        main_thread = threading.get_ident()

        def signal_this_thread():
            try:
                assert ready.wait(30.0)
                get(base_url(built["server"]), "/healthz")  # accept loop is up
                signal.pthread_kill(threading.get_ident(), signal.SIGTERM)
                done.wait(5.0)
            finally:
                if not done.is_set():
                    rescued.append(True)  # unblock the main thread, then fail
                    signal.pthread_kill(main_thread, signal.SIGTERM)

        saved = {sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)}
        helper = threading.Thread(target=signal_this_thread, daemon=True)
        helper.start()
        try:
            code = cli.cmd_serve(args)
        finally:
            done.set()
            for sig, handler in saved.items():
                signal.signal(sig, handler)
            helper.join(timeout=30.0)
        assert not helper.is_alive()
        assert not rescued, "SIGTERM handled off the main thread was never noticed"
        assert code == 0

    def test_serve_parser_registered(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["serve", "--port", "not-a-number"])
