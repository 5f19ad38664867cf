"""Thin stdlib HTTP/JSON front-end over :class:`ClusteringService`.

No framework, no third-party deps: a ``ThreadingHTTPServer`` whose handler
translates JSON requests into service calls.  Numeric fidelity note: arrays
go out via :mod:`json`, whose float encoding is ``repr``-based shortest
round-trip — a float64 parsed back with ``json.loads`` is *bit-identical*
to the served value (``±Infinity`` included, via Python's permissive JSON
dialect), so even HTTP clients keep the exactness contract.

Overload and failure are part of the contract, not exceptions to it: a
query that is shed at admission or misses its deadline gets ``503`` with a
``Retry-After`` header and a typed JSON error body (``{"error": …,
"type": "LoadShedError"|"DeadlineExceededError", "retry_after_s": …}``); a
dispatcher crash (restarted underneath, request safe to retry) gets
``500`` with ``"type": "DispatcherCrashError"``.  ``/healthz`` reports the
service health state (``healthy``/``degraded``/``shedding``) with
per-snapshot detail.

Routes
------
* ``GET  /healthz`` — liveness + snapshot count + health states.
* ``GET  /v1/snapshots`` — published snapshots (name, fingerprint, version…).
* ``POST /v1/snapshots/<name>`` — publish: body ``{"points": [[…]…],
  "index": "kdtree", "params": {…}}`` fits in-process; ``{"path": "…"}`` loads
  a persisted index (fingerprint-verified) instead.  ``params`` naming
  ``backend``, ``n_jobs`` or ``chunk_size`` is a 400: execution is set by
  ``serve --backend/--n-jobs/--chunk-size``.  A path that fails to load is
  a 400 and the file is left in place (never renamed to ``.corrupt``).
* ``DELETE /v1/snapshots/<name>`` — drop a snapshot (and its cache entries).
* ``POST /v1/query`` — body ``{"snapshot": …, "op": "quantities"|"cluster",
  "dc": …, "tie_break"?, "n_centers"?, "rho_min"?, "delta_min"?, "halo"?,
  "use_cache"?}``; responds with the arrays plus the serving ``meta``
  (fingerprint, cache_hit, batch_size, trace_id, …) and, when tracing is
  on, an ``X-Trace-Id`` header naming the request's span tree.
* ``GET  /v1/stats`` — store / cache / coalescer counters.
* ``GET  /metrics`` — Prometheus text exposition of the obs registry.
* ``GET  /trace/<id>`` — one finished span tree from the trace ring buffer.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.quantities import DPCQuantities, DPCResult
from repro.obs import trace as obs_trace
from repro.obs.export import render_prometheus
from repro.serving.errors import (
    DeadlineExceededError,
    DispatcherCrashError,
    LoadShedError,
    ServiceDrainingError,
    ServingError,
)
from repro.serving.service import ClusteringService

__all__ = ["ClusteringServer", "make_server", "serialize_value"]

_MAX_BODY_BYTES = 256 * 1024 * 1024  # refuse absurd uploads outright

#: Index params a publish request may not set: how the engine runs (and how
#: many processes it forks) is the operator's choice, not a client's.
_SERVER_PARAMS = ("backend", "n_jobs", "chunk_size")


def serialize_value(value: Any) -> Dict[str, Any]:
    """JSON-friendly payload for a served DPCQuantities / DPCResult."""
    if isinstance(value, DPCResult):
        payload = serialize_value(value.quantities)
        payload.update(
            centers=value.centers.tolist(),
            labels=value.labels.tolist(),
            n_clusters=int(value.n_clusters),
            halo=None if value.halo is None else value.halo.tolist(),
        )
        return payload
    if isinstance(value, DPCQuantities):
        return {
            "dc": float(value.dc),
            "rho": value.rho.tolist(),
            "delta": value.delta.tolist(),
            "mu": value.mu.tolist(),
        }
    raise TypeError(f"cannot serialise {type(value).__name__}")


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------------

    @property
    def service(self) -> ClusteringService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover - opt-in
            super().log_message(format, *args)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        close: bool = False,
        retry_after: Optional[float] = None,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra_headers or {}).items():
            self.send_header(key, value)
        if retry_after is not None:
            # Retry-After is integer seconds per RFC 9110; round up so a
            # compliant client never retries before the hint.
            self.send_header("Retry-After", str(max(1, int(-(-retry_after // 1)))))
        if close:
            # Sets self.close_connection too (stdlib special-cases this
            # header), ending the keep-alive session after the response.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, close: bool = False) -> None:
        self._send_json(status, {"error": message}, close=close)

    def _serving_error(self, exc: ServingError) -> None:
        """Typed overload/failure → status code + Retry-After + JSON body."""
        transient = isinstance(exc, (LoadShedError, DeadlineExceededError))
        status = 503 if transient else 500
        self._send_json(
            status,
            {
                "error": str(exc),
                "type": type(exc).__name__,
                "retry_after_s": exc.retry_after_s,
            },
            retry_after=exc.retry_after_s,
        )

    def _read_body(self) -> Optional[Dict[str, Any]]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        if length <= 0 or length > _MAX_BODY_BYTES:
            # The body (absent, chunked, or refused-oversized) was never
            # consumed — under HTTP/1.1 keep-alive its bytes would be parsed
            # as the next request line, so this connection must die with the
            # error instead of desyncing.
            self._error(400, "a JSON body with Content-Length is required", close=True)
            return None
        try:
            payload = json.loads(self.rfile.read(length))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._error(400, f"invalid JSON body: {exc}")
            return None
        if not isinstance(payload, dict):
            self._error(400, "the JSON body must be an object")
            return None
        return payload

    # -- routes ---------------------------------------------------------------

    def _guarded(self, inner) -> None:
        """Drain refusal + in-flight tracking around one request.

        While the server drains, every route except ``GET /healthz`` and
        ``GET /metrics`` (operators still need eyes) gets ``503`` +
        ``Retry-After`` so clients fail over; the refusal closes the
        connection because a refused POST's body was never consumed and
        keep-alive would desync.  Admitted requests are counted so
        :meth:`ClusteringServer.drain` can wait for them to flush.
        """
        server = self.server
        if getattr(server, "draining", False) and not (
            self.command == "GET" and self.path in ("/healthz", "/metrics")
        ):
            exc = ServiceDrainingError()
            self._send_json(
                503,
                {
                    "error": str(exc),
                    "type": type(exc).__name__,
                    "retry_after_s": exc.retry_after_s,
                },
                close=True,
                retry_after=exc.retry_after_s,
            )
            return
        with server.track_request():  # type: ignore[attr-defined]
            inner()

    def do_GET(self) -> None:  # noqa: N802 - stdlib contract
        self._guarded(self._do_get)

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib contract
        self._guarded(self._do_delete)

    def do_POST(self) -> None:  # noqa: N802 - stdlib contract
        self._guarded(self._do_post)

    def _do_get(self) -> None:
        if self.path == "/healthz":
            health = self.service.health()
            if getattr(self.server, "draining", False):
                health["state"] = "draining"
                health["draining"] = True
            self._send_json(
                200,
                {
                    # "ok" when healthy keeps the liveness contract of plain
                    # probes; degraded/shedding states ride in verbatim.
                    "status": "ok" if health["state"] == "healthy" else health["state"],
                    "snapshots": len(self.service.store),
                    "health": health,
                },
            )
        elif self.path == "/v1/snapshots":
            self._send_json(200, {"snapshots": self.service.store.describe()})
        elif self.path == "/v1/stats":
            self._send_json(200, self.service.stats())
        elif self.path == "/metrics":
            body = render_prometheus().encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path.startswith("/trace/"):
            trace_id = self.path[len("/trace/"):]
            tree = obs_trace.get_trace(trace_id) if trace_id else None
            if tree is None:
                self._send_json(
                    404,
                    {
                        "error": f"no trace {trace_id!r} in the ring buffer",
                        "recent": list(obs_trace.recent_trace_ids()),
                    },
                )
            else:
                self._send_json(200, {"trace": tree})
        else:
            self._error(404, f"no route GET {self.path}")

    def _do_delete(self) -> None:
        name = self._snapshot_name()
        if name is None:
            return
        if name not in self.service.store:
            self._error(404, f"no snapshot named {name!r}")
            return
        self.service.drop_snapshot(name)
        self._send_json(200, {"dropped": name})

    def _do_post(self) -> None:
        if self.path == "/v1/query":
            self._handle_query()
            return
        name = self._snapshot_name()
        if name is None:
            return
        self._handle_publish(name)

    def _snapshot_name(self) -> Optional[str]:
        prefix = "/v1/snapshots/"
        if not self.path.startswith(prefix) or not self.path[len(prefix):]:
            self._error(404, f"no route {self.command} {self.path}")
            return None
        return self.path[len(prefix):]

    def _handle_publish(self, name: str) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            if "path" in body:
                snapshot = self.service.load_snapshot(
                    name, str(body["path"]), quarantine=False
                )
            elif "points" in body:
                params = dict(body.get("params") or {})
                refused = sorted(set(params).intersection(_SERVER_PARAMS))
                if refused:
                    self._error(
                        400,
                        f"publish params may not set {', '.join(refused)}: "
                        "execution is server configuration "
                        "(serve --backend/--n-jobs/--chunk-size)",
                    )
                    return
                points = np.asarray(body["points"], dtype=np.float64)
                snapshot = self.service.fit_snapshot(
                    name,
                    points,
                    index=str(body.get("index", "kdtree")),
                    **params,
                )
            else:
                self._error(400, 'publish needs "points" (fit) or "path" (load)')
                return
        except (ValueError, TypeError, KeyError, OSError) as exc:
            self._error(400, str(exc))
            return
        except Exception as exc:  # never drop the socket without a status
            self._error(500, f"{type(exc).__name__}: {exc}")
            return
        self._send_json(200, {"published": snapshot.info()})

    def _handle_query(self) -> None:
        body = self._read_body()
        if body is None:
            return
        name = body.get("snapshot")
        if not isinstance(name, str):
            self._error(400, 'the query body needs a "snapshot" name')
            return
        if "dc" not in body:
            self._error(400, 'the query body needs a "dc" cut-off')
            return
        try:
            result = self.service.submit(
                name,
                op=str(body.get("op", "cluster")),
                dc=body["dc"],
                tie_break=body.get("tie_break", "id"),
                n_centers=body.get("n_centers"),
                rho_min=body.get("rho_min"),
                delta_min=body.get("delta_min"),
                halo=bool(body.get("halo", False)),
                use_cache=bool(body.get("use_cache", True)),
                timeout_s=body.get("timeout_s"),
            ).result()
        except KeyError as exc:
            self._error(404, str(exc.args[0]) if exc.args else str(exc))
            return
        except ServingError as exc:
            # Shed/deadline → 503 + Retry-After, dispatcher crash → 500;
            # all retryable overload, never a client mistake (400).
            self._serving_error(exc)
            return
        except (ValueError, TypeError) as exc:
            self._error(400, str(exc))
            return
        except Exception as exc:  # e.g. coalescer closed mid-shutdown -> 500
            self._error(500, f"{type(exc).__name__}: {exc}")
            return
        payload = serialize_value(result.value)
        payload["op"] = result.meta["op"]
        payload["meta"] = result.meta
        trace_id = result.meta.get("trace_id")
        payload["trace_id"] = trace_id
        self._send_json(
            200,
            payload,
            extra_headers={"X-Trace-Id": trace_id} if trace_id else None,
        )


#: The servers whose listening socket is open in this process.  A fork hook
#: is process-wide and cannot be unregistered, so one hook reads this
#: registry instead of each server registering its own.
_LIVE_SERVERS: "weakref.WeakSet[ClusteringServer]" = weakref.WeakSet()


def _close_inherited_sockets() -> None:
    """In a forked child, close every live server's listening socket and
    the connections it has open.

    A serving worker forked (or respawned) after the server bound would
    otherwise hold the listener: after ``server_close()`` a new connect
    would still be accepted into a backlog that nothing reads.  Only these
    sockets are closed — a child's other inherited descriptors (its
    ``Popen`` sentinel, the resource tracker's pipe) must stay open.
    """
    for server in list(_LIVE_SERVERS):
        server.socket.close()
        for conn in list(server._connections):
            conn.close()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_inherited_sockets)


class ClusteringServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ClusteringService`.

    Observability (:mod:`repro.obs`) is switched on for the whole process by
    default — a server exists to be watched, and ``/metrics`` / ``/trace``
    would otherwise serve empty registries.  Pass ``observability=False`` to
    keep instrumentation on its no-op path (e.g. overhead benchmarks).
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: ClusteringService,
        verbose: bool = False,
        observability: bool = True,
    ):
        # Set before super().__init__: a failed bind calls server_close().
        self._obs_enabled_here = False
        self._connections: set = set()
        super().__init__(address, _Handler)
        _LIVE_SERVERS.add(self)
        self.service = service
        self.verbose = verbose
        self.draining = False
        self._serving = False
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self._obs_enabled_here = observability and not obs.enabled()
        if observability:
            obs.enable()

    @contextlib.contextmanager
    def track_request(self) -> Iterator[None]:
        """Count one admitted request so :meth:`drain` can wait it out."""
        with self._inflight_cond:
            self._inflight += 1
        try:
            yield
        finally:
            with self._inflight_cond:
                self._inflight -= 1
                self._inflight_cond.notify_all()

    def inflight(self) -> int:
        return self._inflight

    def process_request(self, request, client_address) -> None:
        self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        self._connections.discard(request)
        super().shutdown_request(request)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving = True
        try:
            super().serve_forever(poll_interval)
        finally:
            self._serving = False

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Graceful drain: stop accepting, flush in-flight, report clean.

        Sets :attr:`draining` (requests on open connections get ``503``
        immediately), stops the accept loop and closes the listening socket,
        so a new connect is refused at once instead of waiting in the
        kernel's backlog for an accept that never comes.  Then waits up to
        ``timeout_s`` for every admitted request to finish.  Returns
        ``True`` when the flush completed inside the deadline (a *clean*
        drain), ``False`` when requests were still running when time ran
        out (callers should exit non-zero).  Call :meth:`server_close`
        after, as usual.
        """
        self.draining = True
        deadline = time.monotonic() + max(0.0, float(timeout_s))
        if self._serving:
            # Stops serve_forever's accept loop; safe here because drain()
            # is called from a different thread (e.g. the CLI signal path).
            self.shutdown()
        self.socket.close()
        clean = True
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    clean = False
                    break
                self._inflight_cond.wait(remaining)
        return clean

    def server_close(self) -> None:
        _LIVE_SERVERS.discard(self)
        super().server_close()
        # Only undo an enable *this* server performed — a process that was
        # already observing (CLI flag, another live server) keeps observing.
        if self._obs_enabled_here:
            obs.disable()
            self._obs_enabled_here = False


def make_server(
    service: ClusteringService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    observability: bool = True,
) -> ClusteringServer:
    """Bind (``port=0`` picks a free one; read ``server.server_address``)."""
    return ClusteringServer((host, port), service, verbose=verbose, observability=observability)
