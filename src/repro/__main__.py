"""Top-level CLI: cluster a CSV or built-in dataset from the shell.

Usage::

    python -m repro cluster --dataset s1 --index ch --dc 30000 --n-centers 15
    python -m repro cluster --input points.csv --index rtree --out labels.csv
    python -m repro serve --dataset s1 --index kdtree --port 8030
    python -m repro info

``cluster`` reads 2-column (or wider) numeric CSV, runs the index-accelerated
DPC pipeline, writes one label per row, and prints a summary + the top of the
decision graph.  Omitting ``--dc`` estimates it with the Rodriguez–Laio rule
of thumb; omitting centre options uses the automatic γ-gap reading.

``serve`` publishes one fitted index as a named snapshot and answers
HTTP/JSON queries against it (:mod:`repro.serving`): concurrent requests
coalesce into the batched multi-``dc`` kernels and exact results are cached
per snapshot fingerprint.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.dpc import DensityPeakClustering
from repro.datasets.loaders import available_datasets, load_dataset
from repro.indexes.registry import available_indexes


def _load_points(args) -> np.ndarray:
    if (args.input is None) == (args.dataset is None):
        raise SystemExit("pass exactly one of --input CSV or --dataset NAME")
    if args.input is not None:
        points = np.loadtxt(args.input, delimiter=args.delimiter, ndmin=2)
        if points.ndim != 2 or points.shape[1] < 2:
            raise SystemExit(f"{args.input}: expected numeric rows of >= 2 columns")
        return points
    ds = load_dataset(args.dataset, n=args.n, profile=args.profile, seed=args.seed)
    return ds.points


def _index_params(args) -> dict:
    params = {}
    if args.tau is not None:
        params["tau"] = args.tau
    if args.bin_width is not None:
        params["bin_width"] = args.bin_width
    if args.backend != "serial":
        params["backend"] = args.backend
    if args.n_jobs is not None:
        params["n_jobs"] = args.n_jobs
    if args.chunk_size is not None:
        params["chunk_size"] = args.chunk_size
    return params


def cmd_cluster(args) -> int:
    points = _load_points(args)
    model = DensityPeakClustering(
        index=args.index,
        dc=args.dc,
        n_centers=args.n_centers,
        rho_min=args.rho_min,
        delta_min=args.delta_min,
        halo=args.halo,
        index_params=_index_params(args),
        seed=args.seed,
    )
    stats_json = args.stats_json
    root_span = None
    if stats_json:
        from repro import obs
        from repro.obs import trace as obs_trace

        obs.enable()
        root_span = obs_trace.begin_span(
            "cli.cluster", index=args.index, n=len(points)
        )
        try:
            with obs_trace.use_span(root_span):
                model.fit(points)
        finally:
            root_span.finish()
    else:
        model.fit(points)

    n = len(points)
    sizes = np.bincount(model.labels_)
    print(f"n = {n}, dc = {model.dc_:g}, index = {args.index}")
    print(f"clusters: {model.n_clusters_}")
    print("sizes:", ", ".join(str(s) for s in sorted(sizes.tolist(), reverse=True)[:12]))
    if model.halo_ is not None:
        print(f"halo objects: {int(model.halo_.sum())}")
    print("\ndecision graph (top):")
    print(model.decision_graph_.as_table(limit=min(8, n)))

    if args.out:
        np.savetxt(args.out, model.labels_, fmt="%d")
        print(f"\nwrote labels to {args.out}")
    if stats_json:
        from repro import obs
        from repro.obs import trace as obs_trace
        from repro.obs.export import dump_stats_json
        from repro.obs.provenance import provenance_block

        tree = obs_trace.get_trace(root_span.trace_id)
        dump_stats_json(
            stats_json,
            trace_tree=tree,
            extra={
                "provenance": provenance_block(),
                "run": {
                    "index": args.index,
                    "n": n,
                    "dc": float(model.dc_),
                    "n_clusters": int(model.n_clusters_),
                },
            },
        )
        obs.disable()
        print(f"\nwrote metrics + trace to {stats_json}")
    return 0


def build_server(args):
    """Construct the (service, server, snapshot) triple for ``serve`` (test seam)."""
    from repro.serving import ClusteringService, make_server

    service = ClusteringService(
        dispatch=args.dispatch,
        cache_entries=args.cache_entries,
        cache_ttl=args.cache_ttl,
        max_batch=args.max_batch,
        linger_ms=args.linger_ms,
        max_queue=args.max_queue,
        default_timeout_s=args.timeout_s,
        # Replicated serving tier: N supervised shared-memory workers
        # (0 = classic in-process dispatch).
        workers=args.workers,
        heartbeat_s=args.heartbeat_s,
    )
    if args.load is not None:
        if args.input is not None or args.dataset is not None:
            raise SystemExit("--load replaces --input/--dataset; pass only one")
        snapshot = service.load_snapshot(args.snapshot, args.load)
        # Execution config is machine state, never serialised (persist.py
        # drops it) — re-apply the CLI flags to the restored index so
        # --backend/--n-jobs/--chunk-size aren't silently ignored.
        snapshot.index.set_execution(
            backend=args.backend if args.backend != "serial" else None,
            n_jobs=args.n_jobs,
            chunk_size=args.chunk_size,
        )
    else:
        snapshot = service.fit_snapshot(
            args.snapshot, _load_points(args), index=args.index, **_index_params(args)
        )
    server = make_server(
        service,
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        observability=not args.no_observability,
    )
    return service, server, snapshot


def cmd_serve(args) -> int:
    import signal
    import threading

    service, server, snapshot = build_server(args)
    host, port = server.server_address
    print(f"snapshot {snapshot.name!r}: index={snapshot.index.name} n={snapshot.n} "
          f"fingerprint={snapshot.fingerprint[:12]}…")
    print(f"serving on http://{host}:{port}  (dispatch={service.dispatch}, "
          f"workers={args.workers})")
    print(f"  curl http://{host}:{port}/healthz")
    print(f"  curl -X POST http://{host}:{port}/v1/query -d "
          f"'{{\"snapshot\": \"{snapshot.name}\", \"op\": \"cluster\", \"dc\": 0.5}}'")

    # SIGTERM/SIGINT trigger a graceful drain: stop accepting (new connects
    # are refused, so clients fail over), flush in-flight requests under
    # --drain-timeout-s, exit 0 when the flush completed cleanly, 1 when it
    # was forced.
    stop = threading.Event()
    received = {}

    def _on_signal(signum, frame):  # noqa: ARG001 - signal contract
        received["signum"] = signum
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    accept_thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-accept", daemon=True
    )
    accept_thread.start()

    # Wait in short slices: a process-directed signal may land on another
    # thread (e.g. one forking a respawned worker), and Python runs the
    # handler only when the main thread next takes the GIL — an untimed
    # wait would sleep through it and never drain.
    while not stop.wait(0.25):
        pass
    signum = received.get("signum")
    name = signal.Signals(signum).name if signum is not None else "stop"
    drain_timeout = args.drain_timeout_s
    print(f"{name}: draining (timeout {drain_timeout:g}s)…")
    clean = server.drain(timeout_s=drain_timeout)
    clean = service.drain(timeout_s=drain_timeout) and clean
    server.server_close()
    accept_thread.join(timeout=5.0)
    print(f"drain {'clean' if clean else 'forced'}; exiting {0 if clean else 1}")
    return 0 if clean else 1


def cmd_info(_args) -> int:
    print("indexes:", ", ".join(available_indexes()))
    print("datasets:", ", ".join(available_datasets()))
    print("experiments: python -m repro.harness --help")
    print("serving: python -m repro serve --help")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` parser: the one home of every CLI default."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Index-accelerated Density Peak Clustering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cluster = sub.add_parser("cluster", help="cluster a CSV file or a built-in dataset")
    cluster.add_argument("--input", help="CSV of numeric rows (one point per line)")
    cluster.add_argument("--delimiter", default=",")
    cluster.add_argument("--dataset", choices=sorted(available_datasets()))
    cluster.add_argument("--n", type=int, default=None, help="dataset size override")
    cluster.add_argument("--profile", default="bench", choices=("test", "bench", "large"))
    cluster.add_argument("--index", default="kdtree", choices=sorted(available_indexes()))
    cluster.add_argument("--dc", type=float, default=None, help="cut-off distance (default: estimated)")
    cluster.add_argument("--n-centers", type=int, default=None)
    cluster.add_argument("--rho-min", type=float, default=None)
    cluster.add_argument("--delta-min", type=float, default=None)
    cluster.add_argument("--halo", action="store_true", help="flag border/noise objects")
    cluster.add_argument("--tau", type=float, default=None, help="RN-List threshold (rn-* indexes)")
    cluster.add_argument("--bin-width", type=float, default=None, help="CH bin width")
    cluster.add_argument(
        "--backend",
        default="serial",
        choices=("serial", "threads", "process"),
        help="query execution backend (results are bit-identical)",
    )
    cluster.add_argument(
        "--n-jobs", type=int, default=None,
        help="worker count for threads/process backends (default: all cores)",
    )
    cluster.add_argument(
        "--chunk-size", type=int, default=None,
        help="queries per shard task (default: ~4 chunks per worker)",
    )
    cluster.add_argument("--out", default=None, help="write labels (one per row) here")
    cluster.add_argument(
        "--stats-json", default=None, metavar="PATH",
        help="enable observability for the run and write the metrics "
        "snapshot + phase-timing trace (repro.obs) as JSON here",
    )
    cluster.add_argument("--seed", type=int, default=0)
    cluster.set_defaults(func=cmd_cluster)

    serve = sub.add_parser(
        "serve", help="serve exact DPC queries over HTTP (repro.serving)"
    )
    serve.add_argument("--input", help="CSV of numeric rows (one point per line)")
    serve.add_argument("--delimiter", default=",")
    serve.add_argument("--dataset", choices=sorted(available_datasets()))
    serve.add_argument("--n", type=int, default=None, help="dataset size override")
    serve.add_argument("--profile", default="bench", choices=("test", "bench", "large"))
    serve.add_argument(
        "--load", default=None,
        help="publish a persisted index (.npz from repro.indexes.persist) "
        "instead of fitting --input/--dataset",
    )
    serve.add_argument("--index", default="kdtree", choices=sorted(available_indexes()))
    serve.add_argument("--snapshot", default="default", help="snapshot name to publish")
    serve.add_argument("--tau", type=float, default=None, help="RN-List threshold (rn-* indexes)")
    serve.add_argument("--bin-width", type=float, default=None, help="CH bin width")
    serve.add_argument("--backend", default="serial", choices=("serial", "threads", "process"))
    serve.add_argument("--n-jobs", type=int, default=None)
    serve.add_argument("--chunk-size", type=int, default=None)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8030, help="0 picks a free port")
    serve.add_argument(
        "--dispatch", default="coalesce", choices=("coalesce", "serial"),
        help="batch concurrent requests through the multi-dc kernels, or "
        "run one engine call per request",
    )
    serve.add_argument("--max-batch", type=int, default=64, help="requests per dispatch cycle")
    serve.add_argument(
        "--linger-ms", type=float, default=2.0,
        help="how long a dispatch cycle waits for more requests to coalesce",
    )
    serve.add_argument(
        "--max-queue", type=int, default=None,
        help="admission bound: shed requests (503 + Retry-After) once this "
        "many are queued undispatched (default: unbounded)",
    )
    serve.add_argument(
        "--timeout-s", type=float, default=None,
        help="default per-request deadline; expired requests fail fast with "
        "503 instead of riding their batch (default: none)",
    )
    serve.add_argument("--cache-entries", type=int, default=256, help="result-cache capacity (0 disables)")
    serve.add_argument("--cache-ttl", type=float, default=None, help="result-cache TTL seconds (default: none)")
    serve.add_argument(
        "--workers", type=int, default=0,
        help="supervised serving workers sharing one shared-memory snapshot "
        "image (0 = in-process dispatch only; dead workers fail over warm)",
    )
    serve.add_argument(
        "--heartbeat-s", type=float, default=0.25,
        help="worker heartbeat period; a worker silent for 5 heartbeats is "
        "declared dead and its in-flight batch re-dispatched",
    )
    serve.add_argument(
        "--drain-timeout-s", type=float, default=10.0,
        help="graceful-drain budget on SIGTERM/SIGINT: in-flight requests "
        "get this long to flush before a forced exit (exit code 1)",
    )
    serve.add_argument("--verbose", action="store_true", help="log every HTTP request")
    serve.add_argument(
        "--no-observability", action="store_true",
        help="keep repro.obs instrumentation on its no-op path "
        "(/metrics and /trace will serve empty registries)",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.set_defaults(func=cmd_serve)

    info = sub.add_parser("info", help="list available indexes and datasets")
    info.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
