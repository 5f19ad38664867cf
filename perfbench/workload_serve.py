"""``serve``: a live ``python -m repro serve`` answering over HTTP.

The benchmark writes s1 (n=20,000) as a CSV of ``repr`` floats, so the
server's points equal its own, and starts ``python -m repro serve --input
<csv> --index kdtree --workers 2 --port 0``.  Cold phase: 2 keep-alive
connections, each a closed loop of ``cluster`` queries at never-asked
cut-offs (log-uniform between ``estimate_dc`` at 0.1 % and 1 %).  Hit
phase: 1 connection cycling over the 8 most recently answered cold cut-offs.
Cold and hit latencies are kept apart: no distribution mixes the two.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from types import SimpleNamespace
from typing import Dict, List, Optional

import numpy as np

from repro import estimate_dc
from repro.datasets import s1
from repro.indexes import make_index
from repro.serving.http import serialize_value

from benchlib import (
    OUT_DIR,
    RESULT_FIELDS,
    ROOT,
    SHM,
    STRATA,
    Deadline,
    PhaseProbes,
    Result,
    Tracer,
    layer_split,
    log_uniform_dcs,
    mismatch,
    overhead_pct,
    p50,
    process_tree,
    shm_segments,
    sub_seed,
    tree_peak_rss_mb,
)
from workload_sweep import traced_cluster, tree_detail

N = 20_000
N_CENTERS = 15
DC_FRACTIONS = (0.001, 0.01)
CONNECTIONS = 2
HIT_CYCLE = 8
SETUP_REPS = 3
# Fixed request counts fill about 20 s on a 2-vCPU VM at the commit that
# introduced this benchmark (cold ~3 rps over both connections, hit ~30 ms);
# each connection's cold sequence is whole blocks of STRATA.  Hits are not
# gated (see ``run``); they are there for the traced split and the checks.
COLD_PER_CONN = 32
HITS = 60
COLD_CHECKS, HIT_CHECKS = 3, 2
# --index and --workers are pinned: the defaults are expected to change.
SERVER_ARGS = ("--index", "kdtree", "--workers", "2", "--port", "0")
STARTUP_RE = re.compile(r"serving on http://[^\s:/]+:(\d+)")


def make_inputs(seed: int) -> dict:
    """Points, per-connection cut-off sequences and sampled checks; a pure
    function of the seed."""
    points = s1(n=N, seed=sub_seed(seed, 1)).points
    lo, hi = estimate_dc(points, DC_FRACTIONS[0]), estimate_dc(points, DC_FRACTIONS[1])
    cold = [
        log_uniform_dcs(np.random.default_rng(sub_seed(seed, 10 + c)), lo, hi, COLD_PER_CONN)
        for c in range(CONNECTIONS)
    ]
    warm = float(np.sqrt(lo * hi))
    asked = {warm, *np.concatenate(cold).tolist()}
    if len(asked) != CONNECTIONS * COLD_PER_CONN + 1:
        raise ValueError("cold cut-offs must never repeat")
    rng = np.random.default_rng(sub_seed(seed, 3))
    picks = rng.choice(CONNECTIONS * COLD_PER_CONN, COLD_CHECKS, replace=False)
    return {
        "points": points,
        "cold": cold,
        "warm": warm,
        "cold_checks": {(int(p) % CONNECTIONS, int(p) // CONNECTIONS) for p in picks},
        "hit_checks": set(rng.choice(HITS, HIT_CHECKS, replace=False).tolist()),
    }


def query_body(dc: float) -> bytes:
    return json.dumps(
        {"snapshot": "default", "op": "cluster", "dc": float(dc), "n_centers": N_CENTERS}
    ).encode()


class Client:
    """One keep-alive connection; times request sent → last response byte."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, body: Optional[bytes] = None):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        start = time.perf_counter()
        try:
            self.conn.request(method, path, body, headers)
            resp = self.conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # a broken keep-alive session: reconnect next time
            raise
        end = time.perf_counter()
        return resp.status, data, start, end

    def close(self) -> None:
        self.conn.close()


def scrape(port: int) -> Dict[str, float]:
    """``/metrics`` samples keyed by ``name{labels}``."""
    client = Client(port)
    try:
        status, data, _, _ = client.call("GET", "/metrics")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    samples = {}
    for line in data.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        cut = line.rindex("}") + 1 if "}" in line else line.index(" ")
        samples[line[:cut]] = float(line[cut:].split()[0])
    return samples


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Server:
    """One ``python -m repro serve`` process, timed from spawn to its first
    answer, stopped with SIGTERM and checked for leftovers."""

    def __init__(self, csv_path: str, log_path: str, warm_dc: float):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
        )
        start = time.perf_counter()
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--input", csv_path, *SERVER_ARGS],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            )
        self.pid = self.proc.pid
        self.descendants: List[int] = []
        try:
            self.port = self._read_port(log_path)
            client = Client(self.port)
            while client.call("GET", "/healthz")[0] != 200:
                if time.perf_counter() - start > 60.0:
                    raise RuntimeError("/healthz did not answer 200 within 60 s")
                time.sleep(0.01)
            self.boot_s = time.perf_counter() - start
            status, _, sent, done = client.call("POST", "/v1/query", query_body(warm_dc))
            client.close()
            if status != 200:
                raise RuntimeError(f"warm-up query answered {status}")
            self.warmup_ms = (done - sent) * 1e3
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.kill()
            raise

    def _read_port(self, log_path: str) -> int:
        deadline = time.perf_counter() + 60.0
        while time.perf_counter() < deadline:
            with open(log_path) as fh:
                match = STARTUP_RE.search(fh.read())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode} before serving")
            time.sleep(0.005)
        raise RuntimeError("no startup line from the server within 60 s")

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.pid)

    def stop(self) -> List[str]:
        """SIGTERM, then the hygiene checks; returns the problems found.

        The ``/dev/shm`` segments checked are the ones the server's process
        tree has mapped just before SIGTERM; entries other processes on the
        host make are left alone."""
        self.descendants = process_tree(self.pid)[1:]
        segments = shm_segments([self.pid, *self.descendants])
        self.proc.send_signal(signal.SIGTERM)
        problems = []
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            code = None
        if code != 0:
            problems.append(f"server exit code {code} after SIGTERM (want 0: a clean drain)")
        wait_until = time.perf_counter() + 5.0
        while any(_alive(p) for p in self.descendants) and time.perf_counter() < wait_until:
            time.sleep(0.02)
        survivors = [p for p in self.descendants if _alive(p)]
        if survivors:
            problems.append(f"server descendants survived: {survivors}")
        self.kill()
        leaked = [name for name in segments if os.path.exists(os.path.join(SHM, name))]
        if leaked:
            problems.append(f"/dev/shm segments survived: {leaked}")
            for name in leaked:  # do not slow the next run down
                try:
                    os.unlink(os.path.join(SHM, name))
                except OSError:
                    pass
        return problems

    def kill(self) -> None:
        """Make sure nothing this server started is still running."""
        pids = self.descendants or process_tree(self.pid)[1:]
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pid in pids:
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        gone_by = time.perf_counter() + 10.0
        while any(_alive(p) for p in pids) and time.perf_counter() < gone_by:
            time.sleep(0.01)


def _decode(data: bytes) -> SimpleNamespace:
    payload = json.loads(data)
    fields = {f: np.asarray(payload[f]) for f in RESULT_FIELDS}
    return SimpleNamespace(cache_hit=payload["meta"]["cache_hit"], **fields)


def run(seed: int, trace: bool) -> Result:
    res = Result(trace)
    deadline = Deadline()
    inp = make_inputs(seed)
    tracer = res.tracer
    os.makedirs(OUT_DIR, exist_ok=True)
    csv_path = os.path.join(OUT_DIR, f"serve-{seed}-{os.getpid()}.csv")
    with open(csv_path, "w") as fh:
        fh.writelines(f"{x!r},{y!r}\n" for x, y in inp["points"].tolist())

    server = None
    try:
        # -- set-up: spawn → /healthz 200 → one warm-up answer, several times -
        setups, boots, warmups = [], [], []
        for rep in range(SETUP_REPS):
            with tracer.span("serve.setup", op=rep):
                server = Server(csv_path, os.path.join(OUT_DIR, f"serve-{seed}-{rep}.log"),
                                inp["warm"])
            setups.append(server.setup_s)
            boots.append(server.boot_s)
            warmups.append(server.warmup_ms)
            if rep < SETUP_REPS - 1:
                for problem in server.stop():
                    res.fail(f"set-up server {rep}: {problem}")
                server = None

        port = server.port
        before_cold = scrape(port) if trace else {}
        cold, cold_wall = _cold_phase(port, inp, res, tracer, deadline)
        after_cold = scrape(port) if trace else {}
        answered = sorted((r for r in cold if r["status"] == 200), key=lambda r: r["end"])
        cycle = [r["dc"] for r in answered[-HIT_CYCLE:]]
        hit = _hit_phase(port, cycle, inp, res, tracer, deadline) if cycle else []
        res.not_issued("cold phase", CONNECTIONS * COLD_PER_CONN, len(cold))
        res.not_issued("hit phase", HITS, len(hit))
        after_hit = scrape(port) if trace else {}
        peak_rss_mb = server.peak_rss_mb()
        problems = server.stop()
        server = None
        for problem in problems:
            res.fail(problem)
    finally:
        if server is not None:
            server.kill()
        os.remove(csv_path)

    # -- correctness: sampled bodies decoded after the phases -----------------
    _check(res, inp, cold, hit)

    ok_cold = [r for r in cold if r["status"] == 200]
    ok_hit = [r for r in hit if r["status"] == 200]
    cold_ms = [r["ms"] for r in ok_cold]
    hit_ms = [r["ms"] for r in ok_hit]
    res.notes.update(cold_requests=len(cold), hit_requests=len(hit),
                     setup_s=[round(s, 4) for s in setups])
    if not trace:
        res.set_end_to_end(setups, peak_rss_mb, cold_ms, cold_wall)
        return res

    def delta(after, before, key):
        return after.get(key, 0.0) - before.get(key, 0.0)

    def mean_of(after, before, family):
        count = delta(after, before, family + "_count")
        return delta(after, before, family + "_sum") / count if count else 0.0

    def hit_ratio(after, before):
        h = delta(after, before, 'repro_cache_ops_total{event="hit"}')
        m = delta(after, before, 'repro_cache_ops_total{event="miss"}')
        return h / (h + m) if h + m else 0.0

    service_cold = mean_of(after_cold, before_cold, "repro_serving_request_seconds") * 1e3
    service_hit = mean_of(after_hit, after_cold, "repro_serving_request_seconds") * 1e3
    queue_wait = mean_of(after_cold, before_cold, "repro_serving_queue_wait_seconds") * 1e3
    replica = _time_replica(inp["points"], [r["dc"] for r in ok_cold])
    split = layer_split(replica.tracer.spans)
    engine = split["indexes"] + split["core"]
    # The engine runs inside the workers, out of the benchmark's sight, so the
    # layers below ``serving`` come from the in-process replica, and
    # ``outer.self_ms`` is the client round trip of a cold request minus the
    # replica's index and core time: every serving layer, HTTP included.
    split["outer"] = statistics.mean(cold_ms) - engine
    res.set_layers(
        fit_s=replica.fit_s,
        memory_mb=replica.memory_mb,
        split=split,
        probes=replica.probes.per_op(len(ok_cold)),
        traced_ms=[r["ms"] for r in ok_cold if r["traced"]],
        untraced_ms=[r["ms"] for r in ok_cold if not r["traced"]],
    )
    # Hit latencies are detail, ungated.  A hit (~20-35 ms) sits inside one
    # of the episodes of a few seconds in which a vCPU of the reference VM
    # runs up to ~70 % slower, so its p50 jumps between two modes with the
    # share of slow episodes in the hit phase: its IQR/median over 10-seed
    # sets reached 0.26-0.61, beyond the largest bound allowed (0.25).
    detail = res.detail
    detail["hit_p50_ms"] = p50(hit_ms)
    res.set_tail("hit_tail_ms", hit_ms, into=detail)
    detail.update(tree_detail(replica.tracer.spans, "kdtree", len(ok_cold)))
    detail.update({
        "serving.boot_s": statistics.median(boots),
        "serving.warmup_ms": statistics.median(warmups),
        "serving.service.request_ms.cold": service_cold,
        "serving.service.request_ms.hit": service_hit,
        "serving.http.overhead_ms.cold": statistics.mean(cold_ms) - service_cold,
        "serving.http.overhead_ms.hit": statistics.mean(hit_ms) - service_hit,
        "serving.http.encode_ms": statistics.median(replica.encode_ms),
        "serving.http.body_kb": statistics.mean(r["bytes"] for r in ok_cold) / 1024,
        "serving.cache.hit_ratio.cold": hit_ratio(after_cold, before_cold),
        "serving.cache.hit_ratio.hit": hit_ratio(after_hit, after_cold),
        "serving.coalescer.queue_wait_ms": queue_wait,
        "serving.coalescer.batch_size":
            mean_of(after_cold, before_cold, "repro_coalescer_batch_size"),
        "serving.workers.engine_ms": engine,
        # A residual: the pipe round trip to a worker, parent-side work
        # besides the engine, and the CPU contention the lone replica does not
        # meet (two workers, the server's parent and this client share the
        # VM's CPUs).  The replica runs after the phases, so a change in the
        # host's speed in between lands here too; it can be negative.
        "serving.workers.ipc_ms": service_cold - queue_wait - engine,
        "serving.workers.failovers":
            delta(after_hit, before_cold, "repro_serving_failovers_total"),
        "serving.workers.fallbacks":
            delta(after_hit, before_cold, "repro_serving_pool_fallbacks_total"),
        "bench.trace_overhead_pct.hit": overhead_pct(
            [r["ms"] for r in ok_hit if r["traced"]],
            [r["ms"] for r in ok_hit if not r["traced"]]),
    })
    return res


def _request(client: Client, dc: float, body: bytes, res: Result, tracer: Tracer,
             traced: bool, parent: Optional[int], op: int, keep: bool) -> dict:
    record = {"dc": float(dc), "status": None, "traced": traced, "op": op}
    try:
        if traced:
            with tracer.span("http.query", op=op, parent=parent):
                status, data, sent, end = client.call("POST", "/v1/query", body)
        else:
            status, data, sent, end = client.call("POST", "/v1/query", body)
    except (OSError, http.client.HTTPException) as exc:
        res.fail(f"request {op}: {type(exc).__name__}: {exc}")
        return record
    record.update(status=status, ms=(end - sent) * 1e3, end=end, bytes=len(data))
    if status != 200:
        res.fail(f"request {op}: HTTP {status}")
    elif keep:
        record["body"] = data  # decoded after the phase, never between requests
    return record


def _cold_phase(port: int, inp: dict, res: Result, tracer: Tracer, deadline: Deadline):
    records: List[dict] = []
    bodies = [[query_body(dc) for dc in dcs] for dcs in inp["cold"]]

    def loop(c: int, parent: Optional[int]) -> None:
        client = Client(port)
        try:
            for i, dc in enumerate(inp["cold"][c]):
                if deadline.passed():
                    break
                traced = tracer.enabled and (i // STRATA) % 2 == 0  # see workload_sweep
                rec = _request(client, dc, bodies[c][i], res, tracer, traced,
                               parent, c * 10_000 + i, (c, i) in inp["cold_checks"])
                rec["expect_hit"] = False
                records.append(rec)
        finally:
            client.close()

    with tracer.span("phase.cold") as phase:
        start = time.perf_counter()
        threads = [threading.Thread(target=loop, args=(c, phase)) for c in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    res.attempted += len(records)
    ends = [r["end"] for r in records if r["status"] is not None]
    return records, (max(ends) - start) if ends else float("nan")


def _hit_phase(port: int, cycle: List[float], inp: dict, res: Result,
               tracer: Tracer, deadline: Deadline) -> List[dict]:
    records = []
    bodies = [query_body(dc) for dc in cycle]
    client = Client(port)
    try:
        with tracer.span("phase.hit") as phase:
            for i in range(HITS):
                if deadline.passed():
                    break
                rec = _request(client, cycle[i % len(cycle)], bodies[i % len(cycle)], res,
                               tracer, tracer.enabled and i % 2 == 0, phase, 100_000 + i,
                               i in inp["hit_checks"])
                rec["expect_hit"] = True
                records.append(rec)
    finally:
        client.close()
    res.attempted += len(records)
    return records


def _check(res: Result, inp: dict, cold: List[dict], hit: List[dict]) -> None:
    """Sampled bodies against a second exact family (``grid``, which shares
    no kernels with the served ``kdtree``) over the same points, bit for bit."""
    kept = [r for r in cold + hit if "body" in r]
    if not kept:
        return
    other = make_index("grid").fit(inp["points"])
    answers = {}
    for rec in kept:
        got = _decode(rec.pop("body"))
        if got.cache_hit != rec["expect_hit"]:
            res.fail(f"request {rec['op']}: cache_hit={got.cache_hit}, want {rec['expect_hit']}")
        dc = rec["dc"]
        if dc not in answers:
            answers[dc] = other.cluster(dc, n_centers=N_CENTERS)
        field = mismatch(got, answers[dc], RESULT_FIELDS)
        if field:
            res.fail(f"request {rec['op']} dc={dc!r}: {field} differs from grid")


def _time_replica(points, dcs: List[float]) -> SimpleNamespace:
    """The engine inside the workers, on an in-process ``kdtree`` replica of
    the same points: its fit, its ``memory_bytes()``, and, for every answered
    cold cut-off, a traced ``cluster`` (:func:`workload_sweep.traced_cluster`)
    and ``serialize_value`` + ``json.dumps`` of its (equal) result, in ms."""
    start = time.perf_counter()
    replica = make_index("kdtree").fit(points)
    out = SimpleNamespace(fit_s=time.perf_counter() - start,
                          memory_mb=replica.memory_bytes() / 2**20,
                          tracer=Tracer(True), probes=PhaseProbes(), encode_ms=[])
    for op, dc in enumerate(dcs):
        result = traced_cluster(replica, dc, out.tracer, out.probes, op)
        start = time.perf_counter()
        json.dumps(serialize_value(result)).encode()
        out.encode_ms.append((time.perf_counter() - start) * 1e3)
    return out
