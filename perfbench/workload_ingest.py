"""``ingest``: a check-in stream folded into ``StreamingDPC`` while it answers.

The gowalla stand-in arrives in seeded order into ``StreamingDPC()`` (its
default R-tree and compaction policy): a 6,000-point base, then batches of
100.  Each op is ``add(batch)`` + ``quantities(dc)`` at one fixed ``dc``,
``estimate_dc`` of the base at 1 %.  The delta side image grows between
compactions, so ops cover the (base, delta) kernels as well as writes.
"""

from __future__ import annotations

import os
import statistics
import time
from types import SimpleNamespace

import numpy as np

from repro import estimate_dc
from repro.core import DensityOrder
from repro.datasets import gowalla
from repro.extras import StreamingDPC
from repro.indexes import make_index

from benchlib import (
    Deadline,
    PhaseProbes,
    Result,
    layer_split,
    mean_self_ms,
    mismatch,
    sub_seed,
    vm_hwm_kb,
)

BASE_N = 6_000
BATCH = 100
# A fixed op count fills about 16 s on a 2-vCPU VM at the commit that
# introduced this benchmark (op ~0.44 s).  It crosses exactly one compaction:
# the default policy (delta > 0.5 x base) compacts after 31 batches.
OPS = 36
DC_FRACTION = 0.01
# A set-up (~0.15 s) is far shorter than the episodes of a few seconds in
# which a vCPU of the reference VM runs up to ~70 % slower, so its repeats
# are spread over the run: one before the stream, then one every
# SETUP_EVERY ops.
SETUP_REPS = 9
SETUP_EVERY = OPS // (SETUP_REPS - 1)


def make_inputs(seed: int) -> dict:
    """The stream in arrival order and the query ``dc``; a pure function of
    the seed.  The stand-in's city layout is fixed (as for s1, whose cluster
    centres are); the seed draws the arrival order, so runs differ in what
    arrives when, not in how dense the map is."""
    points = gowalla(n=BASE_N + OPS * BATCH, seed=0).points
    points = points[np.random.default_rng(sub_seed(seed, 2)).permutation(len(points))]
    return {"points": points, "dc": estimate_dc(points[:BASE_N], DC_FRACTION)}


def set_up(points: np.ndarray, dc: float, setups: list, fits: list) -> StreamingDPC:
    """The base fit plus its first exact answer, timed."""
    start = time.perf_counter()
    stream = StreamingDPC()
    stream.add(points[:BASE_N])
    fits.append(time.perf_counter() - start)
    stream.quantities(dc)
    setups.append(time.perf_counter() - start)
    return stream


def run(seed: int, trace: bool) -> Result:
    res = Result(trace)
    deadline = Deadline()
    inp = make_inputs(seed)
    points, dc = inp["points"], inp["dc"]
    tracer = res.tracer
    setups, fits = [], []
    stream = set_up(points, dc, setups, fits)

    # -- the stream ------------------------------------------------------------
    op_ms = {True: [], False: []}
    add_ms, compacting, delta_points = [], [], []
    probes = PhaseProbes()
    q = None
    done = 0
    for i in range(OPS):
        if deadline.passed():
            break
        if i and i % SETUP_EVERY == 0 and len(setups) < SETUP_REPS:
            set_up(points, dc, setups, fits)  # timed and dropped; the stream goes on
        batch = points[BASE_N + i * BATCH : BASE_N + (i + 1) * BATCH]
        traced = trace and i % 2 == 0
        res.attempted += 1
        rebuilds = stream.rebuild_count
        try:
            start = time.perf_counter()
            if traced:
                with tracer.span("op", op=i):
                    with tracer.span("extras.streaming.add"):
                        stream.add(batch)
                    added = time.perf_counter()
                    with tracer.span("extras.streaming.index"):
                        index = stream.index
                    with tracer.span("bench.probe"):
                        before = index.stats().as_dict()
                    with tracer.span("indexes.rho_all"):
                        rho = index.rho_all(dc)
                    with tracer.span("bench.probe"):
                        mid = index.stats().as_dict()
                    with tracer.span("core.DensityOrder"):
                        order = DensityOrder(rho)
                    with tracer.span("indexes.delta_all"):
                        delta, mu = index.delta_all(order)
                    with tracer.span("bench.probe"):
                        after = index.stats().as_dict()
                q = SimpleNamespace(rho=rho, delta=delta, mu=mu)
                probes.add(before, mid, after)
            else:
                stream.add(batch)
                added = time.perf_counter()
                q = stream.quantities(dc)
            op_ms[traced].append((time.perf_counter() - start) * 1e3)
        except Exception as exc:  # an op that raises is a failed op
            res.fail(f"ingest op {i}: {type(exc).__name__}: {exc}")
            q = None
            continue
        done = i + 1
        add_ms.append((added - start) * 1e3)
        compacting.append(stream.rebuild_count > rebuilds)
        delta_points.append(stream.n_buffered)
    res.not_issued("ingest", OPS, res.attempted)
    peak_rss_mb = vm_hwm_kb(os.getpid()) / 1024.0

    # -- correctness: the final state against a fresh fit of all points ------
    n = BASE_N + done * BATCH
    if q is None or not np.array_equal(stream.points(), points[:n]):
        res.fail("final stream state missing or points out of arrival order")
    else:
        fresh = make_index("rtree").fit(points[:n]).quantities(dc)
        field = mismatch(q, fresh)
        if field:
            res.fail(f"final state: {field} differs from a fresh fit")

    all_ms = op_ms[True] + op_ms[False]
    res.notes.update(ops=len(all_ms), dc=dc, setup_s=[round(s, 4) for s in setups],
                     compactions=int(sum(compacting)))
    if not trace:
        res.set_end_to_end(setups, peak_rss_mb, all_ms, sum(all_ms) / 1e3)
        return res

    spans = tracer.spans
    n_traced = len(op_ms[True])
    plain_add = [ms for ms, c in zip(add_ms, compacting) if not c]
    compact_add = [ms for ms, c in zip(add_ms, compacting) if c]
    res.set_layers(
        fit_s=statistics.median(fits),
        memory_mb=stream.index.memory_bytes() / 2**20,
        split=layer_split(spans),
        probes=probes.per_op(n_traced),
        traced_ms=op_ms[True],
        untraced_ms=op_ms[False],
    )
    res.detail.update({
        "indexes.rho_ms.rtree": mean_self_ms(spans, "indexes.rho_all", n_traced),
        "indexes.delta_ms.rtree": mean_self_ms(spans, "indexes.delta_all", n_traced),
        "extras.streaming.add_ms": statistics.mean(add_ms),
        "extras.streaming.compact_ms":
            statistics.mean(compact_add) - statistics.median(plain_add) if compact_add else 0.0,
        "extras.streaming.compactions": len(compact_add),
        "extras.streaming.delta_points": statistics.mean(delta_points),
        **probes.tree_detail("rtree", n_traced),
    })
    return res
