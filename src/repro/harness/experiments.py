"""Experiment definitions — one function per paper table/figure.

Every function returns a :class:`~repro.harness.tables.Table` whose rows
mirror the rows/series the paper reports; the CLI
(``python -m repro.harness <experiment>``) renders them.  Dataset sizes
follow the chosen profile (DESIGN.md §3): absolute times differ from the
paper's C++ testbed, the *shape* (who wins, rough factors, crossovers) is
the reproduction target recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.core.assignment import assign_labels
from repro.core.decision import select_centers_auto, select_centers_top_k
from repro.datasets.base import Dataset
from repro.datasets.loaders import PAPER_DATASETS, load_dataset
from repro.harness.runner import (
    DEFAULT_MEMORY_BUDGET_MB,
    MethodSpec,
    full_list_bytes,
    list_index_fits,
    paper_methods,
    time_naive,
    time_quantities,
    time_quantities_multi,
)
from repro.harness.tables import Table
from repro.indexes.ch_index import CHIndex
from repro.indexes.list_index import ListIndex
from repro.indexes.quadtree import QuadtreeIndex
from repro.indexes.rn_list import RNCHIndex, RNListIndex
from repro.indexes.rtree import RTreeIndex
from repro.metrics.pair_metrics import pairwise_precision_recall_f1

__all__ = [
    "fig5_running_time",
    "table3_memory",
    "table4_construction",
    "fig6_dc_sweep",
    "fig6_dc_sweep_batched",
    "fig7_binwidth_sweep",
    "fig8_tau_sweep",
    "fig9a_w_memory",
    "fig9b_tau_memory",
    "fig10_quality",
    "serving_throughput",
    "EXPERIMENTS",
]


def _datasets(
    names: Optional[Sequence[str]], profile: str, seed: int, default: Sequence[str]
) -> List[Dataset]:
    return [load_dataset(name, profile=profile, seed=seed) for name in (names or default)]


#: The four datasets of the τ / w studies (paper §5.3.2–5.4).
APPROX_DATASETS = ("birch", "range", "brightkite", "gowalla")


def fig5_running_time(
    profile: str = "bench",
    seed: int = 0,
    memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB,
    datasets: Optional[Sequence[str]] = None,
    n_jobs: int = 1,
) -> Table:
    """Figure 5: query (ρ+δ) running time of every method on every dataset.

    List/CH/DPC rows are absent for datasets whose full N-List (or distance
    matrix) exceeds the memory budget — the paper's missing bars.

    ``n_jobs > 1`` adds multi-core columns: the same (ρ+δ) run re-timed on
    the sharded ``process`` backend (:mod:`repro.indexes.parallel`), whose
    results are bit-identical to the serial columns by contract.
    """
    table = Table(
        "Figure 5 — running time (s), one (rho+delta) run at the dataset's dc",
        ["dataset", "n", "dc", "method", "seconds", "rho_seconds", "delta_seconds",
         "fit_seconds", "par_seconds", "par_speedup", "note"],
    )
    for ds in _datasets(datasets, profile, seed, PAPER_DATASETS):
        dc = ds.params.dc_default
        for method in paper_methods(
            ds, memory_budget_mb, include_naive=True, skip_unfit_lists=True
        ):
            if method.factory is None:
                _, seconds = time_naive(ds.points, dc)
                table.add_row(
                    dataset=ds.name, n=ds.n, dc=dc, method="DPC",
                    seconds=seconds, note="baseline",
                )
            else:
                index = method.build(ds.points)
                _, timing = time_quantities(index, dc)
                par_seconds = par_speedup = None
                if n_jobs > 1:
                    index.set_execution(backend="process", n_jobs=n_jobs)
                    try:
                        # Warm-up: fork the pool and publish the shard image
                        # once, so the column reports steady-state query
                        # latency rather than one-time start-up cost.
                        index.quantities(dc)
                        _, par = time_quantities(index, dc)
                        par_seconds = par.total_seconds
                        if par_seconds > 0:
                            par_speedup = timing.total_seconds / par_seconds
                    finally:
                        index.set_execution(backend="serial")
                table.add_row(
                    dataset=ds.name, n=ds.n, dc=dc, method=method.label,
                    seconds=timing.total_seconds,
                    rho_seconds=timing.rho_seconds,
                    delta_seconds=timing.delta_seconds,
                    fit_seconds=index.build_seconds,
                    par_seconds=par_seconds,
                    par_speedup=par_speedup,
                    note="approx (tau*)" if method.approximate else None,
                )
    return table


def table3_memory(
    profile: str = "bench",
    seed: int = 0,
    memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB,
    datasets: Optional[Sequence[str]] = None,
) -> Table:
    """Table 3: index memory (MB); '*' rows are the τ*-truncated list indexes."""
    table = Table(
        "Table 3 — memory usage by index (MB)",
        ["dataset", "n", "method", "memory_mb", "approx"],
    )
    for ds in _datasets(datasets, profile, seed, PAPER_DATASETS):
        for method in paper_methods(ds, memory_budget_mb, include_naive=False):
            index = method.build(ds.points)
            table.add_row(
                dataset=ds.name, n=ds.n, method=method.label,
                memory_mb=index.memory_bytes() / 2**20,
                approx=method.approximate,
            )
    return table


def table4_construction(
    profile: str = "bench",
    seed: int = 0,
    memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB,
    datasets: Optional[Sequence[str]] = None,
) -> Table:
    """Table 4: construction time (s).

    Following the paper, the CH row reports only the *extra* time to build
    the histograms on top of the List Index (measured as the difference of
    the two full builds).
    """
    table = Table(
        "Table 4 — construction time of each index (s)",
        ["dataset", "n", "method", "seconds", "approx"],
    )
    for ds in _datasets(datasets, profile, seed, PAPER_DATASETS):
        list_seconds: Optional[float] = None
        for method in paper_methods(ds, memory_budget_mb, include_naive=False):
            index = method.build(ds.points)
            seconds = index.build_seconds
            if method.label == "List Index":
                list_seconds = seconds
            elif method.label == "CH Index" and list_seconds is not None:
                seconds = max(seconds - list_seconds, 0.0)
            table.add_row(
                dataset=ds.name, n=ds.n, method=method.label,
                seconds=seconds, approx=method.approximate,
            )
    return table


def fig6_dc_sweep(
    profile: str = "bench",
    seed: int = 0,
    memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB,
    datasets: Optional[Sequence[str]] = None,
) -> Table:
    """Figure 6: running time vs dc (the 5 panel values plus L = largest).

    Expected shape: list-based flat in dc; trees grow with dc then collapse
    at L, where the root is fully contained and every ρ is answered in O(1).
    """
    table = Table(
        "Figure 6 — running time (s) vs dc",
        ["dataset", "n", "dc", "is_L", "method", "seconds", "rho_seconds", "delta_seconds"],
    )
    for ds in _datasets(datasets, profile, seed, PAPER_DATASETS):
        methods = paper_methods(ds, memory_budget_mb, include_naive=False)
        built = [(m, m.build(ds.points)) for m in methods]
        dcs = [(float(v), False) for v in ds.params.dc_grid]
        dcs.append((ds.diameter_upper_bound(), True))
        for dc, is_largest in dcs:
            for method, index in built:
                _, timing = time_quantities(index, dc)
                table.add_row(
                    dataset=ds.name, n=ds.n, dc=dc, is_L=is_largest,
                    method=method.label, seconds=timing.total_seconds,
                    rho_seconds=timing.rho_seconds,
                    delta_seconds=timing.delta_seconds,
                )
    return table


def fig6_dc_sweep_batched(
    profile: str = "bench",
    seed: int = 0,
    memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB,
    datasets: Optional[Sequence[str]] = None,
    n_jobs: int = 1,
) -> Table:
    """The Figure 6 dc grid evaluated as one batched ``quantities_multi`` pass.

    This is the workflow the paper's abstract promises ("the whole
    clustering process which probably involves trying many dc can be
    substantially shortened") measured end to end: per method, the whole
    dc grid against the one built index, batched vs. the per-dc loop.

    ``n_jobs > 1`` adds a multi-core column: the same batched sweep on the
    sharded ``process`` backend, which shards the full ``(dc, chunk)`` task
    grid over workers (results bit-identical to the serial sweep).
    """
    table = Table(
        "Figure 6 (batched) — whole dc grid per method, one quantities_multi pass",
        ["dataset", "n", "n_dcs", "method", "batched_seconds", "sequential_seconds",
         "speedup", "par_seconds", "par_speedup"],
    )
    for ds in _datasets(datasets, profile, seed, PAPER_DATASETS):
        methods = paper_methods(ds, memory_budget_mb, include_naive=False)
        dcs = [float(v) for v in ds.params.dc_grid]
        for method in methods:
            index = method.build(ds.points)
            _, batched = time_quantities_multi(index, dcs)
            sequential = 0.0
            for dc in dcs:
                _, timing = time_quantities(index, dc)
                sequential += timing.total_seconds
            par_seconds = par_speedup = None
            if n_jobs > 1:
                index.set_execution(backend="process", n_jobs=n_jobs)
                try:
                    # Warm-up (pool fork + shard-image publication) so the
                    # column is steady-state latency, not start-up cost.
                    index.quantities(dcs[0])
                    _, par_seconds = time_quantities_multi(index, dcs)
                    if par_seconds > 0:
                        par_speedup = batched / par_seconds
                finally:
                    index.set_execution(backend="serial")
            table.add_row(
                dataset=ds.name, n=ds.n, n_dcs=len(dcs), method=method.label,
                batched_seconds=batched, sequential_seconds=sequential,
                speedup=sequential / batched if batched > 0 else float("inf"),
                par_seconds=par_seconds, par_speedup=par_speedup,
            )
    return table


def fig7_binwidth_sweep(
    profile: str = "bench",
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
) -> Table:
    """Figure 7: CH Index running time vs bin width w, three dc per dataset.

    Expected shape: time grows with w (longer N-List sections to search),
    with dips where dc is an exact multiple of w (the bin density is the
    answer, no search at all).
    """
    table = Table(
        "Figure 7 — CH Index running time (s) vs bin width w",
        ["dataset", "n", "w", "dc", "rho_seconds", "total_seconds"],
    )
    for ds in _datasets(datasets, profile, seed, APPROX_DATASETS):
        params = ds.params
        if params.fig7_dc is None or params.tau_star is None:
            continue
        for w in params.w_grid:
            index = RNCHIndex(tau=params.tau_star, bin_width=float(w)).fit(ds.points)
            for dc in params.fig7_dc:
                _, timing = time_quantities(index, float(dc))
                table.add_row(
                    dataset=ds.name, n=ds.n, w=float(w), dc=float(dc),
                    rho_seconds=timing.rho_seconds,
                    total_seconds=timing.total_seconds,
                )
    return table


def fig8_tau_sweep(
    profile: str = "bench",
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
) -> Table:
    """Figure 8: List vs CH running time as τ varies (dc fixed at §5.4 values).

    Expected shape: time grows with τ (longer RN-Lists); CH is flatter
    because its ρ section length is governed by w, not τ.
    """
    table = Table(
        "Figure 8 — running time (s) vs tau (approximate indexes)",
        ["dataset", "n", "tau", "method", "seconds"],
    )
    for ds in _datasets(datasets, profile, seed, APPROX_DATASETS):
        params = ds.params
        if params.tau_grid is None:
            continue
        dc = params.dc_default
        for tau in params.tau_grid:
            for label, factory in (
                ("List", lambda: RNListIndex(tau=float(tau))),
                ("CH Index", lambda: RNCHIndex(tau=float(tau), bin_width=params.w_default)),
            ):
                index = factory().fit(ds.points)
                _, timing = time_quantities(index, dc)
                table.add_row(
                    dataset=ds.name, n=ds.n, tau=float(tau),
                    method=label, seconds=timing.total_seconds,
                )
    return table


def fig9a_w_memory(
    profile: str = "bench",
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
) -> Table:
    """Figure 9a: memory of the cumulative histograms vs bin width w."""
    table = Table(
        "Figure 9a — CH histogram memory (MB) vs w",
        ["dataset", "n", "w", "histogram_mb"],
    )
    for ds in _datasets(datasets, profile, seed, APPROX_DATASETS):
        params = ds.params
        if params.tau_star is None:
            continue
        for w in params.w_grid:
            index = RNCHIndex(tau=params.tau_star, bin_width=float(w)).fit(ds.points)
            table.add_row(
                dataset=ds.name, n=ds.n, w=float(w),
                histogram_mb=index.histogram_memory_bytes() / 2**20,
            )
    return table


def fig9b_tau_memory(
    profile: str = "bench",
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
) -> Table:
    """Figure 9b: List Index memory vs τ."""
    table = Table(
        "Figure 9b — List Index memory (MB) vs tau",
        ["dataset", "n", "tau", "memory_mb"],
    )
    for ds in _datasets(datasets, profile, seed, APPROX_DATASETS):
        params = ds.params
        if params.tau_grid is None:
            continue
        for tau in params.tau_grid:
            index = RNListIndex(tau=float(tau)).fit(ds.points)
            table.add_row(
                dataset=ds.name, n=ds.n, tau=float(tau),
                memory_mb=index.memory_bytes() / 2**20,
            )
    return table


def fig10_quality(
    profile: str = "bench",
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
) -> Table:
    """Figure 10: clustering quality (pairwise P/R/F1) of the τ-approximate
    List Index against exact DPC, as τ shrinks below dc.

    Expected shape: near-1.0 metrics while dc ≤ τ; collapse once τ < dc.
    """
    table = Table(
        "Figure 10 — quality of the approximate solution vs tau",
        ["dataset", "n", "dc", "tau", "precision", "recall", "f1", "n_centers"],
    )
    for ds in _datasets(datasets, profile, seed, APPROX_DATASETS):
        params = ds.params
        if params.quality_tau_grid is None:
            continue
        dc = params.dc_default
        # Reference clustering G: exact DPC via an exact index.
        exact = RTreeIndex().fit(ds.points)
        q_ref = exact.quantities(dc)
        centers_ref = select_centers_auto(q_ref, min_centers=2)
        k = len(centers_ref)
        labels_ref = assign_labels(q_ref, centers_ref, points=ds.points)
        for tau in params.quality_tau_grid:
            approx = RNListIndex(tau=float(tau)).fit(ds.points)
            q_approx = approx.quantities(dc)
            centers = select_centers_top_k(q_approx, k)
            labels = assign_labels(q_approx, centers, points=ds.points)
            precision, recall, f1 = pairwise_precision_recall_f1(labels_ref, labels)
            table.add_row(
                dataset=ds.name, n=ds.n, dc=dc, tau=float(tau),
                precision=precision, recall=recall, f1=f1, n_centers=k,
            )
    return table


def serving_throughput(
    profile: str = "bench",
    seed: int = 0,
    datasets: Optional[Sequence[str]] = None,
    indexes: Sequence[str] = ("kdtree", "grid"),
    clients: int = 8,
    requests_per_client: int = 16,
) -> Table:
    """Serving-layer dispatch comparison (not a paper figure — a scale-up).

    Closed-loop clients issue ``cluster`` requests drawn from the dataset's
    ``dc`` grid against a :class:`~repro.serving.service.ClusteringService`,
    once with per-request serial dispatch and once with coalesced dispatch
    through the multi-``dc`` kernels; the cache is disabled so the numbers
    measure dispatch, not memoisation.  Expected shape: coalescing wins
    whenever concurrency > 1, because a batch of distinct cut-offs shares
    one flattened-image engine run.
    """
    from repro.serving.loadgen import run_load
    from repro.serving.service import ClusteringService

    table = Table(
        "Serving — closed-loop throughput, serial vs coalesced dispatch",
        [
            "dataset", "n", "index", "dispatch", "clients", "requests",
            "rps", "p50_ms", "p95_ms", "p99_ms", "speedup",
        ],
    )
    for ds in _datasets(datasets, profile, seed, ("s1",)):
        dcs = [float(v) for v in ds.params.dc_grid]
        for index_name in indexes:
            serial_rps = None
            for dispatch in ("serial", "coalesce"):
                with ClusteringService(dispatch=dispatch, cache_entries=0) as service:
                    service.fit_snapshot("bench", ds.points, index=index_name)
                    report = run_load(
                        service, "bench", dcs,
                        clients=clients, requests_per_client=requests_per_client,
                        op="cluster", use_cache=False, seed=seed,
                    )
                if dispatch == "serial":
                    serial_rps = report.throughput_rps
                table.add_row(
                    dataset=ds.name, n=ds.n, index=index_name, dispatch=dispatch,
                    clients=clients, requests=report.requests,
                    rps=report.throughput_rps,
                    p50_ms=report.latency_ms["p50"],
                    p95_ms=report.latency_ms["p95"],
                    p99_ms=report.latency_ms["p99"],
                    speedup=(
                        None if serial_rps is None else report.throughput_rps / serial_rps
                    ),
                )
    return table


#: CLI name → experiment function (ablations are appended on import to
#: avoid a circular dependency with repro.harness.ablations).
EXPERIMENTS = {
    "fig5": fig5_running_time,
    "table3": table3_memory,
    "table4": table4_construction,
    "fig6": fig6_dc_sweep,
    "fig6-batched": fig6_dc_sweep_batched,
    "fig7": fig7_binwidth_sweep,
    "fig8": fig8_tau_sweep,
    "fig9a": fig9a_w_memory,
    "fig9b": fig9b_tau_memory,
    "fig10": fig10_quality,
    "serving": serving_throughput,
}
