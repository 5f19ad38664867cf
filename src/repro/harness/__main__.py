"""CLI: regenerate any paper table/figure.

Usage::

    python -m repro.harness fig5                 # one experiment
    python -m repro.harness all --profile test   # everything, small scale
    python -m repro.harness fig10 --datasets birch range --csv out.csv
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.harness import EXPERIMENTS
from repro.harness.charts import CHART_SPECS, chart_table
from repro.harness.runner import DEFAULT_MEMORY_BUDGET_MB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument("--profile", default="bench", choices=("test", "bench", "large"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--datasets", nargs="*", default=None, help="restrict to these datasets"
    )
    parser.add_argument(
        "--memory-budget-mb",
        type=float,
        default=DEFAULT_MEMORY_BUDGET_MB,
        help="budget deciding where full list indexes are feasible",
    )
    parser.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        help="add multi-core columns (sharded process backend) to the "
        "experiments that support them (fig5, fig6-batched)",
    )
    parser.add_argument("--csv", default=None, help="also write the table as CSV")
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render the result as an ASCII bar chart too",
    )
    args = parser.parse_args(argv)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        func = EXPERIMENTS[name]
        kwargs = {"profile": args.profile, "seed": args.seed, "datasets": args.datasets}
        if "memory_budget_mb" in func.__code__.co_varnames:
            kwargs["memory_budget_mb"] = args.memory_budget_mb
        if "n_jobs" in func.__code__.co_varnames:
            kwargs["n_jobs"] = args.n_jobs
        started = time.perf_counter()
        table = func(**kwargs)
        elapsed = time.perf_counter() - started
        print(table.render())
        if args.chart and name in CHART_SPECS:
            print()
            print(chart_table(table, **CHART_SPECS[name]))
        print(f"[{name}: {len(table)} rows in {elapsed:.1f}s]\n")
        if args.csv:
            path = args.csv if len(names) == 1 else f"{name}_{args.csv}"
            table.to_csv(path)
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
