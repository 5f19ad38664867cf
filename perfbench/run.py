"""The repository benchmark: one command, four closed-loop workloads.

    python3 perfbench/run.py --workload sweep-tree --seed 1 --trace 0

``--workload`` is ``sweep-tree``, ``sweep-list``, ``serve``, ``ingest`` or
``all`` (each workload in a fresh process, one after another).  Each
workload does a fixed number of ops of one class, sized for ``run_seconds``
of ``BENCHMARK.json`` on the reference VM; ``--seconds`` is accepted only
with that value.  With ``--trace 0`` the last line of standard output is one
JSON object with the end-to-end metrics of ``BENCHMARK.json``, which every
workload reports for its own op class; with ``--trace 1`` the same seed
runs with the benchmark's own spans recorded around the public calls, and
the object holds the per-layer metrics.  A traced run also prints a
``detail`` line before it with the layer metrics only its workload has.
Every answer sampled for checking is compared bit for bit; ``correct`` is
false when any op failed or differed.  Run records and span dumps go to
``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import benchlib  # noqa: E402

#: Workload name -> (module, entry point).
WORKLOADS = {
    "sweep-tree": ("workload_sweep", "run_tree"),
    "sweep-list": ("workload_sweep", "run_list"),
    "serve": ("workload_serve", "run"),
    "ingest": ("workload_ingest", "run"),
}


def run_one(workload: str, seed: int, trace: bool) -> int:
    # The program must come from this checkout; without it there is nothing
    # to measure and the import below fails the run.
    import repro  # noqa: F401

    # Keep git (behind the provenance block) from looking above the checkout.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", os.path.dirname(benchlib.ROOT))
    module_name, entry = WORKLOADS[workload]
    run_workload = getattr(__import__(module_name), entry)
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in benchlib.load_spec()[kind]}

    cpu_before = benchlib.cpu_times()
    result = run_workload(seed, trace)
    steal = benchlib.steal_pct(cpu_before, benchlib.cpu_times())
    if trace:
        result.set("bench.steal_pct", steal)

    os.makedirs(benchlib.OUT_DIR, exist_ok=True)
    stem = os.path.join(benchlib.OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}")
    record = {
        "workload": workload,
        "trace": trace,
        "provenance": benchlib.provenance(seed, steal),
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "notes": result.notes,
        "metrics": result.values,
        "detail": result.detail,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if trace:
        result.tracer.dump(stem + "-spans.json")

    for failure in result.failures:
        print(f"FAILED: {failure}")
    print(f"{workload} seed={seed} steal={steal:.2f}% " + " ".join(
        f"{k}=[{v}]" for k, v in result.notes.items() if k.endswith("_tail_ms")))
    if trace:
        print("detail " + json.dumps(result.detail))
    print(result.line(units))
    return 0


def run_all(seed: int, trace: bool) -> int:
    """Each workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--trace", str(int(trace))],
            capture_output=True, text=True, check=True,
        )
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        line = json.loads(lines[-1])
        merged["correct"] &= line["correct"]
        merged["attempted"] += line["attempted"]
        merged["failed"] += line["failed"]
        for name, metric in line["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="must equal run_seconds of BENCHMARK.json, for which "
                             "the op counts are sized")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    run_seconds = benchlib.load_spec()["run_seconds"]
    if args.seconds is not None and args.seconds != run_seconds:
        parser.error(f"--seconds {args.seconds:g}: the op counts are fixed for "
                     f"run_seconds = {run_seconds} of BENCHMARK.json")
    if args.workload == "all":
        return run_all(args.seed, bool(args.trace))
    return run_one(args.workload, args.seed, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
