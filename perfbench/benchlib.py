"""Arithmetic and plumbing shared by the perfbench workloads.

Everything here is the benchmark's own code: percentile rules, the span
recorder used by traced runs, process-tree memory and CPU-steal readings
from ``/proc``, the seeded input generators, and the result line.  The
program under test is only ever reached through its public API (``repro``)
or its command line.  The benchmark uses none of the program's own load
generator, span recorder or exposition parser, so a change to the program
cannot change how the program is measured.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Run records, traces and server logs land here (ignored by git).
OUT_DIR = os.path.join(ROOT, ".perfbench")
SHM = "/dev/shm"

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

#: A tail percentile must leave at least this many samples above it.
TAIL_BEYOND = 10

#: Environment variables that pin BLAS / OpenMP thread pools.
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# -- percentiles -----------------------------------------------------------------


def p50(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile that still has :data:`TAIL_BEYOND` samples
    above it.

    Returns ``(value, level_pct, n)``: ``value`` is the ``(TAIL_BEYOND+1)``-th
    largest sample, whose nearest-rank percentile level is
    ``100 * (n - TAIL_BEYOND) / n``.  With ``TAIL_BEYOND`` or fewer samples no
    such percentile exists and the maximum is returned at level 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 1 - TAIL_BEYOND]), 100.0 * (n - TAIL_BEYOND) / n, n


def overhead_pct(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """Tracing overhead: traced minus untraced p50, as a share of untraced."""
    base = p50(untraced)
    return 100.0 * (p50(traced) - base) / base


# -- spans -----------------------------------------------------------------------


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    op: Optional[int]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    Spans nest per thread (a span's parent is the innermost open span of the
    same thread) unless a parent id is passed, which is how concurrent
    client requests hang under one phase span.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(
        self, name: str, op: Optional[int] = None, parent: Optional[int] = None
    ) -> Iterator[Optional[int]]:
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(Span(span_id, name, time.perf_counter_ns(), 0, parent, op))
        stack.append(span_id)
        try:
            yield span_id
        finally:
            stack.pop()
            self.spans[span_id].end_ns = time.perf_counter_ns()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([s.__dict__ for s in self.spans], fh)


def union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0
    cur_start: Optional[int] = None
    cur_end = 0
    for start, end in sorted(intervals):
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Per span: its duration minus the union of its children's intervals
    (clipped to the span), in nanoseconds."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            lo, hi = max(s.start_ns, parent.start_ns), min(s.end_ns, parent.end_ns)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return {s.id: s.duration_ns - union_length(children.get(s.id, ())) for s in spans}


def mean_self_ms(spans: Sequence[Span], name: str, per_ops: int) -> float:
    """Total self time of the spans called ``name``, per op, in ms."""
    selfs = self_times(spans)
    return sum(selfs[s.id] for s in spans if s.name == name) / 1e6 / per_ops


#: Layers an op is split into, by the first dotted part of a span's name.
#: ``bench`` spans are the benchmark's own probe reads inside an op.
SPLIT_LAYERS = ("indexes", "core", "bench")


def layer_split(spans: Sequence[Span], op_name: str = "op") -> Dict[str, float]:
    """Mean per op span called ``op_name``, in ms: the self time of its
    descendants in the ``indexes`` and in the ``core`` layer, and ``outer``,
    the op's duration minus every ``indexes``, ``core`` and ``bench`` self
    time under it (the layers above the index, such as a streaming layer)."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}

    def under_op(span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if by_id[parent].name == op_name:
                return True
            parent = by_id[parent].parent
        return False

    ops = [s for s in spans if s.name == op_name]
    if not ops:
        raise ValueError(f"no {op_name!r} spans")
    totals = dict.fromkeys(SPLIT_LAYERS, 0)
    for s in spans:
        layer = s.name.split(".", 1)[0]
        if layer in totals and under_op(s):
            totals[layer] += selfs[s.id]
    per_op = {layer: ns / 1e6 / len(ops) for layer, ns in totals.items()}
    op_ms = sum(s.duration_ns for s in ops) / 1e6 / len(ops)
    return {
        "indexes": per_op["indexes"],
        "core": per_op["core"],
        "outer": op_ms - sum(per_op.values()),
    }


# -- probe counters ----------------------------------------------------------------

#: Counters summed into one work figure per op: the program's own
#: ``IndexStats.total_work`` recipe, fixed here so that a change to the
#: program cannot change how its work is counted.
WORK_COUNTERS = ("distance_evals", "objects_scanned", "nodes_visited", "binary_searches")

#: Tree-family probe counters reported per op, by phase.
TREE_PROBES = (
    ("rho", "distance_evals"),
    ("rho", "nodes_visited"),
    ("delta", "distance_evals"),
    ("delta", "objects_scanned"),
    ("delta", "nodes_visited"),
)


class PhaseProbes:
    """Exact ``stats()`` deltas of an index, summed per phase."""

    def __init__(self) -> None:
        self.totals: Dict[str, int] = {}

    def add_phase(self, phase: str, before: dict, after: dict) -> None:
        for key in before:
            name = f"{phase}.{key}"
            self.totals[name] = self.totals.get(name, 0) + after[key] - before[key]

    def add(self, before: dict, mid: dict, after: dict) -> None:
        """Counters read before ``rho_all``, between it and ``delta_all``,
        and after ``delta_all``."""
        self.add_phase("rho", before, mid)
        self.add_phase("delta", mid, after)

    def per_op(self, ops: int) -> Dict[str, float]:
        """The two counters every family moves, over all phases, per op."""
        def total(keys):
            return sum(v for k, v in self.totals.items() if k.split(".", 1)[1] in keys)

        return {
            "probes.total_work": total(WORK_COUNTERS) / ops,
            "probes.objects_scanned": total(("objects_scanned",)) / ops,
        }

    def tree_detail(self, family: str, ops: int) -> Dict[str, float]:
        """The ρ/δ split of a tree family, per op."""
        t = self.totals
        out = {f"probes.{ph}.{key}.{family}": t[f"{ph}.{key}"] / ops for ph, key in TREE_PROBES}
        out[f"probes.rho.contained_ratio.{family}"] = t["rho.nodes_contained"] / t["rho.nodes_visited"]
        pruned = t["delta.nodes_pruned_density"] + t["delta.nodes_pruned_distance"]
        out[f"probes.delta.prune_ratio.{family}"] = pruned / (pruned + t["delta.nodes_visited"])
        return out


# -- /proc readings --------------------------------------------------------------


def _ppid(stat_text: str) -> int:
    # "pid (comm) state ppid ..."; comm may itself hold spaces or ')'.
    return int(stat_text[stat_text.rindex(")") + 2 :].split()[1])


def process_tree(root: int, proc: str = "/proc") -> List[int]:
    """``root`` and every live descendant of it."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir(proc):
        if not entry.isdigit():
            continue
        try:
            with open(os.path.join(proc, entry, "stat")) as fh:
                children.setdefault(_ppid(fh.read()), []).append(int(entry))
        except (OSError, ValueError):
            continue  # exited while we looked
    tree, frontier = [root], [root]
    while frontier:
        frontier = [c for p in frontier for c in children.get(p, ())]
        tree.extend(frontier)
    return tree


def vm_hwm_kb(pid: int, proc: str = "/proc") -> int:
    """Peak resident set (``VmHWM``) of one process, in KiB."""
    with open(os.path.join(proc, str(pid), "status")) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise ValueError(f"no VmHWM for pid {pid}")


def tree_peak_rss_mb(root: int, proc: str = "/proc") -> float:
    """Sum of ``VmHWM`` over ``root`` and its descendants, in MiB."""
    total = 0
    for pid in process_tree(root, proc):
        try:
            total += vm_hwm_kb(pid, proc)
        except (OSError, ValueError):
            continue  # a descendant that exited holds no memory now
    return total / 1024.0


def shm_segments(pids: Iterable[int], proc: str = "/proc") -> List[str]:
    """Names of the ``/dev/shm`` entries that ``pids`` have mapped."""
    names = set()
    for pid in pids:
        try:
            with open(os.path.join(proc, str(pid), "maps")) as fh:
                lines = fh.read().splitlines()
        except OSError:
            continue  # exited while we looked
        for line in lines:
            # address perms offset device inode [path]
            fields = line.split(maxsplit=5)
            if len(fields) == 6 and fields[5].startswith(SHM + "/"):
                names.add(fields[5][len(SHM) + 1 :].removesuffix(" (deleted)"))
    return sorted(names)


def cpu_times(proc: str = "/proc") -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` as integers."""
    with open(os.path.join(proc, "stat")) as fh:
        for line in fh:
            if line.startswith("cpu "):
                return [int(v) for v in line.split()[1:]]
    raise ValueError("no cpu line in /proc/stat")


def steal_pct(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of non-idle CPU time taken by steal between two readings.

    Fields: user nice system idle iowait irq softirq steal ...
    """
    d = [a - b for a, b in zip(after, before)]
    busy = d[0] + d[1] + d[2] + d[5] + d[6] + d[7]
    return 100.0 * d[7] / busy if busy > 0 else 0.0


# -- seeded inputs ---------------------------------------------------------------


def sub_seed(seed: int, stream: int) -> int:
    """A derived integer seed: one independent stream per input."""
    return int(np.random.default_rng([seed, stream]).integers(2**31 - 1))


#: Cut-offs are drawn in shuffled blocks of this many equal log-range slices.
STRATA = 8


def log_uniform_dcs(rng: np.random.Generator, lo: float, hi: float, count: int) -> np.ndarray:
    """``count`` cut-offs, log-uniform on ``[lo, hi]``.

    Drawn in shuffled blocks of :data:`STRATA` (one draw per equal slice of
    the log range), so every run covers the range evenly and the per-run p50
    does not hinge on a lucky draw.
    """
    out: List[float] = []
    span = math.log(hi / lo)
    while len(out) < count:
        u = (rng.permutation(STRATA) + rng.random(STRATA)) / STRATA
        out.extend(lo * np.exp(u * span))
    return np.asarray(out[:count], dtype=np.float64)


# -- results -----------------------------------------------------------------------


def mismatch(got, want, fields: Sequence[str] = ("rho", "delta", "mu")) -> Optional[str]:
    """The first field whose arrays differ bit-for-bit, or ``None``."""
    for field in fields:
        a, b = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
        if a.shape != b.shape or not np.array_equal(a, b):
            return field
    return None


RESULT_FIELDS = ("rho", "delta", "mu", "centers", "labels")


#: No op is issued later than this after a workload starts, so a run ends
#: well inside its time limit even on a pathologically slow program.  Every
#: op the deadline cuts off counts as failed (:meth:`Result.not_issued`).
DEADLINE_S = 75.0


class Deadline:
    """Hard stop for issuing new ops, :data:`DEADLINE_S` from creation."""

    def __init__(self) -> None:
        self.at = time.perf_counter() + DEADLINE_S

    def passed(self) -> bool:
        return time.perf_counter() > self.at


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_metric(name: str, unit: str, value: float) -> None:
    if not NAME_RE.match(name):
        raise ValueError(f"bad metric name {name!r}")
    if not UNIT_RE.match(unit):
        raise ValueError(f"bad unit {unit!r} for {name}")
    if not math.isfinite(value):
        raise ValueError(f"{name} is not finite: {value}")


class Result:
    """What one workload run measured, checked and failed.

    Every workload reports the same metrics (the contract of
    ``BENCHMARK.json``): :meth:`set_end_to_end` for its one gated op class,
    :meth:`set_layers` for the split of that op in a traced run.  What only
    one workload has (the ρ/δ split, the serving and streaming layers, cache
    hits) goes into :attr:`detail`, which is printed and recorded beside the
    result but is not part of it.
    """

    def __init__(self, trace: bool):
        self.values: Dict[str, float] = {}
        self.detail: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.notes: Dict[str, object] = {}
        self.tracer = Tracer(trace)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def not_issued(self, what: str, planned: int, issued: int) -> None:
        """Ops a phase planned but never issued (the deadline cut it short)
        count as attempted and failed, so such a run cannot read correct."""
        missing = planned - issued
        if missing > 0:
            self.attempted += missing
            self.failed += missing
            self.failures.append(f"{what}: {missing} of {planned} ops not issued")

    def set(self, name: str, value: float) -> None:
        self.values[name] = float(value)

    def set_tail(self, name: str, samples_ms: Sequence[float],
                 into: Optional[Dict[str, float]] = None) -> None:
        """A tail metric, with its level and sample count kept for printing."""
        value, level, n = tail(samples_ms)
        (self.values if into is None else into)[name] = value
        self.notes[name] = f"p{level:.1f} of {n} samples"

    def set_end_to_end(self, setups_s: Sequence[float], peak_rss_mb: float,
                       op_ms: Sequence[float], busy_s: float) -> None:
        """The gated metrics: the median set-up, peak RSS, the p50 and tail of
        the op latencies, and the ops completed per second of ``busy_s``,
        the wall time the ops took."""
        self.set("setup_s", statistics.median(setups_s))
        self.set("peak_rss_mb", peak_rss_mb)
        self.set("op_p50_ms", p50(op_ms))
        self.set_tail("op_tail_ms", op_ms)
        self.set("ops_per_s", len(op_ms) / busy_s)

    def set_layers(self, *, fit_s: float, memory_mb: float, split: Dict[str, float],
                   probes: Dict[str, float], traced_ms: Sequence[float],
                   untraced_ms: Sequence[float]) -> None:
        """The per-layer metrics of a traced run, per op of the gated class
        (``bench.steal_pct`` is added by the runner)."""
        self.set("indexes.fit_s", fit_s)
        self.set("indexes.memory_mb", memory_mb)
        self.set("outer.self_ms", split["outer"])
        self.set("indexes.self_ms", split["indexes"])
        self.set("core.self_ms", split["core"])
        for name, value in probes.items():
            self.set(name, value)
        self.set("bench.trace_overhead_pct", overhead_pct(traced_ms, untraced_ms))

    def line(self, units: Dict[str, str]) -> str:
        """The result line; ``units`` names every metric it must hold."""
        missing = sorted(set(units) - set(self.values))
        extra = sorted(set(self.values) - set(units))
        if missing or extra:
            raise KeyError(f"metrics missing {missing}, not in BENCHMARK.json {extra}")
        metrics = {}
        for name, unit in units.items():
            value = self.values[name]
            check_metric(name, unit, value)
            metrics[name] = {"value": value, "unit": unit}
        return json.dumps(
            {
                "correct": self.failed == 0 and self.attempted > 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": metrics,
            }
        )


def provenance(seed: int, steal: float) -> dict:
    """Identity and noise record of one run (recorded, never used to filter)."""
    from repro.obs.provenance import provenance_block

    return {
        **provenance_block(),
        "seed": seed,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "steal_pct": steal,
    }
