"""Tests for the benchmark's own arithmetic (not for the program it measures).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import benchlib  # noqa: E402
from benchlib import Result, Span, Tracer  # noqa: E402


# -- the tail rule ----------------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100, shuffled order must not matter
    np.random.default_rng(0).shuffle(samples)
    value, level, n = benchlib.tail(samples)
    assert value == 90.0 and n == 100 and level == 90.0
    assert sum(s > value for s in samples) == benchlib.TAIL_BEYOND


def test_tail_level_follows_the_sample_count():
    value, level, n = benchlib.tail(range(47))
    assert (value, n) == (36.0, 47)
    assert level == pytest.approx(100 * 37 / 47)


def test_tail_without_enough_samples_is_the_maximum():
    assert benchlib.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        benchlib.tail([])


def test_end_to_end_metrics_record_the_tail_sample_count():
    res = Result(False)
    op_ms = [float(v) for v in range(1, 23)]
    res.set_end_to_end([3.0, 1.0, 2.0], 100.0, op_ms, busy_s=2.0)
    assert res.values["setup_s"] == 2.0
    assert res.values["op_p50_ms"] == 11.5
    assert res.values["op_tail_ms"] == 12.0
    assert res.values["ops_per_s"] == 11.0
    assert res.notes["op_tail_ms"] == "p54.5 of 22 samples"
    detail = {}
    res.set_tail("hit_tail_ms", op_ms, into=detail)
    assert detail == {"hit_tail_ms": 12.0} and "hit_tail_ms" not in res.values


# -- self time ----------------------------------------------------------------------


def _span(i, start, end, parent=None, name="s"):
    return Span(i, name, start, end, parent, None)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(0, 0, 100),
        _span(1, 10, 40, parent=0),
        _span(2, 30, 60, parent=0),  # overlaps child 1: counted once
        _span(3, 90, 120, parent=0),  # sticks out of the parent: clipped
        _span(4, 35, 45, parent=2),  # a grandchild is not the parent's child
    ]
    selfs = benchlib.self_times(spans)
    assert selfs[0] == 100 - (50 + 10)
    assert selfs[2] == 30 - 10
    assert selfs[1] == 30 and selfs[3] == 30 and selfs[4] == 10


def test_union_length_of_disjoint_nested_and_touching_intervals():
    assert benchlib.union_length([]) == 0
    assert benchlib.union_length([(0, 10), (20, 30)]) == 20
    assert benchlib.union_length([(0, 10), (2, 5)]) == 10
    assert benchlib.union_length([(0, 10), (10, 15)]) == 15


def test_tracer_nests_per_thread_and_mean_self_ms_sums_per_op():
    tracer = Tracer(True)
    with tracer.span("op") as op:
        with tracer.span("leaf"):
            pass
    with tracer.span("op"):
        with tracer.span("leaf"):
            pass
    with tracer.span("leaf", parent=op):
        pass
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("op", None), ("leaf", 0), ("op", None), ("leaf", 2), ("leaf", 0)]
    leaves = sum(s.duration_ns for s in tracer.spans if s.name == "leaf")
    assert benchlib.mean_self_ms(tracer.spans, "leaf", 2) == pytest.approx(leaves / 1e6 / 2)
    assert not Tracer(False).spans


def test_layer_split_takes_index_core_and_the_benchmark_out_of_the_op():
    spans = [
        _span(0, 0, 100, name="op"),
        _span(1, 0, 5, parent=0, name="extras.streaming.add"),  # stays outer
        _span(2, 5, 7, parent=0, name="bench.probe"),
        _span(3, 7, 60, parent=0, name="indexes.rho_all"),
        _span(4, 60, 70, parent=0, name="core.DensityOrder"),
        _span(5, 70, 95, parent=0, name="indexes.delta_all"),
        _span(6, 80, 90, parent=5, name="core.nested"),  # a core span inside an index span
        _span(7, 0, 50, name="op"),
        _span(8, 10, 40, parent=7, name="indexes.quantities_multi"),
        _span(9, 0, 1000, name="indexes.rho_all"),  # outside any op: ignored
    ]
    split = benchlib.layer_split(spans)
    # indexes: (53 + 25 - 10) + 30, core: 10 + 10, bench: 2; ops: 100 + 50
    assert split == pytest.approx({"indexes": 98 / 2 / 1e6, "core": 20 / 2 / 1e6,
                                   "outer": (150 - 98 - 20 - 2) / 2 / 1e6})
    with pytest.raises(ValueError):
        benchlib.layer_split(spans, "nothing")


def test_probe_totals_per_phase_and_per_op():
    zero = dict.fromkeys(("distance_evals", "objects_scanned", "nodes_visited",
                          "binary_searches", "nodes_contained", "nodes_pruned_density",
                          "nodes_pruned_distance"), 0)
    mid = dict(zero, distance_evals=10, objects_scanned=4, nodes_visited=8, nodes_contained=2)
    end = dict(mid, distance_evals=16, objects_scanned=10, nodes_visited=12,
               nodes_pruned_density=1, nodes_pruned_distance=3)
    probes = benchlib.PhaseProbes()
    probes.add(zero, mid, end)
    probes.add(zero, mid, end)
    assert probes.per_op(2) == {"probes.total_work": 38.0, "probes.objects_scanned": 10.0}
    detail = probes.tree_detail("kdtree", 2)
    assert detail["probes.rho.distance_evals.kdtree"] == 10.0
    assert detail["probes.delta.objects_scanned.kdtree"] == 6.0
    assert detail["probes.rho.contained_ratio.kdtree"] == 0.25
    assert detail["probes.delta.prune_ratio.kdtree"] == 0.5


# -- /proc readings ----------------------------------------------------------------


def _fake_proc(tmp_path, procs):
    for pid, (ppid, comm, hwm_kb) in procs.items():
        d = tmp_path / str(pid)
        d.mkdir()
        (d / "stat").write_text(f"{pid} ({comm}) S {ppid} {pid} {pid} 0 -1\n")
        (d / "status").write_text(f"Name:\t{comm}\nVmPeak:\t 999999 kB\nVmHWM:\t {hwm_kb} kB\n")
    (tmp_path / "self").mkdir()  # non-numeric entries are skipped
    return str(tmp_path)


def test_peak_rss_sums_vm_hwm_over_the_whole_process_tree(tmp_path):
    proc = _fake_proc(tmp_path, {
        10: (1, "python", 2048),  # the server
        11: (10, "python", 1024),  # a worker
        12: (11, "odd (name) x", 512),  # a grandchild with ')' in its name
        13: (1, "python", 4096),  # unrelated
    })
    assert sorted(benchlib.process_tree(10, proc)) == [10, 11, 12]
    assert benchlib.tree_peak_rss_mb(10, proc) == (2048 + 1024 + 512) / 1024
    assert benchlib.tree_peak_rss_mb(13, proc) == 4.0


def test_shm_segments_are_the_ones_the_process_tree_maps(tmp_path):
    proc = _fake_proc(tmp_path, {20: (1, "python", 1), 21: (20, "python", 1),
                                 22: (1, "python", 1)})
    (tmp_path / "20" / "maps").write_text(
        "7f00-7f10 rw-s 00000000 00:1a 7 /dev/shm/psm_image\n"
        "7f10-7f20 r--p 00000000 fe:00 9 /usr/lib/libc.so.6\n"
        "7f20-7f30 rw-p 00000000 00:00 0 \n"
    )
    (tmp_path / "21" / "maps").write_text(
        "7f00-7f10 r--s 00000000 00:1a 7 /dev/shm/psm_image\n"
        "7f10-7f20 rw-s 00000000 00:1a 8 /dev/shm/psm_old (deleted)\n"
    )
    (tmp_path / "22" / "maps").write_text("7f00-7f10 rw-s 00000000 00:1a 5 /dev/shm/other\n")
    # pid 23 has exited: no maps to read
    assert benchlib.shm_segments([20, 21, 23], proc) == ["psm_image", "psm_old"]


def test_process_tree_finds_a_live_child():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        assert child.pid in benchlib.process_tree(os.getpid())
        assert benchlib.tree_peak_rss_mb(os.getpid()) > benchlib.vm_hwm_kb(os.getpid()) / 1024
    finally:
        child.kill()
        child.wait()


def test_steal_share_of_busy_time():
    before = [100, 0, 50, 1000, 5, 0, 0, 10, 0, 0]
    after = [190, 0, 90, 5000, 9, 5, 5, 20, 0, 0]
    # busy = user 90 + nice 0 + system 40 + irq 5 + softirq 5 + steal 10
    assert benchlib.steal_pct(before, after) == pytest.approx(100 * 10 / 150)
    assert benchlib.steal_pct(before, before) == 0.0


# -- metric names --------------------------------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "indexes.fit_s.kdtree", "9x", "a-b.c_d", "x" * 64])
def test_good_metric_names(name):
    benchlib.check_metric(name, "ms", 1.0)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "a{b}", "x" * 65, "é"])
def test_bad_metric_names(name):
    with pytest.raises(ValueError):
        benchlib.check_metric(name, "ms", 1.0)


@pytest.mark.parametrize("unit,value", [("m s", 1.0), ("x" * 17, 1.0), ("ms", float("nan")),
                                        ("ms", float("inf"))])
def test_bad_units_and_values(unit, value):
    with pytest.raises(ValueError):
        benchlib.check_metric("ok", unit, value)


def test_benchmark_json_names_units_and_bounds():
    spec = benchlib.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    assert len(set(names + [m["name"] for m in metrics])) == len(names) + len(metrics)
    for m in metrics:
        benchlib.check_metric(m["name"], m["unit"], 1.0)
        assert m["better"] in ("lower", "higher")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_seconds_other_than_run_seconds_is_refused(capsys):
    import run

    seconds = benchlib.load_spec()["run_seconds"]
    with pytest.raises(SystemExit) as exit_info:
        run.main(["--workload", "sweep-tree", "--seconds", str(seconds + 1)])
    assert exit_info.value.code == 2
    assert "op counts are fixed" in capsys.readouterr().err


def test_ops_cut_off_by_the_deadline_count_as_attempted_and_failed():
    res = Result(False)
    res.attempted = 30
    res.not_issued("sweep", 30, 30)
    assert (res.attempted, res.failed) == (30, 0)
    res.not_issued("sweep", 131, 30)
    assert (res.attempted, res.failed) == (131, 101)
    assert res.failures == ["sweep: 101 of 131 ops not issued"]
    assert json.loads(res.line({}))["correct"] is False


def test_result_line_carries_units_and_refuses_unknown_metrics():
    res = Result(False)
    res.attempted = 3
    res.set("setup_s", 0.25)
    line = json.loads(res.line({"setup_s": "s"}))
    assert line == {"correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}
    res.fail("boom")
    assert json.loads(res.line({"setup_s": "s"}))["correct"] is False
    with pytest.raises(KeyError):  # a metric of the manifest is missing
        res.line({"setup_s": "s", "peak_rss_mb": "MB"})
    res.set("unlisted", 1.0)
    with pytest.raises(KeyError):
        res.line({"setup_s": "s"})


def test_every_workload_reports_exactly_the_metrics_of_the_manifest():
    spec = benchlib.load_spec()
    plain, traced = Result(False), Result(True)
    plain.attempted = traced.attempted = 1
    plain.set_end_to_end([1.0], 10.0, [5.0, 6.0], busy_s=0.011)
    traced.set_layers(fit_s=1.0, memory_mb=2.0,
                      split={"outer": 1.0, "indexes": 2.0, "core": 3.0},
                      probes={"probes.total_work": 4.0, "probes.objects_scanned": 5.0},
                      traced_ms=[5.0], untraced_ms=[4.0])
    traced.set("bench.steal_pct", 0.5)
    for res, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[kind]}
        assert set(json.loads(res.line(units))["metrics"]) == set(units)


# -- seeded inputs ------------------------------------------------------------------


def test_log_uniform_dcs_cover_every_slice_of_the_range_per_block():
    lo, hi = 2.0, 200.0
    dcs = benchlib.log_uniform_dcs(np.random.default_rng(5), lo, hi, 20)
    assert len(dcs) == 20 and ((dcs >= lo) & (dcs <= hi)).all()
    slices = np.floor(np.log(dcs / lo) / np.log(hi / lo) * benchlib.STRATA).astype(int)
    for block in range(2):
        assert sorted(slices[block * 8 : block * 8 + 8]) == list(range(8))


def _same(a, b):
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert np.array_equal(a[key], b[key]), key
        elif isinstance(a[key], list):
            assert all(np.array_equal(x, y) for x, y in zip(a[key], b[key])), key
        else:
            assert a[key] == b[key], key


def test_a_seed_reproduces_the_same_points_and_dc_sequences():
    import workload_ingest
    import workload_serve
    import workload_sweep

    cases = [
        (workload_sweep.make_tree_inputs, "points", "dcs"),
        (workload_sweep.make_list_inputs, "points", "dcs"),
        (workload_serve.make_inputs, "points", "cold"),
        (workload_ingest.make_inputs, "points", "dc"),
    ]
    for make, points, dcs in cases:
        first, again, other = make(7), make(7), make(8)
        _same(first, again)
        assert not np.array_equal(first[points], other[points])
        assert not np.array_equal(np.asarray(first[dcs]), np.asarray(other[dcs]))
