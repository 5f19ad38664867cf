"""The benchmark scripts outside perfbench must run end to end and append
sane records."""

import json
import sys

import pytest


@pytest.fixture(scope="module")
def parallel_module():
    sys.path.insert(0, "benchmarks")
    try:
        import bench_parallel_scaling
    finally:
        sys.path.pop(0)
    return bench_parallel_scaling


def test_parallel_scaling_record_shape(parallel_module):
    record = parallel_module.run(n=250, jobs=(2,), indexes=("kdtree", "grid"))
    assert record["benchmark"] == "parallel_scaling"
    assert record["usable_cpus"] >= 1
    assert set(record["methods"]) == {"kdtree", "grid"}
    for row in record["methods"].values():
        assert row["serial_seconds"] > 0.0
        cell = row["parallel"]["2"]
        assert cell["seconds"] > 0.0 and cell["speedup"] > 0.0


def test_parallel_scaling_appends_records(parallel_module, tmp_path):
    out = tmp_path / "BENCH_parallel.json"
    argv = ["--quick", "--n", "250", "--indexes", "kdtree", "--out", str(out)]
    parallel_module.main(argv)
    parallel_module.main(argv)
    records = json.loads(out.read_text())
    assert isinstance(records, list) and len(records) == 2
    assert all(r["benchmark"] == "parallel_scaling" for r in records)


@pytest.fixture(scope="module")
def serving_module():
    sys.path.insert(0, "benchmarks")
    try:
        import bench_serving_load
    finally:
        sys.path.pop(0)
    return bench_serving_load


def test_serving_load_record_shape(serving_module):
    record = serving_module.run(
        n=250, clients=3, requests_per_client=4, dc_count=3, indexes=("kdtree",)
    )
    assert record["benchmark"] == "serving_load"
    row = record["methods"]["kdtree"]
    for mode in ("serial", "coalesce", "warm_cache"):
        report = row[mode]
        assert report["requests"] == 12
        assert report["errors"] == 0
        assert report["throughput_rps"] > 0.0
        for pct in ("p50", "p95", "p99"):
            assert report["latency_ms"][pct] > 0.0
    assert row["coalesce_speedup"] > 0.0
    # The warm-cache round must actually have hit the cache.
    assert row["warm_cache"]["cache_hits"] == 12


def test_serving_load_appends_records(serving_module, tmp_path):
    out = tmp_path / "BENCH_serving.json"
    argv = [
        "--quick", "--n", "250", "--indexes", "kdtree",
        "--requests", "3", "--clients", "2", "--out", str(out),
    ]
    serving_module.main(argv)
    serving_module.main(argv)
    records = json.loads(out.read_text())
    assert isinstance(records, list) and len(records) == 2
    assert all(r["benchmark"] == "serving_load" for r in records)
