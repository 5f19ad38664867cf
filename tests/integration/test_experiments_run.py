"""Every harness experiment runs end-to-end at the test profile and produces
tables whose rows carry the paper's expected qualitative shape."""

import numpy as np
import pytest

from repro.harness.experiments import (
    fig5_running_time,
    fig6_dc_sweep,
    fig6_dc_sweep_batched,
    fig7_binwidth_sweep,
    fig8_tau_sweep,
    fig9a_w_memory,
    fig9b_tau_memory,
    fig10_quality,
    table3_memory,
    table4_construction,
)


@pytest.fixture(scope="module")
def small():
    return {"profile": "test", "seed": 0}


def eventually(check, attempts=3):
    """Re-run a wall-clock-shape check a few times before failing.

    Timing comparisons (List vs tree build, etc.) hold by orders of
    magnitude on an idle machine but can flip transiently under heavy CPU
    contention (e.g. parallel benchmark runs).
    """
    last = None
    for _ in range(attempts):
        try:
            check()
            return
        except AssertionError as exc:  # pragma: no cover - contention only
            last = exc
    raise last


class TestFig5:
    def test_rows_and_columns(self, small):
        t = fig5_running_time(**small)
        assert set(t.columns) >= {"dataset", "method", "seconds"}
        assert len(t) >= 24  # 6 datasets x >= 4 methods
        assert all(r["seconds"] >= 0 for r in t.rows)

    def test_list_based_beats_trees_in_query_time(self, small):
        """The paper's headline Figure 5 shape (list-feasible datasets)."""

        def check():
            t = fig5_running_time(**small)
            for ds in ("s1", "query"):
                rows = {r["method"]: r["seconds"] for r in t.where(dataset=ds)}
                assert rows["CH Index"] < rows["R-tree"]
                assert rows["List Index"] < rows["R-tree"]

        eventually(check)


class TestTables34:
    def test_memory_ordering(self, small):
        """Table 3 shape: list-based ≫ tree-based memory."""
        t = table3_memory(**small)
        for ds in set(t.column("dataset")):
            rows = {r["method"]: r["memory_mb"] for r in t.where(dataset=ds)}
            assert rows["List Index"] > 10 * rows["R-tree"]
            assert rows["CH Index"] >= rows["List Index"]

    def test_construction_ordering(self, small):
        """Table 4 shape: trees build much faster than list indexes."""

        def check():
            t = table4_construction(**small)
            for ds in ("s1", "query"):
                rows = {r["method"]: r["seconds"] for r in t.where(dataset=ds)}
                assert rows["R-tree"] < rows["List Index"]
                assert rows["Quadtree"] < rows["List Index"]

        eventually(check)


class TestFig6:
    def test_L_collapse(self, small):
        """Tree running time at dc = L drops to near the minimum (paper 5.3.1)."""
        t = fig6_dc_sweep(**small, datasets=["s1"])
        tree_rows = [r for r in t.rows if r["method"] == "R-tree"]
        by_L = {r["is_L"]: r for r in tree_rows if r["is_L"]}
        normal = [r["rho_seconds"] for r in tree_rows if not r["is_L"]]
        assert by_L[True]["rho_seconds"] <= max(normal)

    def test_all_methods_present(self, small):
        t = fig6_dc_sweep(**small, datasets=["birch"])
        methods = set(t.column("method"))
        assert methods == {"List Index", "CH Index", "R-tree", "Quadtree"}


class TestFig6Batched:
    def test_batched_sweep_rows(self, small):
        t = fig6_dc_sweep_batched(**small, datasets=["s1"])
        assert set(t.columns) >= {
            "dataset", "method", "n_dcs", "batched_seconds", "sequential_seconds", "speedup"
        }
        assert len(t) >= 4  # one row per method
        for r in t.rows:
            assert r["batched_seconds"] > 0
            assert r["n_dcs"] >= 2


class TestFig7:
    def test_covers_w_times_dc(self, small):
        t = fig7_binwidth_sweep(**small, datasets=["birch"])
        assert len(t) == 4 * 3  # w grid x 3 dc values
        assert all(r["rho_seconds"] >= 0 for r in t.rows)


class TestFig8:
    def test_time_grows_with_tau_for_list(self, small):
        t = fig8_tau_sweep(**small, datasets=["birch"])
        rows = [r for r in t.rows if r["method"] == "List"]
        taus = [r["tau"] for r in rows]
        assert taus == sorted(taus)
        assert len(rows) == 3


class TestFig9:
    def test_histogram_memory_decreases_with_w(self, small):
        t = fig9a_w_memory(**small, datasets=["birch", "range"])
        for ds in ("birch", "range"):
            mems = [r["histogram_mb"] for r in t.where(dataset=ds)]
            assert mems == sorted(mems, reverse=True), "larger w -> fewer bins -> less memory"

    def test_list_memory_increases_with_tau(self, small):
        t = fig9b_tau_memory(**small, datasets=["birch", "gowalla"])
        for ds in ("birch", "gowalla"):
            mems = [r["memory_mb"] for r in t.where(dataset=ds)]
            assert mems == sorted(mems), "larger tau -> longer RN-Lists -> more memory"


class TestFig10:
    def test_quality_high_when_tau_covers_dc(self, small):
        t = fig10_quality(**small, datasets=["birch"])
        rows = t.rows
        top_tau = max(r["tau"] for r in rows)
        best = [r for r in rows if r["tau"] == top_tau][0]
        assert best["f1"] > 0.9

    def test_quality_columns_complete(self, small):
        t = fig10_quality(**small, datasets=["birch", "range"])
        for r in t.rows:
            assert 0.0 <= r["precision"] <= 1.0
            assert 0.0 <= r["recall"] <= 1.0
            assert 0.0 <= r["f1"] <= 1.0
        for ds in ("birch", "range"):
            by_tau = sorted(t.where(dataset=ds), key=lambda r: r["tau"])
            assert by_tau[-1]["f1"] >= by_tau[0]["f1"], "largest tau worse than the smallest"
