"""Unit tests for the two CLIs (python -m repro, python -m repro.harness)."""

import numpy as np
import pytest

from repro.__main__ import build_parser
from repro.__main__ import main as repro_main
from repro.harness.__main__ import main as harness_main


class TestClusterCommand:
    def test_default_index_is_kdtree(self):
        # ``ch`` keeps the full N-list: O(n^2) memory is no default.
        for command in ("cluster", "serve"):
            assert build_parser().parse_args([command]).index == "kdtree"

    def test_builtin_dataset(self, capsys):
        code = repro_main(
            [
                "cluster", "--dataset", "s1", "--profile", "test",
                "--index", "kdtree", "--dc", "30000", "--n-centers", "15",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "clusters: 15" in out
        assert "decision graph" in out

    def test_csv_input_and_output(self, tmp_path, capsys, blobs):
        inp = tmp_path / "points.csv"
        outp = tmp_path / "labels.txt"
        np.savetxt(inp, blobs, delimiter=",")
        code = repro_main(
            [
                "cluster", "--input", str(inp), "--index", "rtree",
                "--dc", "0.5", "--n-centers", "3", "--out", str(outp),
            ]
        )
        assert code == 0
        labels = np.loadtxt(outp)
        assert len(labels) == len(blobs)
        assert set(np.unique(labels)) == {0.0, 1.0, 2.0}

    def test_auto_dc_and_centers(self, tmp_path, capsys, blobs):
        inp = tmp_path / "points.csv"
        np.savetxt(inp, blobs, delimiter=",")
        code = repro_main(["cluster", "--input", str(inp), "--index", "grid"])
        assert code == 0
        assert "clusters:" in capsys.readouterr().out

    def test_halo_flag(self, capsys):
        code = repro_main(
            [
                "cluster", "--dataset", "s1", "--profile", "test",
                "--index", "rtree", "--dc", "30000", "--halo",
            ]
        )
        assert code == 0
        assert "halo objects:" in capsys.readouterr().out

    def test_rn_index_with_tau(self, capsys):
        code = repro_main(
            [
                "cluster", "--dataset", "s1", "--profile", "test",
                "--index", "rn-list", "--tau", "100000", "--dc", "30000",
            ]
        )
        assert code == 0

    def test_both_input_and_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            repro_main(
                ["cluster", "--input", "x.csv", "--dataset", "s1"]
            )

    def test_neither_input_rejected(self):
        with pytest.raises(SystemExit):
            repro_main(["cluster"])

    def test_info(self, capsys):
        assert repro_main(["info"]) == 0
        out = capsys.readouterr().out
        assert "rtree" in out and "gowalla" in out


class TestHarnessCli:
    def test_single_experiment(self, capsys):
        code = harness_main(["fig9b", "--profile", "test", "--datasets", "birch"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 9b" in out
        assert "[fig9b:" in out

    def test_chart_flag(self, capsys):
        code = harness_main(
            ["fig9b", "--profile", "test", "--datasets", "birch", "--chart"]
        )
        assert code == 0
        assert "█" in capsys.readouterr().out

    def test_csv_export(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code = harness_main(
            ["fig9b", "--profile", "test", "--datasets", "birch", "--csv", str(path)]
        )
        assert code == 0
        assert path.exists()
        assert "memory_mb" in path.read_text().splitlines()[0]

    def test_ablation_target(self, capsys):
        code = harness_main(["ablation-dimensionality", "--profile", "test"])
        assert code == 0
        assert "dimensionality" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            harness_main(["fig99"])
