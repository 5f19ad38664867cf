"""Error paths and file-format robustness of index persistence."""

import json
import os

import numpy as np
import pytest

from repro.indexes.kdtree import KDTreeIndex
from repro.indexes.persist import CorruptSnapshotError, load_index, save_index


@pytest.fixture
def saved(tmp_path, blobs):
    path = str(tmp_path / "index.npz")
    save_index(KDTreeIndex().fit(blobs), path)
    return path


def _rewrite_meta(path, mutate):
    with np.load(path, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files if k != "meta"}
        meta = json.loads(str(data["meta"]))
    mutate(meta)
    np.savez_compressed(path, meta=json.dumps(meta), **arrays)


class TestLoadErrors:
    def test_wrong_version_rejected(self, saved):
        _rewrite_meta(saved, lambda m: m.update(format_version=99))
        with pytest.raises(ValueError, match="unsupported index file version"):
            load_index(saved)

    @pytest.mark.parametrize("name", ["btree", "partitioned"])
    def test_unknown_index_type_rejected(self, saved, name):
        # A wrong file, not a corrupt one: a typed ValueError, no quarantine.
        _rewrite_meta(saved, lambda m: m.update(index_name=name))
        with pytest.raises(ValueError, match="unknown index type") as excinfo:
            load_index(saved)
        assert not isinstance(excinfo.value, CorruptSnapshotError)
        assert os.path.exists(saved)
        assert not os.path.exists(saved + ".corrupt")

    def test_not_an_index_file(self, tmp_path):
        path = str(tmp_path / "random.npz")
        np.savez(path, data=np.zeros(3))
        with pytest.raises(KeyError):
            load_index(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(str(tmp_path / "nope.npz"))


class TestCorruptionAndAtomicity:
    """Crash-mid-save and bitrot: typed errors, quarantine, atomic rename."""

    def test_truncated_file_raises_corrupt_snapshot_error(self, saved):
        """A payload cut short by a crash mid-write must fail with a clear
        typed error, not whatever numpy/zipfile internals happen to throw."""
        size = os.path.getsize(saved)
        with open(saved, "r+b") as fh:
            fh.truncate(size // 2)
        with pytest.raises(CorruptSnapshotError, match="truncated or corrupt"):
            load_index(saved)
        # the bad payload was quarantined: retries fail clean
        assert not os.path.exists(saved)
        assert os.path.exists(saved + ".corrupt")
        with pytest.raises(FileNotFoundError):
            load_index(saved)

    def test_quarantine_opt_out_leaves_file(self, saved):
        with open(saved, "r+b") as fh:
            fh.truncate(os.path.getsize(saved) // 2)
        with pytest.raises(CorruptSnapshotError) as info:
            load_index(saved, quarantine=False)
        assert info.value.quarantined_to is None
        assert os.path.exists(saved)

    def test_corrupt_snapshot_error_is_a_value_error(self):
        assert issubclass(CorruptSnapshotError, ValueError)

    def test_save_is_atomic_over_existing_payload(self, saved, tmp_path, blobs):
        """Overwriting a snapshot goes through rename: at no point does the
        target hold a partial payload, and no temp files are left behind."""
        before = load_index(saved, quarantine=False).fingerprint()
        save_index(KDTreeIndex(leaf_size=4).fit(blobs), saved)
        after = load_index(saved, quarantine=False).fingerprint()
        assert after != before  # different params ⇒ different content
        assert sorted(os.listdir(tmp_path)) == ["index.npz"]

    def test_save_appends_npz_suffix_like_numpy(self, tmp_path, blobs):
        """The atomic path must keep np.savez's suffix behaviour: a bare
        path gains .npz, so pre-existing callers find their files."""
        save_index(KDTreeIndex().fit(blobs), str(tmp_path / "bare"))
        assert os.path.exists(tmp_path / "bare.npz")
        assert load_index(str(tmp_path / "bare.npz")).is_fitted


class TestGeographicEndToEnd:
    """Haversine + list index on check-in coordinates: real-world km radii."""

    def test_haversine_dpc_pipeline(self):
        rng = np.random.default_rng(8)
        # Two 'cities' ~340 km apart (roughly London / Paris) in (lat, lon).
        london = rng.normal([51.5, -0.13], [0.05, 0.08], size=(60, 2))
        paris = rng.normal([48.86, 2.35], [0.05, 0.08], size=(60, 2))
        points = np.concatenate([london, paris])
        from repro.indexes.list_index import ListIndex

        index = ListIndex(metric="haversine").fit(points)
        result = index.cluster(dc=20.0, n_centers=2)  # 20 km radius
        labels = result.labels
        assert (labels[:60] == labels[0]).all()
        assert (labels[60:] == labels[60]).all()
        assert labels[0] != labels[60]

    def test_haversine_rho_is_km_radius_count(self):
        # Points 111 km apart along a meridian: 1 degree latitude.
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        from repro.indexes.list_index import ListIndex

        index = ListIndex(metric="haversine").fit(points)
        np.testing.assert_array_equal(index.rho_all(120.0), [1, 2, 1])
        np.testing.assert_array_equal(index.rho_all(100.0), [0, 0, 0])
