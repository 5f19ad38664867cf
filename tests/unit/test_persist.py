"""Unit tests for index persistence (save_index / load_index)."""

import json

import numpy as np
import pytest

from repro.indexes.ch_index import CHIndex
from repro.indexes.grid import GridIndex
from repro.indexes.kdtree import KDTreeIndex
from repro.indexes.list_index import ListIndex
from repro.indexes.persist import (
    CorruptSnapshotError,
    export_index_image,
    index_fingerprint,
    load_index,
    save_index,
)
from repro.indexes.quadtree import QuadtreeIndex
from repro.indexes.registry import INDEX_CLASSES, make_index
from repro.indexes.rn_list import RNCHIndex, RNListIndex
from repro.indexes.rtree import RTreeIndex

from tests.conftest import assert_quantities_equal

ALL_FACTORIES = [
    pytest.param(lambda: ListIndex(scan_block=16), id="list"),
    pytest.param(lambda: CHIndex(bin_width=0.4), id="ch"),
    pytest.param(lambda: RNListIndex(tau=2.0), id="rn-list"),
    pytest.param(lambda: RNCHIndex(tau=2.0, bin_width=0.25), id="rn-ch"),
    pytest.param(lambda: QuadtreeIndex(capacity=16), id="quadtree"),
    pytest.param(lambda: RTreeIndex(max_entries=8), id="rtree"),
    pytest.param(lambda: KDTreeIndex(leaf_size=8), id="kdtree"),
    pytest.param(lambda: GridIndex(cell_size=0.6), id="grid"),
]


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_roundtrip_answers_identically(factory, blobs, tmp_path):
    path = str(tmp_path / "index.npz")
    original = factory().fit(blobs)
    save_index(original, path)
    restored = load_index(path)
    assert type(restored) is type(original)
    for dc in (0.3, 0.9):
        assert_quantities_equal(
            original.quantities(dc), restored.quantities(dc)
        )


def test_list_state_restored_not_rebuilt(blobs, tmp_path):
    path = str(tmp_path / "list.npz")
    original = ListIndex().fit(blobs)
    save_index(original, path)
    restored = load_index(path)
    np.testing.assert_array_equal(original.neighbor_ids, restored.neighbor_ids)
    np.testing.assert_array_equal(original.neighbor_dists, restored.neighbor_dists)
    assert restored.build_seconds == original.build_seconds  # copied, not re-timed


@pytest.mark.parametrize(
    "factory",
    [
        pytest.param(lambda: CHIndex(), id="ch-auto-w"),
        pytest.param(lambda: RNCHIndex(tau=2.0), id="rn-ch-auto-w"),
    ],
)
def test_auto_bin_width_roundtrip(factory, blobs, tmp_path):
    """Auto-w histograms were built with the *resolved* width; a restored
    index must query with that width, while the configured value stays
    auto so a later refit re-resolves it."""
    path = str(tmp_path / "auto.npz")
    original = factory().fit(blobs)
    save_index(original, path)
    restored = load_index(path)
    assert restored.bin_width is None
    assert restored.bin_width_ == original.bin_width_
    for dc in (0.3, 0.9):
        assert_quantities_equal(original.quantities(dc), restored.quantities(dc))


def test_params_roundtrip(blobs, tmp_path):
    path = str(tmp_path / "rt.npz")
    original = RTreeIndex(max_entries=6, packing="dynamic", frontier="stack").fit(blobs)
    save_index(original, path)
    restored = load_index(path)
    assert restored.max_entries == 6
    assert restored.packing == "dynamic"
    assert restored.frontier == "stack"


def test_rnch_big_delta_preserved(blobs, tmp_path):
    path = str(tmp_path / "rn.npz")
    original = RNListIndex(tau=0.3).fit(blobs)
    save_index(original, path)
    restored = load_index(path)
    assert restored._big_delta == original._big_delta
    q1 = original.quantities(0.2)
    q2 = restored.quantities(0.2)
    np.testing.assert_array_equal(q1.delta, q2.delta)


def test_unfitted_index_rejected(tmp_path):
    with pytest.raises(ValueError, match="unfitted"):
        save_index(ListIndex(), str(tmp_path / "x.npz"))


def test_metric_preserved(tmp_path, rng):
    pts = rng.normal(size=(60, 2))
    path = str(tmp_path / "manhattan.npz")
    original = KDTreeIndex(metric="manhattan").fit(pts)
    save_index(original, path)
    restored = load_index(path)
    assert restored.metric.name == "manhattan"
    assert_quantities_equal(original.quantities(1.0), restored.quantities(1.0))


#: ``index_fingerprint`` of every registered family over :func:`_pin_corpus`.
#: A saved ``.npz`` stores its fingerprint and a load re-verifies it, and the
#: serving cache keys on it: if the recipe drifts, every saved file fails its
#: check (and is quarantined) and every cached result is re-keyed.  Change a
#: value here only together with ``_FINGERPRINT_VERSION``.
PINNED_FINGERPRINTS = {
    "ch": "af8e167551c937734e8cc3c70fe46d31f77b6d72a629466eba6d536a1054670d",
    "grid": "f17fdcb0ef4dc3ff126ef33815d2fcc624bfccec468a6ad9f797d31a20a622db",
    "kdtree": "191faba4ebafece084560f38ea9531e63b4753763e6302c1f7f8aadb5db3d75f",
    "list": "31490dfa5ec1726e8c0c28a899d19c6be9c225d304b9cd4c2d2751d72f1102cc",
    "quadtree": "b1626832de22b788a827609ff90c60461a7f1e6309552e609b7e84a590fcf025",
    "rn-ch": "b11afba024bbec7aa1c63e868d35651433b42fe64213dd0ebeb47306c284fd8b",
    "rn-list": "574aa4cc12b1a901e44eea1e97481cae7927872a8cfcfc57745d0a262e95e5c2",
    "rtree": "4e628318cbc331518bf1a8f9d8effb4c5f320e4d2d3da05de1d2c438446a11a0",
}

#: Constructor params of the pinned fits; explicit bin widths and cell size
#: keep the fit-resolved params exact.
PIN_PARAMS = {
    "ch": {"bin_width": 0.5},
    "rn-list": {"tau": 2.0},
    "rn-ch": {"tau": 2.0, "bin_width": 0.25},
    "grid": {"cell_size": 1.5},
}


#: Fingerprints of :func:`_pin_corpus` fitted on its first 40 points with
#: the last 8 appended, as saved while appends went to a delta segment
#: (``segments == [40, 8]``; the grid's auto cell size resolved on the 40).
PINNED_SEGMENTED = {
    "grid": "8bfdf544164c918dc81bb94f534668588623d56d1b541c17de47f56ac995c86f",
    "kdtree": "9989e9b6aa1dc3a68860b5fa65a4d88de9db7da7a7be3b591a79dc5ac74b1afd",
}


def _save_two_segment_payload(name, points, base_n, fingerprint, path):
    """Write a payload in the two-segment layout: the export of a fit over
    the base points (its flat image and fit-resolved params), with all the
    points and ``segments == [base_n, len(points) - base_n]``."""
    meta, arrays = export_index_image(make_index(name).fit(points[:base_n]))
    meta["segments"] = [base_n, len(points) - base_n]
    meta["fingerprint"] = fingerprint
    arrays = {**arrays, "points": points}
    np.savez_compressed(path, meta=json.dumps(meta), **arrays)


def _pin_corpus() -> np.ndarray:
    """48 points with dyadic coordinates: exact arithmetic, no RNG."""
    i = np.arange(48, dtype=np.float64)
    return np.column_stack([(i * 7) % 13 / 4 + i / 64, (i * 5) % 11 / 2 - i / 32])


class TestFingerprintPinned:
    """The fingerprint recipe itself, pinned per family (see above)."""

    def test_every_registered_family_is_pinned(self):
        assert set(PINNED_FINGERPRINTS) == set(INDEX_CLASSES)

    @pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
    def test_family_fingerprint_pinned(self, name):
        index = make_index(name, **PIN_PARAMS.get(name, {})).fit(_pin_corpus())
        assert index_fingerprint(index) == PINNED_FINGERPRINTS[name]

    @pytest.mark.parametrize("name", sorted(PINNED_SEGMENTED))
    def test_segmented_fingerprint_pinned(self, name, tmp_path):
        """A payload saved while an index kept its last 8 points in a delta
        segment loads: it verifies against the fingerprint pinned for that
        layout, then refits all its points and answers like a fresh fit."""
        points = _pin_corpus()
        path = str(tmp_path / f"{name}.npz")
        _save_two_segment_payload(name, points, 40, PINNED_SEGMENTED[name], path)
        restored = load_index(path, quarantine=False)
        fresh = make_index(name).fit(points)
        assert restored.n == len(points)
        assert restored.fingerprint() == fresh.fingerprint()
        for dc in (0.5, 1.0, 2.0):
            assert_quantities_equal(fresh.quantities(dc), restored.quantities(dc))

    def test_segmented_payload_verifies_its_points(self, tmp_path):
        points = _pin_corpus()
        points[45, 0] += 0.25  # the stored fingerprint no longer matches
        path = str(tmp_path / "kdtree.npz")
        _save_two_segment_payload(
            "kdtree", points, 40, PINNED_SEGMENTED["kdtree"], path
        )
        with pytest.raises(CorruptSnapshotError, match="fingerprint mismatch"):
            load_index(path, quarantine=False)


def _save_dense_payload(name, points, fingerprint, path):
    """Write a List or CH payload in the dense layout: the complete N-Lists
    as ``(n, n-1)`` matrices ``state_neighbor_ids`` / ``state_neighbor_dists``
    in place of the CSR rows, with ``fingerprint`` stored."""
    index = make_index(name, **PIN_PARAMS.get(name, {})).fit(points)
    meta, arrays = export_index_image(index)
    arrays = {k: v for k, v in arrays.items() if k not in ("state_offsets", "state_ids", "state_dists")}
    arrays["state_neighbor_ids"] = index.neighbor_ids
    arrays["state_neighbor_dists"] = index.neighbor_dists
    hist = [attr for attr in meta["state_attrs"] if attr.startswith("_hist")]
    meta["state_attrs"] = ["_neighbor_ids", "_neighbor_dists"] + hist
    meta["fingerprint"] = fingerprint
    np.savez_compressed(path, meta=json.dumps(meta), **arrays)


class TestDenseLayoutPayload:
    """List and CH payloads saved while their N-Lists were dense matrices."""

    @pytest.mark.parametrize("name", ["list", "ch"])
    def test_restores_bit_identically(self, name, tmp_path):
        points = _pin_corpus()
        path = str(tmp_path / f"{name}.npz")
        _save_dense_payload(name, points, PINNED_FINGERPRINTS[name], path)
        restored = load_index(path, quarantine=False)
        fresh = make_index(name, **PIN_PARAMS.get(name, {})).fit(points)
        # Set on load only when the stored fingerprint verified.
        assert restored._fingerprint_ == PINNED_FINGERPRINTS[name]
        for attr in ("_offsets", "_ids", "_dists", "_hist_offsets", "_hist_values"):
            if hasattr(fresh, attr):
                expected = getattr(fresh, attr)
                assert getattr(restored, attr).dtype == expected.dtype
                np.testing.assert_array_equal(getattr(restored, attr), expected)
        for dc in (0.5, 1.0, 2.0):
            assert_quantities_equal(fresh.quantities(dc), restored.quantities(dc))
        assert_quantities_equal(
            fresh.quantities_multi([0.5, 2.0])[1], restored.quantities_multi([0.5, 2.0])[1]
        )

    @pytest.mark.parametrize("name", ["list", "ch"])
    def test_verifies_its_points(self, name, tmp_path):
        points = _pin_corpus()
        points[45, 0] += 0.25  # the stored fingerprint no longer matches
        path = str(tmp_path / f"{name}.npz")
        _save_dense_payload(name, points, PINNED_FINGERPRINTS[name], path)
        with pytest.raises(CorruptSnapshotError, match="fingerprint mismatch"):
            load_index(path, quarantine=False)


class TestFingerprint:
    """The content fingerprint the serving cache keys on (index_fingerprint)."""

    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_roundtrip_preserves_fingerprint(self, factory, blobs, tmp_path):
        path = str(tmp_path / "fp.npz")
        original = factory().fit(blobs)
        save_index(original, path)
        restored = load_index(path)
        assert restored.fingerprint() == original.fingerprint()

    def test_deterministic_across_refits(self, blobs):
        a = KDTreeIndex(leaf_size=8).fit(blobs)
        b = KDTreeIndex(leaf_size=8).fit(blobs.copy())
        assert a.fingerprint() == b.fingerprint()

    def test_changes_with_points(self, blobs):
        index = KDTreeIndex().fit(blobs)
        before = index.fingerprint()
        shifted = blobs.copy()
        shifted[0, 0] += 1e-9  # a single-ulp-ish nudge must change identity
        index.fit(shifted)
        assert index.fingerprint() != before

    def test_changes_with_params(self, blobs):
        a = KDTreeIndex(leaf_size=8).fit(blobs)
        b = KDTreeIndex(leaf_size=16).fit(blobs)
        assert a.fingerprint() != b.fingerprint()

    def test_differs_between_index_families(self, blobs):
        a = KDTreeIndex().fit(blobs)
        b = QuadtreeIndex().fit(blobs)
        assert a.fingerprint() != b.fingerprint()

    def test_unfitted_rejected(self):
        from repro.indexes.persist import index_fingerprint

        with pytest.raises(ValueError, match="unfitted"):
            index_fingerprint(ListIndex())
        with pytest.raises(RuntimeError, match="not fitted"):
            ListIndex().fingerprint()

    def test_stored_in_payload_and_verified(self, blobs, tmp_path):
        import json

        path = str(tmp_path / "fp.npz")
        original = CHIndex(bin_width=0.4).fit(blobs)
        save_index(original, path)
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
        assert meta["fingerprint"] == original.fingerprint()

    def test_tampered_payload_rejected(self, blobs, tmp_path):
        import json

        path = str(tmp_path / "fp.npz")
        save_index(KDTreeIndex().fit(blobs), path)
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            arrays = {k: data[k] for k in data.files if k != "meta"}
        arrays["points"] = arrays["points"] + 1.0  # tamper with the data
        np.savez_compressed(path, meta=json.dumps(meta), **arrays)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            load_index(path)

    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_tampered_points_rejected_for_every_family(self, factory, blobs, tmp_path):
        """Every family's load re-verifies the stored fingerprint, the list
        families that restore precomputed arrays included."""
        import json

        path = str(tmp_path / "fp.npz")
        save_index(factory().fit(blobs), path)
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            arrays = {k: data[k] for k in data.files if k != "meta"}
        arrays["points"] = arrays["points"][::-1].copy()  # same bytes, new order
        np.savez_compressed(path, meta=json.dumps(meta), **arrays)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            load_index(path, quarantine=False)
        assert (tmp_path / "fp.npz").exists()

    def test_execution_backend_irrelevant(self, blobs):
        a = GridIndex().fit(blobs)
        b = GridIndex(backend="threads", n_jobs=2).fit(blobs)
        assert a.fingerprint() == b.fingerprint()
