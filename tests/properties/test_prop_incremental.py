"""Incremental-maintenance bit-identity properties (LSM delta segments).

The delta-segment contract: an index grown by ``add_points`` answers every
query **bit-identically** to a fresh fit over the concatenated points — at
every moment.  With the delta segment live, the kernels merge the
(base, delta) image pair; after ``compact()`` the delta has been folded
into the main image by a sorted merge (Morton for quadtrees, STR re-tiling
for R-trees, per-dim perm merge for kd-trees, CSR append for the grid) —
and both states must be indistinguishable from a scratch build in ρ, δ, μ,
labels and halo.  The corpora mirror the bulk-build suite: duplicates
(δ ties at distance 0), an integer lattice (ρ/coordinate ties), mixed.
"""

import numpy as np
import pytest

from repro.datasets.loaders import load_dataset
from repro.indexes.registry import make_index
from repro.serving.snapshots import SnapshotStore

from tests.conftest import safe_dc

#: Families with a real delta segment between compactions.
SEGMENTED_SPECS = {
    "kdtree": {"leaf_size": 8},
    "quadtree": {"capacity": 8},
    "rtree": {"max_entries": 6},
    "grid": {"cell_size": 0.75},
}

#: Families that merge on append (delta_size stays 0, still incremental).
MERGING_SPECS = {
    "list": {},
    "ch": {"default_bins": 32},
}

ALL_SPECS = {**SEGMENTED_SPECS, **MERGING_SPECS}

RECT_METRICS = ("euclidean", "sqeuclidean", "manhattan", "chebyshev")

CORPORA = ("duplicates", "rho-ties", "mixed")


def corpus(name: str) -> np.ndarray:
    r = np.random.default_rng(hash(name) % (2**32))
    if name == "duplicates":
        base = r.normal(0.0, 1.0, size=(24, 2))
        return np.concatenate([base, base, base[:12], r.normal(2.0, 1.0, size=(20, 2))])
    if name == "rho-ties":
        return r.integers(0, 5, size=(80, 2)).astype(np.float64)
    if name == "mixed":
        blob = r.normal(0.0, 0.6, size=(40, 2))
        dup = r.normal(3.0, 0.5, size=(20, 2)).round(1)
        lattice = r.integers(-2, 2, size=(20, 2)).astype(np.float64)
        return np.concatenate([blob, dup, dup[:10], lattice])
    raise KeyError(name)


def grown(index_name, points, metric="euclidean", split=0.6, batches=2):
    """Fit a prefix, then ingest the rest through ``add_points`` batches."""
    cut = int(len(points) * split)
    index = make_index(index_name, metric=metric, **ALL_SPECS[index_name])
    index.fit(points[:cut])
    for chunk in np.array_split(points[cut:], batches):
        if len(chunk):
            index.add_points(chunk)
    return index


def fresh(index_name, points, metric="euclidean"):
    return make_index(index_name, metric=metric, **ALL_SPECS[index_name]).fit(points)


def assert_identical_quantities(qa, qb, context=""):
    np.testing.assert_array_equal(qa.rho, qb.rho, err_msg=f"rho differs {context}")
    np.testing.assert_array_equal(qa.delta, qb.delta, err_msg=f"delta differs {context}")
    np.testing.assert_array_equal(qa.mu, qb.mu, err_msg=f"mu differs {context}")


class TestDeltaBitIdentity:
    """(base ⊕ delta) vs fresh fit over family × metric × corpus × tie-break."""

    @pytest.mark.parametrize("corpus_name", CORPORA)
    @pytest.mark.parametrize("metric", RECT_METRICS)
    @pytest.mark.parametrize("index_name", sorted(ALL_SPECS))
    def test_quantities_bit_identical_with_delta_live(
        self, index_name, metric, corpus_name
    ):
        points = corpus(corpus_name)
        dc = safe_dc(points)
        inc = grown(index_name, points, metric)
        ref = fresh(index_name, points, metric)
        if index_name in SEGMENTED_SPECS:
            assert inc.delta_size > 0, "delta segment should be live here"
        for tie_break in ("id", "strict"):
            assert_identical_quantities(
                inc.quantities(dc, tie_break=tie_break),
                ref.quantities(dc, tie_break=tie_break),
                context=f"[{index_name}/{metric}/{corpus_name}/{tie_break}/delta]",
            )

    @pytest.mark.parametrize("corpus_name", CORPORA)
    @pytest.mark.parametrize("metric", RECT_METRICS)
    @pytest.mark.parametrize("index_name", sorted(SEGMENTED_SPECS))
    def test_quantities_bit_identical_after_compaction(
        self, index_name, metric, corpus_name
    ):
        points = corpus(corpus_name)
        dc = safe_dc(points)
        inc = grown(index_name, points, metric)
        inc.compact()
        assert inc.delta_size == 0
        ref = fresh(index_name, points, metric)
        for tie_break in ("id", "strict"):
            assert_identical_quantities(
                inc.quantities(dc, tie_break=tie_break),
                ref.quantities(dc, tie_break=tie_break),
                context=f"[{index_name}/{metric}/{corpus_name}/{tie_break}/compacted]",
            )

    @pytest.mark.parametrize("corpus_name", CORPORA)
    @pytest.mark.parametrize("index_name", sorted(ALL_SPECS))
    def test_cluster_labels_and_halo_bit_identical(self, index_name, corpus_name):
        points = corpus(corpus_name)
        dc = safe_dc(points)
        ra = grown(index_name, points).cluster(dc, n_centers=3, halo=True)
        rb = fresh(index_name, points).cluster(dc, n_centers=3, halo=True)
        np.testing.assert_array_equal(ra.labels, rb.labels)
        np.testing.assert_array_equal(ra.centers, rb.centers)
        np.testing.assert_array_equal(ra.halo, rb.halo)

    @pytest.mark.parametrize("index_name", sorted(ALL_SPECS))
    def test_multi_dc_sweep_bit_identical(self, index_name):
        points = corpus("mixed")
        dcs = [safe_dc(points, f) for f in (0.15, 0.3, 0.6)]
        for qa, qb in zip(
            grown(index_name, points).quantities_multi(dcs),
            fresh(index_name, points).quantities_multi(dcs),
        ):
            assert_identical_quantities(qa, qb, context=f"[{index_name}/multi-dc]")

    @pytest.mark.parametrize("index_name", sorted(SEGMENTED_SPECS))
    def test_single_point_trickle(self, index_name):
        """One-point adds — the degenerate ingest the LSM path must survive."""
        points = corpus("duplicates")
        dc = safe_dc(points)
        cut = len(points) - 6
        inc = make_index(index_name, **ALL_SPECS[index_name]).fit(points[:cut])
        for p in points[cut:]:
            inc.add_points(p[None, :])
        assert_identical_quantities(
            inc.quantities(dc),
            fresh(index_name, points).quantities(dc),
            context=f"[{index_name}/trickle]",
        )


class TestIncrementalMechanics:
    """The API contract around the segments, not just the answers."""

    @pytest.mark.parametrize("index_name", sorted(ALL_SPECS))
    def test_segment_lengths_sum_to_n(self, index_name):
        points = corpus("mixed")
        inc = grown(index_name, points)
        segments = inc._segment_lengths()
        assert sum(segments) == inc.n == len(points)
        assert segments[0] == inc.n - inc.delta_size

    @pytest.mark.parametrize("index_name", sorted(ALL_SPECS))
    def test_stream_batches_ingest_without_a_build(self, index_name, monkeypatch):
        """Five 100-point batches ingest without one ``_build`` call: into a
        delta segment for the tree and grid families, by merging every
        N-List for list and ch.  A refit per batch would answer the same,
        at the cost of a whole build each time.  The N-List families hold
        O(n²) rows (at 4,000 points their fit and five merges take 5-8 s
        and 0.6 GB on a 2-vCPU VM), so they ingest into a 400-point fit."""
        base_n = 4000 if index_name in SEGMENTED_SPECS else 400
        points = load_dataset("s1", n=base_n + 500, seed=0).points
        index = make_index(index_name).fit(points[:base_n])
        builds = []
        build = type(index)._build

        def counting_build(self):
            builds.append(self)
            build(self)

        monkeypatch.setattr(type(index), "_build", counting_build)
        for start in range(base_n, base_n + 500, 100):
            index.add_points(points[start : start + 100])
        assert builds == []
        assert index.n == base_n + 500
        assert index.delta_size == (500 if index_name in SEGMENTED_SPECS else 0)

    @pytest.mark.parametrize("index_name", sorted(SEGMENTED_SPECS))
    def test_snapshot_copy_isolated_from_later_ingest(self, index_name):
        points = corpus("mixed")
        dc = safe_dc(points)
        cut = int(len(points) * 0.7)
        live = make_index(index_name, **ALL_SPECS[index_name]).fit(points[:cut])
        live.add_points(points[cut : cut + 5])
        frozen = live.snapshot_copy()
        before = frozen.quantities(dc)
        live.add_points(points[cut + 5 :])
        live.compact()
        # The snapshot still answers for exactly its prefix.
        assert frozen.n == cut + 5
        after = frozen.quantities(dc)
        assert_identical_quantities(before, after, context=f"[{index_name}/snapshot]")
        ref = fresh(index_name, points[: cut + 5])
        assert_identical_quantities(
            after, ref.quantities(dc), context=f"[{index_name}/snapshot-vs-fresh]"
        )

    @pytest.mark.parametrize("index_name", sorted(ALL_SPECS))
    def test_fingerprint_changes_per_ingest_state(self, index_name):
        points = corpus("mixed")
        cut = int(len(points) * 0.7)
        inc = make_index(index_name, **ALL_SPECS[index_name]).fit(points[:cut])
        fp_base = inc.fingerprint()
        inc.add_points(points[cut:])
        fp_delta = inc.fingerprint()
        assert fp_delta != fp_base
        if index_name in SEGMENTED_SPECS:
            # Compaction changes the *layout* (segments enter the recipe),
            # not the content hash inputs alone — the fingerprint moves.
            inc.compact()
            assert inc.fingerprint() != fp_delta

    @pytest.mark.parametrize("index_name", sorted(SEGMENTED_SPECS))
    def test_persist_roundtrip_with_live_delta(self, index_name, tmp_path):
        from repro.indexes.persist import load_index, save_index

        points = corpus("mixed")
        dc = safe_dc(points)
        inc = grown(index_name, points)
        assert inc.delta_size > 0
        path = str(tmp_path / f"{index_name}.npz")
        save_index(inc, path)
        restored = load_index(path)
        assert restored.delta_size == inc.delta_size
        assert restored.fingerprint() == inc.fingerprint()
        assert_identical_quantities(
            restored.quantities(dc),
            inc.quantities(dc),
            context=f"[{index_name}/persist]",
        )

    def test_publish_delta_notifies_with_batch(self):
        points = corpus("mixed")
        cut = int(len(points) * 0.7)
        index = make_index("kdtree", **ALL_SPECS["kdtree"]).fit(points[:cut])
        store = SnapshotStore()
        store.publish("s", index.snapshot_copy())
        swaps, deltas = [], []
        store.subscribe(lambda name, new, old: swaps.append((name, new, old)))
        store.subscribe_deltas(
            lambda name, new, old, pts: deltas.append((name, new, old, pts))
        )
        index.add_points(points[cut:])
        snapshot = store.publish_delta("s", index.snapshot_copy(), points[cut:])
        # Delta publish is a full atomic swap *plus* the batch notification,
        # and delta subscribers run after the swap subscribers.
        assert [s[1] for s in swaps] == [snapshot]
        assert len(deltas) == 1
        name, new, old, pts = deltas[0]
        assert name == "s" and new is snapshot and old is not None
        np.testing.assert_array_equal(pts, points[cut:])
        assert store.get("s") is snapshot
