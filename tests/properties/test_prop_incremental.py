"""Incremental-maintenance bit-identity properties.

The ``add_points`` contract: an index grown by ``add_points`` answers every
query **bit-identically** to a fresh fit over the concatenated points — at
every moment.  The tree and grid families refit over the combined points;
the list and CH indexes merge the batch into their sorted N-List rows
instead of paying their ``O(n²)`` build again.  Either way the grown index
must be indistinguishable from a scratch build in ρ, δ, μ, labels and halo.
The corpora mirror the bulk-build suite: duplicates (δ ties at distance 0),
an integer lattice (ρ/coordinate ties), mixed.
"""

import numpy as np
import pytest

from repro.datasets.loaders import load_dataset
from repro.extras import StreamingDPC
from repro.indexes.persist import export_index_image
from repro.indexes.registry import INDEX_CLASSES, make_index

from tests.conftest import safe_dc

#: Families whose append refits.
REFIT_SPECS = {
    "kdtree": {"leaf_size": 8},
    "quadtree": {"capacity": 8},
    "rtree": {"max_entries": 6},
    "grid": {"cell_size": 0.75},
}

#: Families that merge the batch into their N-List rows.
MERGING_SPECS = {
    "list": {},
    "ch": {"default_bins": 32},
}

ALL_SPECS = {**REFIT_SPECS, **MERGING_SPECS}

#: Families that repair a stored answer after an append (the others
#: recompute it).
TREE_SPECS = {name: REFIT_SPECS[name] for name in ("kdtree", "quadtree", "rtree")}

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


class TestAppendBitIdentity:
    """Grown vs fresh fit over family × metric × corpus × tie-break."""

    @pytest.mark.parametrize("corpus_name", CORPORA)
    @pytest.mark.parametrize("metric", RECT_METRICS)
    @pytest.mark.parametrize("index_name", sorted(ALL_SPECS))
    def test_quantities_bit_identical_after_appends(
        self, index_name, metric, corpus_name
    ):
        points = corpus(corpus_name)
        dc = safe_dc(points)
        inc = grown(index_name, points, metric)
        ref = fresh(index_name, points, metric)
        for tie_break in ("id", "strict"):
            assert_identical_quantities(
                inc.quantities(dc, tie_break=tie_break),
                ref.quantities(dc, tie_break=tie_break),
                context=f"[{index_name}/{metric}/{corpus_name}/{tie_break}]",
            )

    @pytest.mark.parametrize("corpus_name", CORPORA)
    @pytest.mark.parametrize("metric", RECT_METRICS)
    @pytest.mark.parametrize("index_name", sorted(TREE_SPECS))
    def test_repaired_quantities_bit_identical(self, index_name, metric, corpus_name):
        """The tree families' repair (``quantities_after_append``) of the
        answer before each batch is a fresh fit's answer, and it never
        falls back to the full computation."""
        points = corpus(corpus_name)
        dc = safe_dc(points)
        cut = int(len(points) * 0.6)
        inc = make_index(index_name, metric=metric, **ALL_SPECS[index_name])
        inc.fit(points[:cut])
        answers = {tb: inc.quantities(dc, tie_break=tb) for tb in ("id", "strict")}

        def full_run(*args, **kwargs):
            raise AssertionError("the repair ran the full computation")

        inc.quantities = full_run
        for i, chunk in enumerate(np.array_split(points[cut:], 2)):
            inc.add_points(chunk)
            ref = fresh(index_name, points[: inc.n], metric)
            for tie_break, prev in answers.items():
                answers[tie_break] = inc.quantities_after_append(prev, len(prev))
                assert_identical_quantities(
                    answers[tie_break],
                    ref.quantities(dc, tie_break=tie_break),
                    context=f"[{index_name}/{metric}/{corpus_name}/{tie_break}/batch {i}]",
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

    @pytest.mark.parametrize("tie_break", ("id", "strict"))
    @pytest.mark.parametrize("index_name", sorted(INDEX_CLASSES))
    def test_stream_equals_fresh_fit_after_every_batch(self, index_name, tie_break):
        """Every registered family, through ``StreamingDPC``: each answer
        after each batch, at two cut-offs, is a fresh fit's."""
        spec = {**ALL_SPECS, "rn-list": {"tau": 2.0}, "rn-ch": {"tau": 2.0}}[index_name]
        points = corpus("mixed")
        dcs = [safe_dc(points, f) for f in (0.15, 0.4)]
        stream = StreamingDPC(index_factory=lambda: make_index(index_name, **spec))
        for i, chunk in enumerate(np.array_split(points, 5)):
            stream.add(chunk)
            ref = make_index(index_name, **spec).fit(stream.points())
            for dc in dcs:
                assert_identical_quantities(
                    stream.quantities(dc, tie_break),
                    ref.quantities(dc, tie_break),
                    context=f"[{index_name}/{tie_break}/batch {i}/dc={dc}]",
                )

    @pytest.mark.parametrize("index_name", sorted(ALL_SPECS))
    def test_single_point_trickle(self, index_name):
        """One-point adds — the degenerate ingest every family must survive."""
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
    """The API contract around appends, not just the answers."""

    @pytest.mark.parametrize("index_name", sorted(ALL_SPECS))
    def test_export_holds_one_segment(self, index_name):
        points = corpus("mixed")
        inc = grown(index_name, points)
        meta, arrays = export_index_image(inc)
        assert meta["segments"] == [inc.n] == [len(points)]
        assert len(arrays["points"]) == inc.n

    @pytest.mark.parametrize("index_name", sorted(MERGING_SPECS))
    def test_stream_batches_ingest_without_a_build(self, index_name, monkeypatch):
        """Five 100-point batches ingest without one ``_build`` call: list
        and ch merge them into every N-List.  A refit per batch would
        answer the same, at the cost of a whole O(n²) build each time (at
        4,000 points their fit and five merges take 5-8 s and 0.6 GB on a
        2-vCPU VM, so they ingest into a 400-point fit).  The tree and grid
        families refit by design: their builds take milliseconds."""
        base_n = 400
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

    @pytest.mark.parametrize("index_name", sorted(ALL_SPECS))
    def test_snapshot_copy_isolated_from_later_ingest(self, index_name):
        points = corpus("mixed")
        dc = safe_dc(points)
        cut = int(len(points) * 0.7)
        live = make_index(index_name, **ALL_SPECS[index_name]).fit(points[:cut])
        live.add_points(points[cut : cut + 5])
        frozen = live.snapshot_copy()
        before = frozen.quantities(dc)
        live.add_points(points[cut + 5 :])
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
        assert inc.fingerprint() != fp_base
        # Grown or fresh, the same points make the same content.
        assert inc.fingerprint() == fresh(index_name, points).fingerprint()

    @pytest.mark.parametrize("index_name", sorted(ALL_SPECS))
    def test_persist_roundtrip_after_appends(self, index_name, tmp_path):
        from repro.indexes.persist import load_index, save_index

        points = corpus("mixed")
        dc = safe_dc(points)
        inc = grown(index_name, points)
        path = str(tmp_path / f"{index_name}.npz")
        save_index(inc, path)
        restored = load_index(path)
        assert restored.fingerprint() == inc.fingerprint()
        assert_identical_quantities(
            restored.quantities(dc),
            inc.quantities(dc),
            context=f"[{index_name}/persist]",
        )
