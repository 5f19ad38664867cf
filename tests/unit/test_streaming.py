"""Unit tests for StreamingDPC (exact clustering over an append-only stream)."""

import numpy as np
import pytest

from repro.core.baseline import naive_quantities
from repro.extras.streaming import MAX_ANSWERS, StreamingDPC
from repro.indexes.kdtree import KDTreeIndex

from tests.conftest import assert_quantities_equal


@pytest.fixture
def stream_batches(rng):
    """Ten batches drifting between two blob regions."""
    batches = []
    for i in range(10):
        center = [0.0, 0.0] if i % 2 == 0 else [5.0, 5.0]
        batches.append(rng.normal(center, 0.4, size=(40, 2)))
    return batches


class TestIngestion:
    def test_counts(self, stream_batches):
        s = StreamingDPC()
        for batch in stream_batches:
            s.add(batch)
        assert s.n == 400

    def test_single_point_add(self):
        s = StreamingDPC()
        s.add(np.array([1.0, 2.0]))
        s.add(np.array([[2.0, 3.0], [3.0, 4.0]]))
        assert s.n == 3

    def test_one_build_and_nothing_buffered(self, stream_batches):
        """Only the first add builds a new index; every later one ingests
        into it, and nothing waits in a buffer."""
        s = StreamingDPC()
        assert s.rebuild_count == 0
        for batch in stream_batches:
            s.add(batch)
            assert s.rebuild_count == 1
            assert s.n_buffered == 0

    def test_dimension_mismatch(self, stream_batches):
        s = StreamingDPC()
        s.add(stream_batches[0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            s.add(np.zeros((3, 3)))

    def test_empty_stream_queries_raise(self):
        s = StreamingDPC()
        with pytest.raises(ValueError, match="empty"):
            s.quantities(0.5)
        with pytest.raises(ValueError, match="empty"):
            s.points()


#: Batches ``fit`` and ``add_points`` reject, whenever they arrive.
REJECTED_ALWAYS = {
    "nan": np.array([[0.0, 0.0], [np.nan, 1.0]]),
    "+inf": np.array([[np.inf, 0.0]]),
    "-inf": np.array([[0.0, -np.inf]]),
    "empty": np.empty((0, 2)),
    "zero-width": np.empty(0),  # one point of width 0 after atleast_2d
}


class TestRejectedBatches:
    """A rejected batch raises ``ValueError`` and leaves no trace: the
    stream's ``n`` and answers stay as they were, and no subscriber is
    called."""

    @pytest.mark.parametrize("name", sorted(REJECTED_ALWAYS))
    def test_first_batch(self, name):
        s = StreamingDPC()
        calls = []
        s.subscribe(calls.append)
        with pytest.raises(ValueError):
            s.add(REJECTED_ALWAYS[name])
        assert s.n == 0
        assert s.index is None
        assert calls == []
        with pytest.raises(ValueError, match="empty"):
            s.quantities(0.5)

    @pytest.mark.parametrize("name", sorted(REJECTED_ALWAYS) + ["wider"])
    def test_later_batch(self, stream_batches, name):
        batch = np.zeros((3, 3)) if name == "wider" else REJECTED_ALWAYS[name]
        s = StreamingDPC()
        s.add(stream_batches[0])
        before = s.quantities(0.5)
        calls = []
        s.subscribe(calls.append)
        with pytest.raises(ValueError):
            s.add(batch)
        assert s.n == len(stream_batches[0])
        assert calls == []
        np.testing.assert_array_equal(s.points(), stream_batches[0])
        assert s.quantities(0.5) is before
        assert_quantities_equal(naive_quantities(stream_batches[0], 0.5), before)


class TestExactness:
    def test_quantities_match_batch_at_every_step(self, stream_batches):
        """The streaming answer equals a from-scratch run after each batch."""
        s = StreamingDPC()
        seen = []
        for batch in stream_batches[:5]:
            s.add(batch)
            seen.append(batch)
            points = s.points()
            expected = naive_quantities(points, 0.8)
            got = s.quantities(0.8)
            assert_quantities_equal(expected, got)

    def test_custom_index_factory(self, stream_batches):
        s = StreamingDPC(index_factory=lambda: KDTreeIndex(leaf_size=8))
        for batch in stream_batches[:3]:
            s.add(batch)
        got = s.quantities(0.8)
        expected = naive_quantities(s.points(), 0.8)
        assert_quantities_equal(expected, got)


class TestStoredAnswers:
    """The stream keeps one answer per (dc, tie_break) and repairs it."""

    @staticmethod
    def full_runs(stream):
        """Count the stream index's full ``quantities`` runs from now on."""
        index = stream._index
        runs = []
        full = index.quantities

        def counted(*args, **kwargs):
            runs.append(index.n)
            return full(*args, **kwargs)

        index.quantities = counted
        return runs

    def test_same_object_while_n_is_unchanged(self, stream_batches):
        s = StreamingDPC()
        s.add(stream_batches[0])
        first = s.quantities(0.8)
        assert s.quantities(0.8) is first
        assert s.quantities(0.8, "strict") is not first  # another key
        s.add(stream_batches[1])
        second = s.quantities(0.8)
        assert second is not first
        assert s.quantities(0.8) is second

    def test_ingest_repairs_the_stored_answer(self, stream_batches):
        s = StreamingDPC()
        s.add(stream_batches[0])
        s.quantities(0.8)
        runs = self.full_runs(s)
        for batch in stream_batches[1:4]:
            s.add(batch)
            assert_quantities_equal(naive_quantities(s.points(), 0.8), s.quantities(0.8))
        assert runs == []

    def test_keeps_at_most_the_cap_of_answers(self, stream_batches):
        """Asked at more cut-offs than the cap, the stream keeps the most
        recently asked ones: those are repaired after an ingest, an
        evicted one runs in full, and every answer is exact."""
        s = StreamingDPC()
        s.add(stream_batches[0])
        dcs = [0.3 + 0.1 * i for i in range(MAX_ANSWERS + 3)]
        for dc in dcs:
            s.quantities(dc)
        assert [dc for dc, _ in s._answers] == dcs[-MAX_ANSWERS:]
        runs = self.full_runs(s)
        s.add(stream_batches[1])
        asks = dcs[-MAX_ANSWERS:] + dcs[:-MAX_ANSWERS]
        for dc in asks:
            want = naive_quantities(s.points(), dc)
            assert_quantities_equal(want, s.quantities(dc))
            assert len(s._answers) <= MAX_ANSWERS
        assert runs == [s.n] * (len(dcs) - MAX_ANSWERS)  # the evicted ones
        assert [dc for dc, _ in s._answers] == asks[-MAX_ANSWERS:]

    def test_prev_must_cover_n_prev_points(self, stream_batches):
        index = KDTreeIndex().fit(stream_batches[0])
        prev = index.quantities(0.8)
        index.add_points(stream_batches[1])
        with pytest.raises(ValueError, match="n_prev"):
            index.quantities_after_append(prev, len(prev) - 1)


class TestClustering:
    def test_cluster_over_stream(self, stream_batches):
        s = StreamingDPC()
        for batch in stream_batches:
            s.add(batch)
        result = s.cluster(0.8, n_centers=2)
        assert result.n_clusters == 2
        sizes = np.bincount(result.labels)
        assert min(sizes) > 150  # both blob regions found

    @pytest.mark.parametrize("tie_break", ["id", "strict"])
    def test_cluster_reuses_the_stored_answer(self, stream_batches, tie_break):
        """After ``quantities(dc)``, ``cluster(dc)`` runs no ρ or δ pass,
        after an ingest it repairs instead of recomputing, and its labels
        equal a full ``index.cluster(dc)`` of a fresh fit either way."""
        s = StreamingDPC()
        for batch in stream_batches[:4]:
            s.add(batch)

        def full_cluster():
            fresh = KDTreeIndex().fit(s.points())
            return fresh.cluster(0.8, n_centers=2, tie_break=tie_break)

        want = full_cluster()
        s.quantities(0.8, tie_break)
        index = s._index
        passes = []
        for name in ("quantities", "rho_all", "delta_all", "quantities_after_append"):
            def spy(*args, _name=name, _real=getattr(index, name), **kwargs):
                passes.append(_name)
                return _real(*args, **kwargs)

            setattr(index, name, spy)
        got = s.cluster(0.8, tie_break=tie_break, n_centers=2)
        assert passes == []
        np.testing.assert_array_equal(got.centers, want.centers)
        np.testing.assert_array_equal(got.labels, want.labels)

        s.add(stream_batches[4])
        want = full_cluster()
        got = s.cluster(0.8, tie_break=tie_break, n_centers=2)
        assert passes == ["quantities_after_append"]
        np.testing.assert_array_equal(got.centers, want.centers)
        np.testing.assert_array_equal(got.labels, want.labels)

    def test_cluster_on_an_empty_stream_raises(self):
        with pytest.raises(ValueError, match="empty"):
            StreamingDPC().cluster(0.5)
