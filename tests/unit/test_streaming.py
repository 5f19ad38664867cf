"""Unit tests for StreamingDPC (amortised-rebuild streaming clustering)."""

import numpy as np
import pytest

from repro.core.baseline import naive_quantities
from repro.extras.streaming import StreamingDPC
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
        s = StreamingDPC(min_buffer=4)
        s.add(np.array([1.0, 2.0]))
        s.add(np.array([[2.0, 3.0], [3.0, 4.0]]))
        assert s.n == 3

    def test_amortised_rebuild_count(self, stream_batches):
        s = StreamingDPC(rebuild_factor=0.5, min_buffer=16)
        for batch in stream_batches:
            s.add(batch)
        # Geometric rebuilding: far fewer rebuilds than batches.
        assert s.rebuild_count <= 6

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

    def test_validation(self):
        with pytest.raises(ValueError, match="rebuild_factor"):
            StreamingDPC(rebuild_factor=0.0)
        with pytest.raises(ValueError, match="min_buffer"):
            StreamingDPC(min_buffer=0)


class TestExactness:
    def test_quantities_match_batch_at_every_step(self, stream_batches):
        """The streaming answer equals a from-scratch run after each batch."""
        s = StreamingDPC(rebuild_factor=1.0, min_buffer=8)
        seen = []
        for batch in stream_batches[:5]:
            s.add(batch)
            seen.append(batch)
            points = s.points()
            expected = naive_quantities(points, 0.8)
            got = s.quantities(0.8)
            assert_quantities_equal(expected, got)

    def test_buffered_and_rebuilt_paths_agree(self, stream_batches):
        buffered = StreamingDPC(rebuild_factor=100.0, min_buffer=1_000_000)
        eager = StreamingDPC(rebuild_factor=0.0001, min_buffer=1)
        for batch in stream_batches[:4]:
            buffered.add(batch)
            eager.add(batch)
        assert buffered.n_buffered > 0  # still un-indexed
        assert eager.n_buffered == 0  # always folded
        a = buffered.quantities(0.8)
        b = eager.quantities(0.8)
        assert_quantities_equal(a, b)

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
        s = StreamingDPC(min_buffer=8)
        s.add(stream_batches[0])
        first = s.quantities(0.8)
        assert s.quantities(0.8) is first
        assert s.quantities(0.8, "strict") is not first  # another key
        s.add(stream_batches[1])
        second = s.quantities(0.8)
        assert second is not first
        assert s.quantities(0.8) is second

    def test_ingest_repairs_the_stored_answer(self, stream_batches):
        s = StreamingDPC(rebuild_factor=100.0, min_buffer=8)
        s.add(stream_batches[0])
        s.quantities(0.8)
        runs = self.full_runs(s)
        for batch in stream_batches[1:4]:
            s.add(batch)
            assert_quantities_equal(naive_quantities(s.points(), 0.8), s.quantities(0.8))
        assert runs == []

    def test_compaction_drops_the_stored_answer(self, stream_batches):
        s = StreamingDPC(rebuild_factor=0.5, min_buffer=8)
        s.add(stream_batches[0])
        s.quantities(0.8)
        runs = self.full_runs(s)
        s.add(stream_batches[1])  # 40 pending > 0.5 x 40: compacts
        assert s.rebuild_count == 2
        s.add(stream_batches[2][:10])  # a delta segment again, no compaction
        assert s.rebuild_count == 2 and s.n_buffered == 10
        got = s.quantities(0.8)
        assert runs == [s.n]  # the stored answer was gone: a full run
        assert_quantities_equal(naive_quantities(s.points(), 0.8), got)

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

    def test_cluster_folds_buffer(self, stream_batches):
        s = StreamingDPC(rebuild_factor=100.0, min_buffer=1_000_000)
        for batch in stream_batches[:4]:
            s.add(batch)
        assert s.n_buffered > 0
        result = s.cluster(0.8, n_centers=2)
        assert s.n_buffered == 0
        assert len(result.labels) == s.n
