"""Unit tests for the sharded execution-backend layer (indexes/parallel).

Covers the machinery the property suite treats as a black box: chunk
planning, shared-memory pack round-trips, worker-failure propagation with
leak-free cleanup, refit/shard-plan invalidation, and the persist contract
that backend configuration never enters an index payload.
"""

import os

import numpy as np
import pytest

from repro import faults
from repro.faults import FaultPlan, FaultSpec
from repro.geometry.distance import Metric, get_metric
from repro.indexes import parallel
from repro.indexes.kdtree import KDTreeIndex
from repro.indexes.list_index import ListIndex
from repro.indexes.parallel import (
    SHM_PREFIX,
    ExecutionBackend,
    ShmPack,
    attach_pack_views,
    metric_from_token,
    metric_token,
    plan_chunks,
    resolve_n_jobs,
)
from repro.indexes.persist import load_index, save_index

from tests.conftest import shard_segments


@pytest.fixture
def blobs_small(rng):
    return rng.normal(size=(90, 2))


class TestPlanChunks:
    def test_serial_is_one_chunk(self):
        assert plan_chunks(100, None, 1) == [(0, 100)]

    def test_parallel_default_targets_four_per_worker(self):
        chunks = plan_chunks(100, None, 4)
        assert chunks[0] == (0, 7)
        assert len(chunks) == -(-100 // 7)
        assert chunks[-1][1] == 100

    def test_explicit_chunk_size_wins(self):
        assert plan_chunks(10, 4, 8) == [(0, 4), (4, 8), (8, 10)]

    def test_chunk_size_of_one(self):
        chunks = plan_chunks(3, 1, 2)
        assert chunks == [(0, 1), (1, 2), (2, 3)]

    def test_chunk_size_beyond_n_collapses(self):
        assert plan_chunks(5, 500, 4) == [(0, 5)]

    def test_empty_input(self):
        assert plan_chunks(0, None, 4) == []

    def test_chunks_partition_exactly(self):
        for n in (1, 7, 64, 1000):
            for cs in (None, 1, 3, n, 2 * n):
                for jobs in (1, 3):
                    chunks = plan_chunks(n, cs, jobs)
                    flat = [i for s, e in chunks for i in range(s, e)]
                    assert flat == list(range(n)), (n, cs, jobs)

    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(None) >= 1
        assert resolve_n_jobs(0) >= 1


class TestExecutionBackendConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            ExecutionBackend("gpu")

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            ExecutionBackend("threads", chunk_size=0)

    def test_index_constructor_validates_backend(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            ListIndex(backend="bogus")

    def test_set_execution_validates_backend(self, blobs_small):
        index = KDTreeIndex().fit(blobs_small)
        with pytest.raises(ValueError, match="backend must be one of"):
            index.set_execution(backend="bogus")

    def test_serial_backend_ignores_n_jobs(self):
        assert ExecutionBackend("serial", n_jobs=8).n_jobs == 1

    def test_shared_backend_instance_accepted(self, blobs_small):
        backend = ExecutionBackend("threads", n_jobs=2, chunk_size=7)
        a = KDTreeIndex(backend=backend).fit(blobs_small)
        b = ListIndex(backend=backend).fit(blobs_small)
        ref = KDTreeIndex().fit(blobs_small).quantities(0.5)
        got = a.quantities(0.5)
        np.testing.assert_array_equal(ref.rho, got.rho)
        np.testing.assert_array_equal(ref.delta, got.delta)
        # release_execution must NOT shut down a pool it does not own.
        a.release_execution()
        assert b.quantities(0.5) is not None
        backend.shutdown()

    def test_set_execution_away_from_shared_backend_keeps_pool(self, blobs_small):
        """Regression: set_execution used to reassign self.backend before
        the ownership check ran, so switching one index away from a shared
        ExecutionBackend shut down the pool under every other index."""
        backend = ExecutionBackend("threads", n_jobs=2, chunk_size=7)
        a = KDTreeIndex(backend=backend).fit(blobs_small)
        b = ListIndex(backend=backend).fit(blobs_small)
        a.quantities(0.5)
        a.set_execution(backend="serial")
        assert backend._pool is not None  # shared pool survives the switch
        assert b.quantities(0.5) is not None  # and still serves other owners
        backend.shutdown()


class TestShmPack:
    def test_round_trip_and_unlink(self):
        before = shard_segments()
        arrays = {
            "a": np.arange(17, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 7).reshape(1, 7),
            "empty": np.empty(0, dtype=np.int32),
        }
        pack = ShmPack(arrays)
        assert len(shard_segments()) == len(before) + 1
        views = attach_pack_views(pack.handle)
        for key, value in arrays.items():
            np.testing.assert_array_equal(views[key], value)
            assert views[key].dtype == value.dtype
        pack.close()
        assert shard_segments() == before

    def test_pack_name_carries_the_publisher_pid(self):
        """The leak checks list only ``repro_shard_<this pid>_*``: a pack
        published here must be named so, or they would go blind."""
        pack = ShmPack({"x": np.ones(3)})
        try:
            assert pack.name.startswith(f"{SHM_PREFIX}_{os.getpid()}_")
            assert pack.name in shard_segments()
        finally:
            pack.close()
        assert pack.name not in shard_segments()

    def test_close_is_idempotent(self):
        pack = ShmPack({"x": np.ones(3)})
        pack.close()
        pack.close()

    def test_finalizer_unlinks_on_gc(self):
        before = shard_segments()
        pack = ShmPack({"x": np.ones(8)})
        assert len(shard_segments()) == len(before) + 1
        del pack
        import gc

        gc.collect()
        assert shard_segments() == before


class TestMetricToken:
    def test_registered_metric_travels_by_name(self):
        kind, value = metric_token("euclidean")
        assert (kind, value) == ("name", "euclidean")
        assert metric_from_token((kind, value)) is get_metric("euclidean")

    def test_minkowski_travels_by_name(self):
        m = get_metric("minkowski[p=3]")
        kind, value = metric_token(m)
        assert (kind, value) == ("name", "minkowski[p=3]")
        assert metric_from_token((kind, value)).name == m.name

    def test_unregistered_metric_travels_by_object(self):
        euc = get_metric("euclidean")
        custom = Metric(
            "custom-unregistered",
            euc.distances_from,
            euc.cross,
            euc.rect_mindist,
            euc.rect_maxdist,
            rect_mindist_many=euc.rect_mindist_many,
            rect_maxdist_many=euc.rect_maxdist_many,
            pair_dists=euc.pair_dists,
        )
        kind, value = metric_token(custom)
        assert kind == "obj"
        assert metric_from_token((kind, value)) is custom


# -- chunk checksums ------------------------------------------------------------


class TestChunkChecksums:
    """A chunk result is checksummed only where it can be corrupted: when it
    crosses a process boundary, or when an injected fault is about to flip
    one of its bytes."""

    @pytest.fixture
    def checksums(self, monkeypatch):
        seen = []
        real = parallel._result_checksum

        def spy(result):
            seen.append(sorted(result))
            return real(result)

        monkeypatch.setattr(parallel, "_result_checksum", spy)
        return seen

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    @pytest.mark.parametrize("cls", [KDTreeIndex, ListIndex])
    def test_in_process_cluster_multi_computes_no_checksum(
        self, rng, checksums, cls, backend
    ):
        index = cls(backend=backend, n_jobs=2, chunk_size=40).fit(
            rng.normal(size=(160, 2))
        )
        try:
            results = index.cluster_multi([0.3, 0.6, 1.2], n_centers=3)
        finally:
            index.release_execution()
        assert len(results) == 3
        assert checksums == []

    def test_a_corrupted_chunk_is_checksummed_and_retried(self, rng, checksums):
        points = rng.normal(size=(120, 2))
        want = KDTreeIndex().fit(points).quantities(0.5)
        index = KDTreeIndex(backend="threads", n_jobs=2, chunk_size=30).fit(points)
        plan = FaultPlan([FaultSpec("parallel.corrupt", mode="corrupt", times=1)])
        try:
            with faults.inject(plan):
                got = index.quantities(0.5)
            health = index.execution_health()
        finally:
            index.release_execution()
        for field in ("rho", "delta", "mu"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        # Computed before the flip, re-computed on acceptance: a mismatch.
        assert len(checksums) == 2
        assert health["retries"] == 1

    def test_a_quantities_result_is_hashed_by_its_arrays(self, rng):
        """A serving batch sends ``DPCQuantities`` back: one element changed
        where numpy's ``repr`` elides the array still changes the checksum."""
        import copy

        want = KDTreeIndex().fit(rng.normal(size=(3000, 2))).quantities(0.5)
        same, flipped = copy.deepcopy(want), copy.deepcopy(want)
        flipped.delta[1500] = np.nextafter(flipped.delta[1500], np.inf)
        assert repr(flipped.delta) == repr(want.delta)
        checksum = parallel._result_checksum
        assert checksum([want]) == checksum([same])
        assert checksum([want]) != checksum([flipped])

    def test_process_results_are_verified_in_the_parent(self, rng, checksums):
        index = KDTreeIndex(backend="process", n_jobs=2, chunk_size=30).fit(
            rng.normal(size=(120, 2))
        )
        try:
            index.rho_all(0.5)
        finally:
            index.release_execution()
        # The workers' own checksums run in their processes; the parent
        # re-verifies every chunk it accepts.
        assert len(checksums) == 4


# -- worker failure propagation + leak-free cleanup ---------------------------

_EUC = get_metric("euclidean")


def _boom_pair(a, b):
    raise RuntimeError("boom-metric exploded inside a worker chunk")


def _boom_from(points, q):
    raise RuntimeError("boom-metric exploded inside a worker chunk")


#: Euclidean rectangle bounds (so traversal reaches the leaves) but raising
#: distance kernels — the failure always fires inside a worker's chunk.
BOOM = Metric(
    "boom-metric-unregistered",
    _boom_from,
    _EUC.cross,  # the main-process peak sweep must not be the thing failing
    _EUC.rect_mindist,
    _EUC.rect_maxdist,
    rect_mindist_many=_EUC.rect_mindist_many,
    rect_maxdist_many=_EUC.rect_maxdist_many,
    pair_dists=_boom_pair,
)


class TestWorkerFailure:
    @pytest.mark.parametrize("backend", ["threads", "process"])
    def test_original_exception_type_and_message(self, blobs_small, backend):
        index = KDTreeIndex(
            metric=BOOM, backend=backend, n_jobs=2, chunk_size=13
        ).fit(blobs_small)
        try:
            with pytest.raises(RuntimeError, match="exploded inside a worker chunk"):
                index.rho_all(0.5)
        finally:
            index.release_execution()

    def test_failed_run_leaves_no_ephemeral_segments(self, blobs_small):
        """The per-run shared-memory pack is unlinked even when a chunk
        raises (finally-path); only the fit pack survives, and an explicit
        release removes that too — resource_tracker never has to step in."""
        before = shard_segments()
        index = KDTreeIndex(
            metric=BOOM, backend="process", n_jobs=2, chunk_size=13
        ).fit(blobs_small)
        # δ ships per-run arrays (keys/maxrho) through an ephemeral pack;
        # build the density order with a working metric so the failure
        # fires inside the sharded δ engine itself.
        rho = KDTreeIndex().fit(blobs_small).rho_all(0.5)
        from repro.core.quantities import DensityOrder

        with pytest.raises(RuntimeError, match="exploded inside a worker chunk"):
            index.delta_all(DensityOrder(rho))
        # Ephemeral run pack gone; at most the fit-time pack remains.
        leftovers = [s for s in shard_segments() if s not in before]
        assert len(leftovers) <= 1
        index.release_execution()
        assert shard_segments() == before

    def test_pool_survives_a_failed_run(self, blobs_small):
        index = KDTreeIndex(backend="process", n_jobs=2, chunk_size=13)
        index.fit(blobs_small)
        try:
            serial = KDTreeIndex().fit(blobs_small)
            bad = KDTreeIndex(
                metric=BOOM, backend=index._execution(), chunk_size=13
            ).fit(blobs_small)
            with pytest.raises(RuntimeError):
                bad.rho_all(0.5)
            bad.release_execution()
            # Same pool, next run: still correct.
            np.testing.assert_array_equal(index.rho_all(0.5), serial.rho_all(0.5))
        finally:
            index.release_execution()


class TestWorkerLifetime:
    def test_a_dropped_backend_stops_its_workers(self, blobs_small):
        """An index dropped without ``release_execution()`` stops its
        ``process`` workers when it is garbage-collected."""
        import gc
        import multiprocessing

        before = {p.pid for p in multiprocessing.active_children()}
        index = KDTreeIndex(backend="process", n_jobs=2, chunk_size=13)
        index.fit(blobs_small).rho_all(0.5)
        workers = {p.pid for p in multiprocessing.active_children()} - before
        assert len(workers) == 2
        del index
        gc.collect()
        assert not workers & {p.pid for p in multiprocessing.active_children()}


class TestRefitInvalidation:
    def test_refit_releases_shard_pack_and_reshards_fresh(self, rng):
        """Regression (satellite of the sharding PR): a second fit must
        invalidate the published shard image alongside the FlatTree cache —
        a worker answering from the previous dataset's image would be
        silently wrong, not just stale."""
        first = rng.normal(size=(80, 2))
        second = rng.normal(3.0, 2.0, size=(120, 2))
        before = shard_segments()
        index = KDTreeIndex(backend="process", n_jobs=2, chunk_size=11).fit(first)
        try:
            index.quantities(0.5)
            assert index._shard_pack is not None
            old_segment = index._shard_pack.name
            index.fit(second)
            # Old image unlinked immediately, not lazily at the next query.
            assert index._shard_pack is None
            assert old_segment not in shard_segments()
            got = index.quantities(0.5)
            ref = KDTreeIndex().fit(second).quantities(0.5)
            np.testing.assert_array_equal(ref.rho, got.rho)
            np.testing.assert_array_equal(ref.delta, got.delta)
            np.testing.assert_array_equal(ref.mu, got.mu)
        finally:
            index.release_execution()
        assert shard_segments() == before

    def test_set_execution_releases_shard_pack(self, blobs_small):
        index = KDTreeIndex(backend="process", n_jobs=2).fit(blobs_small)
        index.quantities(0.5)
        assert index._shard_pack is not None
        index.set_execution(backend="serial")
        assert index._shard_pack is None
        # Still answers correctly on the new backend.
        ref = KDTreeIndex().fit(blobs_small).quantities(0.5)
        got = index.quantities(0.5)
        np.testing.assert_array_equal(ref.rho, got.rho)


class TestPersistExcludesBackendConfig:
    def test_backend_config_not_serialised(self, blobs_small, tmp_path):
        """Execution configuration is machine state: a payload written on a
        many-core box must restore cleanly anywhere, so backend/n_jobs/
        chunk_size never enter the file and a loaded index runs serial."""
        import json

        index = ListIndex(backend="threads", n_jobs=2, chunk_size=7).fit(blobs_small)
        path = tmp_path / "list.npz"
        save_index(index, str(path))
        with np.load(str(path), allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
        for key in ("backend", "n_jobs", "chunk_size"):
            assert key not in meta["params"], key
        restored = load_index(str(path))
        assert restored.backend == "serial"
        assert restored.n_jobs is None and restored.chunk_size is None
        ref = index.quantities(0.5)
        got = restored.quantities(0.5)
        np.testing.assert_array_equal(ref.rho, got.rho)
        np.testing.assert_array_equal(ref.delta, got.delta)
        index.release_execution()
