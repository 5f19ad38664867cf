"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.baseline import naive_quantities
from repro.core.quantities import DPCQuantities
from repro.indexes.parallel import SHM_PREFIX


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def blobs():
    """Three well-separated Gaussian blobs + sprinkled noise (~320 points)."""
    r = np.random.default_rng(7)
    return np.concatenate(
        [
            r.normal([0.0, 0.0], 0.3, size=(110, 2)),
            r.normal([4.0, 4.0], 0.4, size=(130, 2)),
            r.normal([8.0, 0.0], 0.25, size=(60, 2)),
            r.uniform(-1.0, 9.0, size=(20, 2)),
        ]
    )


@pytest.fixture
def blobs_quantities(blobs):
    """Baseline (ρ, δ, μ) for the blobs fixture at dc = 0.5."""
    return naive_quantities(blobs, 0.5)


def assert_quantities_equal(a: DPCQuantities, b: DPCQuantities) -> None:
    """Bit-exact equality of two quantity triples (the exactness contract)."""
    np.testing.assert_array_equal(a.rho, b.rho, err_msg="rho differs")
    np.testing.assert_array_equal(a.delta, b.delta, err_msg="delta differs")
    np.testing.assert_array_equal(a.mu, b.mu, err_msg="mu differs")


def safe_dc(points: np.ndarray, fraction: float = 0.3, metric: str = "euclidean") -> float:
    """A dc that no pairwise distance sits near (for FP-robust exact tests).

    Takes the ``fraction`` quantile of the pairwise distances under
    ``metric`` and moves it to the midpoint of the two unique distances
    bracketing it, so boundary comparisons (< dc) can never flip between
    code paths.
    """
    from repro.geometry.distance import pairwise_distances

    d = pairwise_distances(points, metric)
    iu = np.triu_indices(len(points), k=1)
    flat = np.unique(d[iu])
    if len(flat) < 2:
        return float(flat[0] if len(flat) else 1.0) or 1.0
    idx = int(np.clip(round(fraction * (len(flat) - 1)), 0, len(flat) - 2))
    return float((flat[idx] + flat[idx + 1]) / 2.0)


def shard_segments(pid: int | None = None) -> list:
    """This process's live shared-memory segments (the leak detector).

    A segment is named after the pid of the process that published it, and
    only the owner publishes (workers only attach), so listing
    ``repro_shard_<pid>_*`` sees every segment the code under test made and
    none that another process on the host creates or removes meanwhile.
    """
    prefix = f"{SHM_PREFIX}_{os.getpid() if pid is None else pid}_"
    try:
        return sorted(f for f in os.listdir("/dev/shm") if f.startswith(prefix))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []
