"""A non-finite or non-positive ``dc``, or a non-finite point, is rejected
at the library boundary.

``dc = NaN`` used to come back as garbage that differed per family (ρ = -1
on the trees, n - 1 on ``ch``, 0 on ``list``, an ``IndexError`` on ``grid``),
and ``dc = inf`` passed serving admission (JSON ``Infinity``) only to fail a
coalesced batch inside ``grid``.  Every public entry point now validates
through :func:`repro.core.quantities.check_dc`; ``rho_all`` does so in
``DPCIndex`` before the family's own ``_rho_all`` runs.

A NaN or ±inf *coordinate* failed per family too: NaN δ on the trees and
``list``, a negative bincount length on ``ch``, and ``ValueError`` or
``OverflowError`` on ``grid``.  ``DPCIndex.fit`` and ``DPCIndex.add_points``
now refuse them with one ``ValueError``.

Points of width 0 (shape ``(n, 0)``) failed per family as well: the list
families answered ρ = n - 1 for every point, the trees and the grid raised
unrelated errors from inside their builds.  ``fit`` refuses them with the
``ValueError`` of an empty array.

The brute-force oracle and the Gaussian density validate like the indexes,
through :func:`repro.core.quantities.check_points` and ``check_dc``: they
used to answer ``dc = NaN`` with ρ = -1 for every point, answer ``dc = inf``,
and take NaN coordinates (``estimate_dc`` returned NaN for them).
"""

import numpy as np
import pytest

from repro.core.baseline import estimate_dc, naive_quantities, naive_rho
from repro.core.quantities import check_dc
from repro.extras.variants import gaussian_density
from repro.indexes.registry import available_indexes, make_index

#: Approximate indexes take their truncation radius explicitly.
PARAMS = {"rn-list": {"tau": 2.0}, "rn-ch": {"tau": 2.0}}

BAD_DCS = [float("nan"), float("inf"), float("-inf"), 0.0, -1.0]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.fixture(scope="module")
def fitted():
    points = np.random.default_rng(3).normal(size=(60, 2))
    return {
        name: make_index(name, **PARAMS.get(name, {})).fit(points)
        for name in available_indexes()
    }


@pytest.mark.parametrize("dc", BAD_DCS, ids=repr)
@pytest.mark.parametrize("family", available_indexes())
def test_quantities_rejects_bad_dc(fitted, family, dc):
    with pytest.raises(ValueError, match="dc must be positive and finite"):
        fitted[family].quantities(dc)


@pytest.mark.parametrize("dc", BAD_DCS, ids=repr)
@pytest.mark.parametrize("family", available_indexes())
def test_quantities_multi_rejects_bad_dc(fitted, family, dc):
    with pytest.raises(ValueError, match="dc must be positive and finite"):
        fitted[family].quantities_multi([0.5, dc])


@pytest.mark.parametrize("dc", BAD_DCS, ids=repr)
@pytest.mark.parametrize("family", available_indexes())
def test_rho_all_rejects_bad_dc(fitted, family, dc):
    with pytest.raises(ValueError, match="dc must be positive and finite"):
        fitted[family].rho_all(dc)


@pytest.mark.parametrize("dc", BAD_DCS, ids=repr)
@pytest.mark.parametrize("family", available_indexes())
def test_rho_all_multi_rejects_bad_dc(fitted, family, dc):
    """Every family overrides ``rho_all_multi``; each must still validate."""
    with pytest.raises(ValueError, match="dc must be positive and finite"):
        fitted[family].rho_all_multi([0.5, dc])


def points_with(bad, n=60):
    points = np.random.default_rng(3).normal(size=(n, 2))
    points[n // 2, 1] = bad
    return points


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("family", available_indexes())
def test_fit_rejects_non_finite_points(family, bad):
    with pytest.raises(ValueError, match="points must be finite"):
        make_index(family, **PARAMS.get(family, {})).fit(points_with(bad))


@pytest.mark.parametrize("family", available_indexes())
def test_fit_rejects_zero_width_points(family):
    with pytest.raises(ValueError, match="non-empty"):
        make_index(family, **PARAMS.get(family, {})).fit(np.zeros((5, 0)))


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("family", available_indexes())
def test_add_points_rejects_non_finite_points(family, bad):
    index = make_index(family, **PARAMS.get(family, {})).fit(points_with(0.0))
    with pytest.raises(ValueError, match="new_points must be finite"):
        index.add_points(points_with(bad, n=4))
    assert index.n == 60  # the refused batch left the index untouched
    assert np.isfinite(index.quantities(0.5).delta).all()


def test_check_dc_passes_finite_positive_values_through():
    assert check_dc(0.25) == 0.25
    assert check_dc(np.float32(2.0)) == 2.0
    assert type(check_dc(3)) is float


#: The oracle and the density variant, each with the cut-off it takes.
ORACLES = {
    "naive_rho": lambda points, dc=0.5: naive_rho(points, dc),
    "naive_quantities": lambda points, dc=0.5: naive_quantities(points, dc),
    "gaussian_density": lambda points, dc=0.5: gaussian_density(points, dc),
}


@pytest.mark.parametrize("dc", BAD_DCS, ids=repr)
@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_oracle_rejects_bad_dc(oracle, dc):
    with pytest.raises(ValueError, match="dc must be positive and finite"):
        ORACLES[oracle](points_with(0.0), dc)


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("oracle", sorted(ORACLES) + ["estimate_dc"])
def test_oracle_rejects_non_finite_points(oracle, bad):
    run = ORACLES.get(oracle, estimate_dc)
    with pytest.raises(ValueError, match="points must be finite"):
        run(points_with(bad))


@pytest.mark.parametrize("oracle", sorted(ORACLES) + ["estimate_dc"])
def test_oracle_rejects_zero_width_points(oracle):
    run = ORACLES.get(oracle, estimate_dc)
    with pytest.raises(ValueError, match="non-empty"):
        run(np.zeros((5, 0)))
