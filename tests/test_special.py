"""The package's numpy special functions against scipy's, which the tests keep
as their oracle."""

import math
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.stats import chi2

from casemix import meta, simlab
from casemix._special import chi2_sf, expit


def test_chi2_sf_matches_scipy():
    x = np.geomspace(1e-8, 2000.0, 300)
    for df in range(1, 121):
        want = chi2.sf(x, df)
        got = np.array([chi2_sf(df, v) for v in x])
        live = want > 1e-200
        np.testing.assert_allclose(got[live], want[live], rtol=1e-12, atol=0,
                                   err_msg=f"df={df}")
        assert np.all(got[~live] <= 1e-200), df


@pytest.mark.parametrize("df", [1, 2, 7, 120])
def test_chi2_sf_edges(df):
    assert chi2_sf(df, 0.0) == 1.0 == chi2.sf(0.0, df)
    assert chi2_sf(df, -3.0) == 1.0 == chi2.sf(-3.0, df)
    assert math.isnan(chi2_sf(df, math.nan)) and math.isnan(special.chdtrc(df, math.nan))
    assert chi2_sf(df, math.inf) == 0.0 == special.chdtrc(df, math.inf)
    assert chi2_sf(np.int64(df), np.float64(2.5)) == chi2_sf(df, 2.5)


def test_chi2_sf_rejects_a_fractional_df():
    with pytest.raises(TypeError):
        chi2_sf(2.5, 1.0)


def test_expit_matches_scipy():
    x = np.random.default_rng(4).normal(scale=10.0, size=200_000)
    np.testing.assert_allclose(expit(x), special.expit(x), rtol=5e-16, atol=0)
    assert expit(0.3) == pytest.approx(special.expit(0.3), rel=5e-16, abs=0)


def test_expit_saturates_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(np.array([800.0, -800.0, 0.0]))
    assert got.tolist() == [1.0, 0.0, 0.5]


def test_z975_is_the_normal_quantile():
    assert meta.Z975 == float(special.ndtri(0.975))
    assert type(meta.Z975) is float


@pytest.mark.parametrize("preset", range(1, 6))
def test_generated_datasets_are_those_of_scipy_expit(preset, monkeypatch):
    # the acceptance bands rest on these datasets: the outcome and membership
    # draws compare uniforms with expit, which must not move one of them
    cfg = simlab.preset_config(preset)
    ours = [simlab.generate_setting(cfg, seed) for seed in range(5)]
    monkeypatch.setattr(simlab, "expit", special.expit)
    for seed, ds in enumerate(ours):
        ref = simlab.generate_setting(cfg, seed)
        for name in ("study_idx", "treat", "outcome", "cov"):
            a, b = getattr(ds, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (seed, name)
