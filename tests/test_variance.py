import numpy as np
import pytest

from casemix import variance
from casemix.errors import SingularBread, TooManyFailedReplicates
from casemix.formula import parse
from casemix.ipd import IpdDataset
from casemix.transport import (IPW, IPW_STABILIZED, OCR, effect_matrix,
                               standardized_grid)
from casemix.variance import (attach_covariance, bootstrap_cov, build_system,
                              sandwich_cov)

from conftest import continuous_ds

OUTCOME = parse("y ~ 1 + treat + L + treat:L")
PS = parse("study ~ 1 + L")


def _kwargs(method):
    if method == OCR:
        return {"outcome_formula": OUTCOME}
    return {"ps_formula": PS}


@pytest.mark.parametrize("method", [OCR, IPW, IPW_STABILIZED])
def test_psi_mean_vanishes_at_solution(enum_ds, method):
    system = build_system(enum_ds, method, **_kwargs(method))
    assert np.max(np.abs(system.psi_mean())) < 1e-8
    assert len(system.prob_rows) == 8
    assert system.n == enum_ds.n


def test_psi_mean_vanishes_multinomial(three_trial_ds):
    system = build_system(three_trial_ds, IPW_STABILIZED, ps_formula=PS,
                          ps_mode="multinomial")
    assert np.max(np.abs(system.psi_mean())) < 1e-8
    assert len(system.prob_rows) == 18


@pytest.mark.parametrize("method,extra", [
    (OCR, {}),
    (IPW, {}),
    (IPW_STABILIZED, {}),
    (IPW_STABILIZED, {"expit_weight": True}),
])
def test_bread_matches_finite_differences(method, extra):
    ds = continuous_ds(seed=4, n=400)
    system = build_system(ds, method, outcome_formula=OUTCOME, ps_formula=PS,
                          **extra)
    an = system.bread()
    fd = system.bread_fd()
    scale = 1.0 + np.max(np.abs(an))
    assert np.max(np.abs(fd - an)) / scale < 1e-4


def test_bread_matches_finite_differences_multinomial(three_trial_ds):
    system = build_system(three_trial_ds, IPW, ps_formula=PS,
                          ps_mode="multinomial")
    an = system.bread()
    fd = system.bread_fd()
    scale = 1.0 + np.max(np.abs(an))
    assert np.max(np.abs(fd - an)) / scale < 1e-4


def test_sandwich_cov_full_grid(enum_ds):
    res = sandwich_cov(enum_ds, IPW, ps_formula=PS)
    assert res.method == "sandwich"
    assert res.cell_order() == [("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")]
    for msr in ("rr", "or", "rd"):
        S = res.sigma[msr]
        assert S.shape == (4, 4)
        assert np.all(np.isfinite(S))
        assert np.allclose(S, S.T)
        assert np.all(np.diag(S) > 0)
        assert res.se[msr] == pytest.approx(np.sqrt(np.diag(S)))


def test_sandwich_cov_nan_rows_for_undefined(oob_ds):
    res = sandwich_cov(oob_ds, IPW, ps_formula=PS)
    S = res.sigma["or"]
    bad = res.cell_order().index(("1", "2"))
    assert np.all(np.isnan(S[bad, :]))
    assert np.all(np.isnan(S[:, bad]))
    keep = [i for i in range(4) if i != bad]
    assert np.all(np.isfinite(S[np.ix_(keep, keep)]))
    assert np.isnan(res.se["or"][bad])
    assert np.all(np.isfinite(res.sigma["rr"]))


def test_attach_covariance(enum_ds):
    mat = effect_matrix(enum_ds, IPW, ps_formula=PS, measure="rr")
    res = sandwich_cov(enum_ds, IPW, ps_formula=PS, measures=("rr",))
    attach_covariance(mat, res)
    assert mat.covariance_method == "sandwich"
    assert mat.sigma.shape == (4, 4)
    for i, jk in enumerate(mat.cell_order()):
        assert mat.cells[jk].se_transformed == pytest.approx(
            float(np.sqrt(mat.sigma[i, i])))


def test_attach_covariance_requires_measure(enum_ds):
    mat = effect_matrix(enum_ds, IPW, ps_formula=PS, measure="or")
    res = sandwich_cov(enum_ds, IPW, ps_formula=PS, measures=("rr",))
    with pytest.raises(ValueError, match="lacks measure"):
        attach_covariance(mat, res)


def test_attach_covariance_undefined_cell_gets_none(oob_ds):
    mat = effect_matrix(oob_ds, IPW, ps_formula=PS, measure="or",
                        collect_errors=True)
    res = sandwich_cov(oob_ds, IPW, ps_formula=PS)
    attach_covariance(mat, res)
    assert mat.cells[("1", "2")].se_transformed is None
    assert mat.cells[("2", "1")].se_transformed is not None


def test_probability_scale_system_for_single_cells(enum_ds):
    # measures=() still exposes the standardized probabilities themselves
    system = build_system(enum_ds, IPW, ps_formula=PS, measures=())
    S = system.sandwich()
    row = system.prob_rows[("1", "2", 1)]
    assert S[row, row] > 0
    assert system.effect_rows == {}


def test_bootstrap_deterministic_given_seed(enum_ds):
    a = bootstrap_cov(enum_ds, IPW, ps_formula=PS, measures=("rr",), B=16,
                      seed=3)
    b = bootstrap_cov(enum_ds, IPW, ps_formula=PS, measures=("rr",), B=16,
                      seed=3)
    c = bootstrap_cov(enum_ds, IPW, ps_formula=PS, measures=("rr",), B=16,
                      seed=4)
    assert np.array_equal(a.sigma["rr"], b.sigma["rr"], equal_nan=True)
    assert not np.allclose(a.sigma["rr"], c.sigma["rr"], equal_nan=True)
    assert a.method == "bootstrap"
    assert a.replicates == 16
    assert np.all(a.excluded["rr"] == 0)


def test_bootstrap_needs_two_replicates(enum_ds):
    with pytest.raises(ValueError, match="at least two"):
        bootstrap_cov(enum_ds, IPW, ps_formula=PS, B=1)


def test_bootstrap_reports_hopeless_cells(enum_ds):
    # rig every replicate so trial 2's control arm is all failures: the RR of
    # any cell sourced from trial 2 is then undefined in every replicate
    treat2 = np.flatnonzero((enum_ds.study_idx == 1) & (enum_ds.treat == 1))
    ctrl2 = np.flatnonzero((enum_ds.study_idx == 1) & (enum_ds.treat == 0))
    zero2 = ctrl2[enum_ds.outcome[ctrl2] == 0]

    def rig(b, rng, study_rows):
        idx2 = np.concatenate([treat2, rng.choice(zero2, size=len(ctrl2))])
        return np.concatenate([study_rows[0], idx2])

    with pytest.raises(TooManyFailedReplicates, match="bootstrap"):
        bootstrap_cov(enum_ds, IPW, ps_formula=PS, measures=("rr",), B=8,
                      seed=0, _indices=rig)


def test_bootstrap_excludes_replicate_that_raises_casemix_error(enum_ds):
    # replicate 0 keeps only trial 2's treated rows: SingleArmStudy excludes it
    def rig(b, rng, study_rows):
        if b == 0:
            return np.concatenate([study_rows[0],
                                   study_rows[1][enum_ds.treat[study_rows[1]] == 1]])
        return np.concatenate([rows[rng.integers(0, len(rows), len(rows))]
                               for rows in study_rows])

    res = bootstrap_cov(enum_ds, IPW, ps_formula=PS, measures=("rr",), B=6,
                        seed=0, _indices=rig)
    assert np.all(res.excluded["rr"] == 1)


def test_bootstrap_surfaces_programming_errors(enum_ds, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a programming error")

    monkeypatch.setattr(variance, "standardized_grid", broken)
    with pytest.raises(TypeError, match="programming error"):
        bootstrap_cov(enum_ds, IPW, ps_formula=PS, measures=("rr",), B=4, seed=0)


def test_build_system_rejects_unknown_measure(enum_ds):
    with pytest.raises(ValueError, match="unknown measure"):
        build_system(enum_ds, IPW, ps_formula=PS, measures=("hr",))


def _three_trial_continuous(seed=2, n=900) -> IpdDataset:
    """Three trials with continuous L, so truncation caps bind on some rows."""
    rng = np.random.default_rng(seed)
    L = rng.normal(0.0, 1.0, size=n)
    S = np.arange(n) % 3
    L = L + 0.4 * S
    treat = (np.arange(n) // 3) % 2
    p = 1.0 / (1.0 + np.exp(-(-0.2 + 0.4 * treat + 0.5 * L - 0.3 * treat * L)))
    y = (rng.random(n) < p).astype(int)
    return IpdDataset.from_arrays(["L"], ["a", "b", "c"], S, treat, y, L[:, None])


@pytest.mark.parametrize("method,kw", [
    (OCR, {"outcome_formula": OUTCOME,
           "overrides": {("a", "c"): parse("y ~ 1 + treat + L")}}),
    (IPW, {"ps_formula": PS, "ps_mode": "pairwise"}),
    (IPW_STABILIZED, {"ps_formula": PS, "ps_mode": "multinomial"}),
    (IPW_STABILIZED, {"ps_formula": PS, "truncation": 95.0}),
    (IPW, {"ps_formula": PS, "ps_mode": "pairwise", "truncation": 95.0}),
])
def test_sandwich_from_grid_equals_refitted(method, kw):
    # the grid's fits are the sandwich's model blocks: reusing them moves no bit
    ds = _three_trial_continuous()
    grid = standardized_grid(ds, method, **kw)
    shared = sandwich_cov(ds, method, grid=grid, **kw)
    alone = sandwich_cov(ds, method, **kw)
    for msr in ("rr", "or", "rd"):
        assert np.array_equal(shared.sigma[msr], alone.sigma[msr], equal_nan=True)
        assert np.all(np.isfinite(np.diag(shared.sigma[msr])))
    assert np.array_equal(shared.system.theta, alone.system.theta)


def test_sandwich_rejects_grid_with_other_settings(enum_ds):
    grid = standardized_grid(enum_ds, IPW, ps_formula=PS)
    with pytest.raises(ValueError, match="grid was built"):
        sandwich_cov(enum_ds, IPW, ps_formula=PS, truncation=95.0, grid=grid)
    with pytest.raises(ValueError, match="grid was built"):
        sandwich_cov(enum_ds, IPW_STABILIZED, ps_formula=PS, grid=grid)
    with pytest.raises(ValueError, match="grid was built"):
        sandwich_cov(enum_ds.subset(np.arange(enum_ds.n)), IPW, ps_formula=PS,
                     grid=grid)
    ocr = standardized_grid(enum_ds, OCR, outcome_formula=OUTCOME)
    with pytest.raises(ValueError, match="grid was built"):
        build_system(enum_ds, OCR, outcome_formula=parse("y ~ 1 + treat + L"),
                     grid=ocr)
