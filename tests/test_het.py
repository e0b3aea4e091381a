import numpy as np
import pytest
from scipy.stats import chi2

from casemix.errors import SingularContrastCovariance
from casemix.formula import parse
from casemix.het import (RAW, all_tests, beyond_casemix_test, casemix_test,
                         conventional_test, report_records, wald_test)
from casemix.transport import (EffectEstimate, EffectMatrix, IPW, OCR, GridSettings,
                               effect_matrix, standardized_grid)
from casemix.variance import attach_covariance, sandwich_cov

PS = parse("study ~ 1 + L")


def test_wald_hand_example():
    res = wald_test([0.0, 0.5], 0.1 * np.eye(2), [[1.0, -1.0]])
    assert res.statistic == pytest.approx(1.25, abs=1e-12)
    assert res.df == 1
    assert res.p_value == pytest.approx(chi2.sf(1.25, 1), abs=1e-12)
    assert res.feasible
    assert not res.reject(0.05)
    assert res.reject(0.30)


def test_wald_invariant_to_contrast_basis():
    rng = np.random.default_rng(11)
    v = rng.normal(size=4)
    A = rng.normal(size=(4, 4))
    sigma = A @ A.T + 0.5 * np.eye(4)
    M = np.array([[1.0, -1.0, 0.0, 0.0],
                  [0.0, 1.0, -1.0, 0.0]])
    base = wald_test(v, sigma, M)
    twisted = wald_test(v, sigma, np.array([[2.0, 1.0], [0.0, 3.0]]) @ M)
    assert twisted.statistic == pytest.approx(base.statistic, rel=1e-10)
    assert twisted.df == base.df == 2
    assert twisted.p_value == pytest.approx(base.p_value, rel=1e-10)


def test_wald_rank_counts_independent_rows():
    v = [0.0, 0.5]
    sigma = 0.1 * np.eye(2)
    M = [[1.0, -1.0], [1.0, -1.0], [2.0, -2.0]]
    res = wald_test(v, sigma, M)
    assert res.df == 1
    assert res.statistic == pytest.approx(1.25, abs=1e-10)


def test_wald_ignores_nan_outside_contrast():
    v = [0.0, 0.5, np.nan]
    sigma = np.diag([0.1, 0.1, np.nan])
    sigma[2, 0] = sigma[0, 2] = np.nan
    M = [[1.0, -1.0, 0.0]]
    res = wald_test(v, sigma, M)
    assert res.feasible
    assert res.statistic == pytest.approx(1.25, abs=1e-12)


def test_wald_infeasible_when_contrast_touches_nan():
    v = [0.0, np.nan]
    res = wald_test(v, 0.1 * np.eye(2), [[1.0, -1.0]])
    assert not res.feasible
    assert np.isnan(res.statistic) and np.isnan(res.p_value)
    assert res.df == 1
    assert "undefined" in res.note
    assert not res.reject(0.05)

    sigma = 0.1 * np.eye(2)
    sigma[1, 1] = np.nan
    res2 = wald_test([0.0, 0.5], sigma, [[1.0, -1.0]])
    assert not res2.feasible


def test_wald_singular_covariance_raises():
    with pytest.raises(SingularContrastCovariance, match="condition number"):
        wald_test([0.0, 0.5], np.ones((2, 2)), [[1.0, -1.0]])


def test_wald_input_validation():
    with pytest.raises(ValueError, match="shapes disagree"):
        wald_test([0.0, 0.5], 0.1 * np.eye(2), [[1.0, -1.0, 0.0]])
    with pytest.raises(ValueError, match="shapes disagree"):
        wald_test([0.0, 0.5], 0.1 * np.eye(3), [[1.0, -1.0]])
    with pytest.raises(ValueError, match="rank zero"):
        wald_test([0.0, 0.5], 0.1 * np.eye(2), [[0.0, 0.0]])


def _attached(ds, measure="rr", collect_errors=False):
    grid = standardized_grid(ds, GridSettings(IPW, ps_formula=PS))
    mat = effect_matrix(grid, measure, collect_errors=collect_errors)
    attach_covariance(mat, sandwich_cov(grid))
    return mat


def test_all_tests_order_and_contrasts(enum_ds):
    mat = _attached(enum_ds)
    results = all_tests(mat)
    assert [r.hypothesis for r in results] == [
        "beyond-case-mix[target=1]", "beyond-case-mix[target=2]",
        "case-mix[source=1]", "case-mix[source=2]", "conventional"]
    assert results[0].contrast_rows == ["(1,1) - (1,2)"]
    assert results[2].contrast_rows == ["(1,1) - (2,1)"]
    assert results[4].contrast_rows == ["(1,1) - (2,2)"]
    for r in results:
        assert r.feasible
        assert r.df == 1
        assert 0.0 <= r.p_value <= 1.0


def test_undefined_cell_makes_only_its_tests_infeasible(oob_ds):
    mat = _attached(oob_ds, measure="or", collect_errors=True)
    results = {r.hypothesis: r for r in all_tests(mat)}
    assert not results["beyond-case-mix[target=1]"].feasible
    assert not results["case-mix[source=2]"].feasible
    assert results["beyond-case-mix[target=2]"].feasible
    assert results["case-mix[source=1]"].feasible
    assert results["conventional"].feasible


def test_raw_scale_back_transforms(enum_ds):
    mat = _attached(enum_ds)
    t = conventional_test(mat)
    r = conventional_test(mat, scale=RAW)
    assert r.scale == RAW
    assert r.feasible and np.isfinite(r.statistic)
    assert r.statistic != pytest.approx(t.statistic, rel=1e-6)


def test_raw_scale_equals_transformed_for_rd(enum_ds):
    mat = _attached(enum_ds, measure="rd")
    t = conventional_test(mat)
    r = conventional_test(mat, scale=RAW)
    assert r.statistic == pytest.approx(t.statistic, rel=1e-12)


def test_unknown_scale_and_labels(enum_ds):
    mat = _attached(enum_ds)
    with pytest.raises(ValueError, match="unknown scale"):
        conventional_test(mat, scale="logit")
    with pytest.raises(ValueError, match="unknown target"):
        beyond_casemix_test(mat, "9")
    with pytest.raises(ValueError, match="unknown source"):
        casemix_test(mat, "9")


def test_missing_covariance_rejected(enum_ds):
    mat = effect_matrix(standardized_grid(enum_ds, GridSettings(IPW, ps_formula=PS)), "rr")
    with pytest.raises(ValueError, match="no covariance attached"):
        conventional_test(mat)


def test_single_trial_matrix_rejected():
    cells = {("1", "1"): EffectEstimate("rr", "1", "1", 1.0, 0.0)}
    mat = EffectMatrix(measure="rr", labels=("1",), cells=cells, method=OCR)
    with pytest.raises(ValueError, match="at least two trials"):
        conventional_test(mat)


def test_report_records(enum_ds):
    mat = _attached(enum_ds)
    recs = report_records(all_tests(mat))
    assert len(recs) == 5
    for rec in recs:
        assert set(rec) == {"hypothesis", "scale", "statistic", "df",
                            "p_value", "feasible"}
        assert rec["feasible"] is True


def _matrix(K, seed, undefined=None, singular=False):
    """An rr effect matrix over K trials with a random positive-definite Sigma;
    `undefined` names a cell whose estimate and covariance are NaN, and
    `singular` makes the diagonal cells perfectly correlated with equal
    variances, so the conventional test's contrast covariance is zero."""
    rng = np.random.default_rng(seed)
    labels = tuple(str(k + 1) for k in range(K))
    order = [(j, k) for j in labels for k in labels]
    v = rng.normal(scale=0.3, size=K * K)
    A = rng.normal(size=(K * K, K * K + 2))
    if singular:
        diagonal = [order.index((j, j)) for j in labels]
        A[diagonal], v[diagonal] = A[0], v[0]
    sigma = 0.01 * (A @ A.T) / A.shape[1]
    if undefined is not None:
        i = order.index(undefined)
        v[i] = np.nan
        sigma[i, :] = sigma[:, i] = np.nan
    cells = {jk: EffectEstimate("rr", jk[0], jk[1], float(np.exp(t)), float(t))
             for jk, t in zip(order, v)}
    mat = EffectMatrix(measure="rr", labels=labels, cells=cells, method=OCR)
    mat.sigma = sigma
    return mat


def _looped_tests(mat, scale):
    """`all_tests` as a loop of the public `wald_test`, one contrast matrix a test."""
    v, sigma = mat.transformed_vector(), mat.sigma
    if scale == RAW:
        pts = np.exp(v)                 # delta method: D Sigma D, D = diag(pts)
        v, sigma = pts, pts[:, None] * sigma * pts[None, :]
    labels, order = mat.labels, mat.cell_order()
    tests = ([[(j, k) for k in labels] for j in labels]
             + [[(j, k) for j in labels] for k in labels] + [[(j, j) for j in labels]])
    out = []
    for cells in tests:
        M = np.zeros((len(cells) - 1, len(order)))
        for r, (a, b) in enumerate(zip(cells, cells[1:])):
            M[r, order.index(a)], M[r, order.index(b)] = 1.0, -1.0
        try:
            out.append(wald_test(v, sigma, M, scale=scale))
        except SingularContrastCovariance as e:
            out.append((e.condition_number, len(cells) - 1))
    return out


@pytest.mark.parametrize("scale", ["transformed", RAW])
@pytest.mark.parametrize("K,undefined,singular", [
    (2, None, False), (5, None, False), (10, None, False),
    (2, ("2", "1"), False), (5, ("3", "4"), False), (10, ("7", "7"), False),
    (2, None, True), (5, None, True), (10, ("1", "2"), True)])
def test_batched_tests_match_a_loop_of_wald_test(K, undefined, singular, scale):
    mat = _matrix(K, seed=K, undefined=undefined, singular=singular)
    got, want = all_tests(mat, scale), _looped_tests(mat, scale)
    assert len(got) == len(want) == 2 * K + 1
    if singular:
        assert isinstance(want[-1], tuple)
    for g, w in zip(got, want):
        assert g.scale == scale
        if isinstance(w, tuple):        # the loop's wald_test raised: singular
            assert not g.feasible and g.note == "singular contrast covariance"
            assert (g.condition_number, g.df) == w
            assert np.isnan(g.statistic) and np.isnan(g.p_value)
            continue
        assert (g.feasible, g.df, g.note, g.condition_number) == (
            w.feasible, w.df, w.note, w.condition_number)
        if w.feasible:
            assert g.statistic == pytest.approx(w.statistic, rel=1e-12, abs=0)
            assert g.p_value == pytest.approx(w.p_value, rel=1e-12, abs=1e-300)
        else:
            assert np.isnan(g.statistic) and np.isnan(g.p_value)
    # an undefined cell takes only its own tests with it, on either scale:
    # two, or three for a diagonal cell
    touched = 0 if undefined is None else 2 + (undefined[0] == undefined[1])
    assert sum(not g.feasible for g in got) == touched + singular
