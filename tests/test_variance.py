import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from casemix import het, variance
from casemix.errors import SeparationWarning, SingularBread, TooManyFailedReplicates
from casemix.formula import ModelFormula, parse
from casemix.ipd import IpdDataset
from casemix.simlab import analysis_preset, generate_setting, preset_config
from casemix.transport import (IPW, IPW_STABILIZED, MEASURES, OCR, GridSettings,
                               effect_matrix, membership_columns, membership_eta,
                               standardized_grid, transport_weight)
from casemix.variance import (attach_covariance, bootstrap_cov, build_system,
                              sandwich_cov)

from bootstrap_oracle import oracle_bootstrap
from conftest import continuous_ds, separated_dataset

OUTCOME = parse("y ~ 1 + treat + L + treat:L")
PS = parse("study ~ 1 + L")


def _grid(ds, method, **kw):
    if method == OCR:
        return standardized_grid(ds, GridSettings(method, outcome_formula=OUTCOME, **kw))
    return standardized_grid(ds, GridSettings(method, ps_formula=PS, **kw))


@pytest.mark.parametrize("method", [OCR, IPW, IPW_STABILIZED])
def test_psi_mean_vanishes_at_solution(enum_ds, method):
    system = build_system(_grid(enum_ds, method))
    assert np.max(np.abs(system.psi_mean())) < 1e-8
    assert len(system.prob_rows) == 8
    assert system.n == enum_ds.n


def test_psi_mean_vanishes_multinomial(three_trial_ds):
    system = build_system(_grid(three_trial_ds, IPW_STABILIZED, ps_mode="multinomial"))
    assert np.max(np.abs(system.psi_mean())) < 1e-8
    assert len(system.prob_rows) == 18


@pytest.mark.parametrize("method,ps_mode", [
    (OCR, None), (IPW, "pairwise"), (IPW_STABILIZED, "multinomial")])
def test_build_system_builds_no_design(three_trial_ds, monkeypatch, method, ps_mode):
    # every design the sandwich evaluates is one the grid built for its cells
    grid = _grid(three_trial_ds, method, ps_mode=ps_mode, truncation=90.0)
    built = []
    design_matrix = ModelFormula.design_matrix

    def counted(self, *args, **kwargs):
        built.append(self)
        return design_matrix(self, *args, **kwargs)

    monkeypatch.setattr(ModelFormula, "design_matrix", counted)
    system = build_system(grid)
    assert built == []
    assert np.max(np.abs(system.psi_mean())) < 1e-8


@pytest.mark.parametrize("method,extra", [
    (OCR, {}),
    (IPW, {}),
    (IPW_STABILIZED, {}),
    (IPW_STABILIZED, {"expit_weight": True}),
])
def test_bread_matches_finite_differences(method, extra):
    ds = continuous_ds(seed=4, n=400)
    system = build_system(_grid(ds, method, **extra))
    an = system.bread()
    fd = system.bread_fd()
    scale = 1.0 + np.max(np.abs(an))
    assert np.max(np.abs(fd - an)) / scale < 1e-4


def test_bread_matches_finite_differences_multinomial(three_trial_ds):
    system = build_system(_grid(three_trial_ds, IPW, ps_mode="multinomial"))
    an = system.bread()
    fd = system.bread_fd()
    scale = 1.0 + np.max(np.abs(an))
    assert np.max(np.abs(fd - an)) / scale < 1e-4


def test_sandwich_cov_full_grid(enum_ds):
    res = sandwich_cov(_grid(enum_ds, IPW))
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
    res = sandwich_cov(_grid(oob_ds, IPW))
    S = res.sigma["or"]
    bad = res.cell_order().index(("1", "2"))
    assert np.all(np.isnan(S[bad, :]))
    assert np.all(np.isnan(S[:, bad]))
    keep = [i for i in range(4) if i != bad]
    assert np.all(np.isfinite(S[np.ix_(keep, keep)]))
    assert np.isnan(res.se["or"][bad])
    assert np.all(np.isfinite(res.sigma["rr"]))


def test_attach_covariance(enum_ds):
    grid = _grid(enum_ds, IPW)
    mat = effect_matrix(grid, "rr")
    res = sandwich_cov(grid, measures=("rr",))
    attach_covariance(mat, res)
    assert mat.covariance_method == "sandwich"
    assert mat.sigma.shape == (4, 4)
    for i, jk in enumerate(mat.cell_order()):
        assert mat.cells[jk].se_transformed == pytest.approx(
            float(np.sqrt(mat.sigma[i, i])))


def test_attach_covariance_requires_measure(enum_ds):
    grid = _grid(enum_ds, IPW)
    mat = effect_matrix(grid, "or")
    res = sandwich_cov(grid, measures=("rr",))
    with pytest.raises(ValueError, match="lacks measure"):
        attach_covariance(mat, res)


def test_attach_covariance_undefined_cell_gets_none(oob_ds):
    grid = _grid(oob_ds, IPW)
    mat = effect_matrix(grid, "or", collect_errors=True)
    res = sandwich_cov(grid)
    attach_covariance(mat, res)
    assert mat.cells[("1", "2")].se_transformed is None
    assert mat.cells[("2", "1")].se_transformed is not None


def test_probability_scale_system_for_single_cells(enum_ds):
    # the system stops at the standardized probabilities: one membership fit
    # (2 coefficients), 2 arm proportions and 8 probabilities
    system = build_system(_grid(enum_ds, IPW))
    assert system.m == 2 + 2 + 8
    S = system.sandwich()
    row = system.prob_rows[("1", "2", 1)]
    assert S[row, row] > 0


def test_bootstrap_deterministic_given_seed(enum_ds):
    a = bootstrap_cov(_grid(enum_ds, IPW), measures=("rr",), B=16,
                      seed=3)
    b = bootstrap_cov(_grid(enum_ds, IPW), measures=("rr",), B=16,
                      seed=3)
    c = bootstrap_cov(_grid(enum_ds, IPW), measures=("rr",), B=16,
                      seed=4)
    assert np.array_equal(a.sigma["rr"], b.sigma["rr"], equal_nan=True)
    assert not np.allclose(a.sigma["rr"], c.sigma["rr"], equal_nan=True)
    assert a.method == "bootstrap"
    assert a.replicates == 16
    assert np.all(a.excluded["rr"] == 0)


def test_bootstrap_needs_two_replicates(enum_ds):
    with pytest.raises(ValueError, match="at least two"):
        bootstrap_cov(_grid(enum_ds, IPW), B=1)


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
        bootstrap_cov(_grid(enum_ds, IPW), measures=("rr",), B=8,
                      seed=0, _indices=rig)


def test_bootstrap_excludes_replicate_that_raises_casemix_error(enum_ds):
    # replicate 0 keeps only trial 2's treated rows: SingleArmStudy excludes it
    def rig(b, rng, study_rows):
        if b == 0:
            return np.concatenate([study_rows[0],
                                   study_rows[1][enum_ds.treat[study_rows[1]] == 1]])
        return np.concatenate([rows[rng.integers(0, len(rows), len(rows))]
                               for rows in study_rows])

    res = bootstrap_cov(_grid(enum_ds, IPW), measures=("rr",), B=6,
                        seed=0, _indices=rig)
    assert np.all(res.excluded["rr"] == 1)


def test_every_bootstrap_replicate_gets_the_grid_settings(enum_ds, monkeypatch):
    # each replicate's draw is validated through `IpdDataset.subset`, and its
    # covariance is that of grids rebuilt with the parent grid's settings
    grid = _grid(enum_ds, IPW, truncation=90.0)
    subsets = []
    subset = IpdDataset.subset
    monkeypatch.setattr(IpdDataset, "subset",
                        lambda self, rows: subsets.append(rows) or subset(self, rows))
    res = bootstrap_cov(grid, measures=("rr",), B=5, seed=0)
    assert len(subsets) == 5
    monkeypatch.undo()
    ref = oracle_bootstrap(grid, ("rr",), B=5, seed=0, settings=grid.settings)
    scale = np.max(np.diag(ref["sigma"]["rr"]))
    assert np.max(np.abs(res.sigma["rr"] - ref["sigma"]["rr"])) <= 1e-10 * scale


def test_bootstrap_surfaces_programming_errors(enum_ds, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a programming error")

    grid = _grid(enum_ds, IPW)
    monkeypatch.setattr(variance, "fit_counts", broken)
    with pytest.raises(TypeError, match="programming error"):
        bootstrap_cov(grid, measures=("rr",), B=4, seed=0)


def test_sandwich_rejects_unknown_measure(enum_ds):
    with pytest.raises(ValueError, match="unknown measure"):
        sandwich_cov(_grid(enum_ds, IPW), measures=("hr",))


def test_bootstrap_rejects_unknown_measure(enum_ds):
    # a misspelt measure used to come back as another measure's covariance
    with pytest.raises(ValueError, match="unknown measure 'hr'"):
        bootstrap_cov(_grid(enum_ds, IPW), measures=("hr", "or"), B=4)


def test_effect_matrix_rejects_unknown_measure(enum_ds):
    with pytest.raises(ValueError, match="unknown measure"):
        effect_matrix(_grid(enum_ds, IPW), "hr")


def test_routes_accept_the_same_spellings(enum_ds):
    grid = _grid(enum_ds, IPW)
    assert effect_matrix(grid, "RR").measure == "rr"
    upper, lower = sandwich_cov(grid, ("RR",)), sandwich_cov(grid, ("rr",))
    assert np.array_equal(upper.sigma["rr"], lower.sigma["rr"])
    upper, lower = bootstrap_cov(grid, ("Or",), B=4), bootstrap_cov(grid, ("or",), B=4)
    assert np.array_equal(upper.sigma["or"], lower.sigma["or"])


def test_sandwich_raises_singular_bread_on_separated_outcome():
    # trial 2's outcome equals L, so its outcome fit diverges and the bread
    # loses rank numerically
    with pytest.warns(SeparationWarning):
        grid = standardized_grid(separated_dataset(),
                                 GridSettings(OCR, outcome_formula=OUTCOME))
    with pytest.raises(SingularBread, match="condition number") as exc:
        sandwich_cov(grid)
    assert exc.value.condition_number >= variance.COND_LIMIT


def test_separated_pair_membership_fit_raises_singular_bread():
    # replication 29 of `simulate --preset 5 --n-total 300 --seed 7` with IPW1:
    # the pair membership fit separates (gamma near (674, 683)), and its
    # weights once overflowed on the other trial's rows into a NaN bread
    ds = generate_setting(preset_config(5, n_total=300), [7, 1, 29])
    with pytest.warns(SeparationWarning):
        grid = standardized_grid(ds, GridSettings(IPW, ps_formula=PS))
    with pytest.raises(SingularBread, match="condition number") as exc:
        sandwich_cov(grid)
    assert exc.value.condition_number >= variance.COND_LIMIT


def _three_trials_sized(sizes=(201, 221, 241), seed=1) -> IpdDataset:
    """Three trials of sizes n_k with n_k - 1 divisible by 20, so each cell's
    95th weight percentile is one of its weights."""
    rng = np.random.default_rng(seed)
    S = np.repeat(np.arange(len(sizes)), sizes)
    L = rng.normal(0.0, 1.0, size=len(S)) + 0.5 * S
    treat = np.concatenate([np.arange(m) % 2 for m in sizes])
    p = 1.0 / (1.0 + np.exp(-(-0.2 + 0.4 * treat + 0.5 * L - 0.3 * treat * L)))
    y = (rng.random(len(S)) < p).astype(int)
    return IpdDataset.from_arrays(["L"], ["a", "b", "c"], S, treat, y, L[:, None])


@pytest.mark.parametrize("ps_mode", ["multinomial", "pairwise"])
def test_bread_drops_weight_derivative_exactly_where_the_grid_caps(ps_mode):
    # expected bread rows of every off-diagonal probability, from the grid's
    # own weights: a weight has no derivative where it is strictly above the
    # grid's cap, and one at the cap keeps it
    ds = _three_trials_sized()
    grid = standardized_grid(ds, GridSettings(IPW_STABILIZED, ps_formula=PS, ps_mode=ps_mode,
                                              truncation=95.0))
    system = build_system(grid)
    A = system.bread()
    p = len(PS.column_names())
    offsets, start = {}, 0              # membership blocks lead theta, in fit order
    for fit in grid.membership_fits.values():
        offsets[id(fit)] = start
        start += fit.coef.size
    at_cap = 0
    for j in ds.studies:
        for k in ds.studies:
            if j == k:
                continue
            rows = ds.study_rows[ds.study_number(k)]
            Z = PS.design_matrix(ds.covariate_columns(rows))
            fit = grid.membership_fit(j, k)
            kept, j_col, k_col = membership_columns(fit, ds, j, k)
            w_raw = transport_weight(membership_eta(grid.design(PS, k, kept), fit.coef),
                                     j_col, k_col)[0]
            cap = grid[(j, k, 1)].weights_summary.truncated_at
            at_cap += int(np.sum(w_raw == cap))
            dw = np.where(w_raw > cap, 0.0, w_raw)     # d exp(eta_j - eta_k) / d eta_j
            # eta_j enters with +1 and eta_k with -1; the reference has none
            blocks = [(offsets[id(fit)] + col * p, sign)
                      for col, sign in ((j_col, 1.0), (k_col, -1.0)) if col is not None]
            for x in (0, 1):
                row = system.prob_rows[(j, k, x)]
                arm = (ds.treat[rows] == x).astype(float)
                resid = arm * (ds.outcome[rows] - grid[(j, k, x)].prob)
                want = np.zeros(system.m)
                for off, sign in blocks:
                    want[off:off + p] -= sign * (Z.T @ (resid * dw)) / ds.n
                want[row] = np.sum(arm * np.minimum(w_raw, cap)) / ds.n
                scale = np.max(np.abs(want))
                assert np.max(np.abs(A[row] - want)) <= 1e-12 * scale, (j, k, x)
    assert at_cap == 6                  # one weight sits exactly at each cell's cap


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


def _stacked_oracle(grid, measure) -> np.ndarray:
    """Sigma of one measure as a stacked M-estimator forms it: a delta row
    t - g(p1, p0) per defined cell appended to the system, which extends the
    bread to [[A, 0], [G, -I]] and the meat by zeros; NaN for undefined cells."""
    system = build_system(grid)
    A, B, m = system.bread(), system.meat(), system.m
    order = [(j, k) for j in grid.ds.studies for k in grid.ds.studies]
    G, cells = [], []
    for c, (j, k) in enumerate(order):
        p1, p0 = grid[(j, k, 1)].prob, grid[(j, k, 0)].prob
        if measure == "rd":
            g = (1.0, -1.0)
        elif measure == "rr" and p1 > 0 and p0 > 0:
            g = (1.0 / p1, -1.0 / p0)
        elif measure == "or" and 0 < p1 < 1 and 0 < p0 < 1:
            g = (1.0 / (p1 * (1 - p1)), -1.0 / (p0 * (1 - p0)))
        else:
            continue
        row = np.zeros(m)
        row[system.prob_rows[(j, k, 1)]], row[system.prob_rows[(j, k, 0)]] = g
        G.append(row)
        cells.append(c)
    q = len(cells)
    A_ext = np.block([[A, np.zeros((m, q))], [np.array(G), -np.eye(q)]])
    B_ext = np.zeros((m + q, m + q))
    B_ext[:m, :m] = B
    A_inv = np.linalg.inv(A_ext)
    S = A_inv @ B_ext @ A_inv.T / system.n
    out = np.full((len(order), len(order)), np.nan)
    out[np.ix_(cells, cells)] = S[m:, m:]
    return out


@pytest.mark.parametrize("data,method,kw", [
    ("enum_ds", OCR, {"outcome_formula": OUTCOME}),
    ("enum_ds", IPW, {"ps_formula": PS}),
    ("enum_ds", IPW_STABILIZED, {"ps_formula": PS}),
    ("oob_ds", IPW, {"ps_formula": PS}),
    ("three_trial_ds", IPW, {"ps_formula": PS, "ps_mode": "multinomial"}),
    ("continuous", OCR, {"outcome_formula": OUTCOME,
                         "overrides": {("a", "c"): parse("y ~ 1 + treat + L")}}),
    ("continuous", IPW, {"ps_formula": PS, "ps_mode": "pairwise"}),
    ("continuous", IPW_STABILIZED, {"ps_formula": PS, "ps_mode": "multinomial"}),
    ("continuous", IPW_STABILIZED, {"ps_formula": PS, "truncation": 95.0}),
    ("continuous", IPW, {"ps_formula": PS, "ps_mode": "pairwise", "truncation": 95.0}),
])
def test_sandwich_matches_stacked_oracle(request, data, method, kw):
    # the delta method D Sigma_p D^T equals the stacked system with effect rows
    ds = _three_trial_continuous() if data == "continuous" else request.getfixturevalue(data)
    grid = standardized_grid(ds, GridSettings(method, **kw))
    res = sandwich_cov(grid)
    for msr in ("rr", "or", "rd"):
        oracle = _stacked_oracle(grid, msr)
        got = res.sigma[msr]
        assert np.array_equal(np.isnan(got), np.isnan(oracle))
        ok = ~np.isnan(oracle)
        assert np.all(np.isfinite(np.diag(got)[np.diag(ok)]))
        scale = np.max(np.abs(oracle[ok]))
        assert np.max(np.abs(got[ok] - oracle[ok])) <= 1e-10 * scale, msr


def _doubled(ds) -> IpdDataset:
    """Every row twice, the copies interleaved with the other trials' rows."""
    return ds.subset(np.concatenate([np.arange(ds.n), np.arange(ds.n)]))


@pytest.mark.parametrize("data,method,kw", [
    ("continuous", OCR, {"outcome_formula": OUTCOME,
                         "overrides": {("a", "c"): parse("y ~ 1 + treat + L")}}),
    ("continuous", IPW, {"ps_formula": PS, "ps_mode": "pairwise"}),
    ("continuous", IPW_STABILIZED, {"ps_formula": PS, "ps_mode": "multinomial"}),
    ("continuous", IPW_STABILIZED, {"ps_formula": PS, "expit_weight": True,
                                    "truncation": 90.0}),
    ("doubled", IPW, {"ps_formula": PS, "ps_mode": "multinomial", "truncation": 90.0}),
    ("doubled", OCR, {"outcome_formula": OUTCOME}),
])
def test_trial_blocked_meat_equals_dense_meat(data, method, kw):
    # the meat sums one Gram matrix per trial block; the full psi, assembled
    # from the same blocks, gives psi'psi / n
    ds = _three_trial_continuous()
    if data == "doubled":
        ds = _doubled(ds)
    for rows in ds.study_rows:                  # trials interleave in the data
        assert np.any(np.diff(rows) > 1)
    system = build_system(standardized_grid(ds, GridSettings(method, **kw)))
    psi = system.psi()
    dense = psi.T @ psi / system.n
    B = system.meat()
    assert np.max(np.abs(B - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_unstabilized_diagonal_cell_writes_both_terms_in_one_block():
    # on (j, j) the reweighted outcome and the subtracted probability share
    # trial j's block: psi = arm y / pi_x - p there
    ds = _three_trial_continuous()
    grid = standardized_grid(ds, GridSettings(IPW, ps_formula=PS, ps_mode="pairwise"))
    system = build_system(grid)
    psi = system.psi()
    rows = ds.study_rows[0]
    treat, y = ds.treat[rows], ds.outcome[rows]
    pi = np.mean(treat)
    for x, pi_x in ((1, pi), (0, 1.0 - pi)):
        p = grid[("a", "a", x)].prob
        want = (treat == x) * y / pi_x - p
        assert np.max(np.abs(psi[rows, system.prob_rows[("a", "a", x)]] - want)) < 1e-12
        others = np.setdiff1d(np.arange(ds.n), rows)
        assert np.all(psi[others, system.prob_rows[("a", "a", x)]] == 0.0)


@pytest.mark.parametrize("method", [OCR, IPW, IPW_STABILIZED])
def test_duplicating_every_row_halves_sigma(method):
    ds = _three_trial_continuous()
    one = sandwich_cov(_grid(ds, method))
    two = sandwich_cov(_grid(_doubled(ds), method))
    for msr in ("rr", "or", "rd"):
        scale = np.max(np.diag(one.sigma[msr]))
        assert np.max(np.abs(2.0 * two.sigma[msr] - one.sigma[msr])) <= 1e-12 * scale, msr


def test_meat_never_allocates_the_dense_psi():
    # the meat holds one trial block at a time, not the n x m psi
    rng = np.random.default_rng(3)
    sizes = (3000, 3500, 4000, 4500, 5000)
    S = np.repeat(np.arange(5), sizes)
    L = rng.normal(0.0, 1.0, size=len(S)) + 0.3 * S
    treat = rng.integers(0, 2, size=len(S))
    y = (rng.random(len(S)) < 1.0 / (1.0 + np.exp(-(0.3 * treat + 0.5 * L)))).astype(int)
    ds = IpdDataset.from_arrays(["L"], list("abcde"), S, treat, y, L[:, None])
    system = build_system(standardized_grid(ds, GridSettings(IPW, ps_formula=PS,
                                                             ps_mode="multinomial")))
    tracemalloc.start()
    try:
        system.meat()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < system.n * system.m * 8 / 4


@pytest.mark.parametrize("preset", [1, 3])
@pytest.mark.parametrize("method", [IPW, IPW_STABILIZED])
def test_two_trial_pairwise_membership_equals_multinomial(preset, method):
    # at K = 2 a pair's membership fit is the multinomial fit over both
    # trials, so the membership mode changes nothing: one fit, and the grid
    # and the sandwich equal to the bit
    ds = generate_setting(preset_config(preset), 3)
    ps = analysis_preset("IPW1", preset).settings.ps_formula
    pair, multi = (standardized_grid(ds, GridSettings(method, ps_formula=ps, ps_mode=mode))
                   for mode in ("pairwise", "multinomial"))
    a, b = ds.studies
    assert pair.membership_fit(a, b) is pair.membership_fit(b, a)
    assert list(pair.membership_fits) == list(multi.membership_fits) == [(0, 1)]
    assert np.array_equal(pair.membership_fit(a, b).coef, multi.membership_fit(a, b).coef)
    assert len(pair) == len(multi) == 8
    for key, cell in multi.items():
        assert pair[key].prob == cell.prob, key
    one, other = sandwich_cov(pair), sandwich_cov(multi)
    for msr, sigma in other.sigma.items():
        assert np.array_equal(one.sigma[msr], sigma, equal_nan=True), msr


def _relabelled(ds, order) -> IpdDataset:
    """`ds` with its trials numbered in the label order `order`, rows as they are."""
    number = np.array([order.index(lab) for lab in ds.studies])
    return IpdDataset.from_arrays(list(ds.schema.names), list(order), number[ds.study_idx],
                                  ds.treat, ds.outcome, ds.cov)


@pytest.mark.parametrize("method,kw", [
    (IPW, {"ps_formula": PS, "ps_mode": "pairwise"}),
    (IPW, {"ps_formula": PS, "ps_mode": "multinomial"}),
    (OCR, {"outcome_formula": OUTCOME}),
])
def test_permuting_trial_labels_permutes_grid_sigma_and_tests(method, kw):
    # the trials' numbering picks each membership fit's reference and the
    # order of its categories, but no estimate may depend on it
    ds = _three_trial_continuous()
    settings = GridSettings(method, **kw)

    def analyse(data):
        grid = standardized_grid(data, settings)
        matrix = effect_matrix(grid, "rr")
        attach_covariance(matrix, sandwich_cov(grid, measures=("rr",)))
        return grid, matrix, {t.hypothesis: t for t in het.all_tests(matrix)}

    grid, matrix, tests = analyse(ds)
    scale = np.max(np.diag(matrix.sigma))
    for order in (("b", "c", "a"), ("c", "a", "b"), ("c", "b", "a")):
        pgrid, pmatrix, ptests = analyse(_relabelled(ds, order))
        assert pmatrix.labels == order
        for key, cell in grid.items():
            assert abs(pgrid[key].prob - cell.prob) <= 1e-12 * abs(cell.prob), (order, key)
        idx = [pmatrix.cell_index(j, k) for j, k in matrix.cell_order()]
        diff = np.abs(pmatrix.sigma[np.ix_(idx, idx)] - matrix.sigma)
        assert np.max(diff) <= 1e-10 * scale, order
        assert set(ptests) == set(tests)
        for name, t in tests.items():
            assert ptests[name].df == t.df, (order, name)
            assert abs(ptests[name].statistic - t.statistic) <= 1e-10 * t.statistic, (order, name)


def _rows_shuffled_within_trials(ds, seed) -> IpdDataset:
    """`ds` with each trial's rows in a random order, each trial keeping the
    positions its rows held."""
    rng = np.random.default_rng(seed)
    idx = np.arange(ds.n)
    for rows in ds.study_rows:
        idx[rows] = rng.permutation(rows)
    return ds.subset(idx)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("method,kw", [
    (IPW, {"ps_formula": PS, "ps_mode": "pairwise"}),
    (IPW, {"ps_formula": PS, "ps_mode": "multinomial"}),
    (OCR, {"outcome_formula": OUTCOME}),
])
def test_permuting_rows_within_trials_changes_nothing_beyond_rounding(method, kw, seed):
    # every estimate is a sum over each trial's rows, so the rows' order may
    # move the grid, Sigma and the het statistics by rounding only; every fit
    # here is well posed, so where Newton stops does not hinge on rounding
    ds = _three_trial_continuous()
    grid_settings = GridSettings(method, **kw)

    def analyse(data):
        grid = standardized_grid(data, grid_settings)
        matrix = effect_matrix(grid, "rr")
        attach_covariance(matrix, sandwich_cov(grid, measures=("rr",)))
        return grid, matrix, {t.hypothesis: t for t in het.all_tests(matrix)}

    grid, matrix, tests = analyse(ds)
    pgrid, pmatrix, ptests = analyse(_rows_shuffled_within_trials(ds, seed))
    assert all(not fit.separation_flag for fit in
               [*grid.outcome_fits.values(), *grid.membership_fits.values()])
    for key, cell in grid.items():
        assert abs(pgrid[key].prob - cell.prob) <= 1e-12 * abs(cell.prob), key
    scale = np.max(np.diag(matrix.sigma))
    assert np.max(np.abs(pmatrix.sigma - matrix.sigma)) <= 1e-10 * scale
    assert set(ptests) == set(tests)
    for name, t in tests.items():
        assert ptests[name].df == t.df, name
        assert abs(ptests[name].statistic - t.statistic) <= 1e-10 * t.statistic, name


def _interleaved(ds, order) -> IpdDataset:
    """`ds` with its trials' rows interleaved as the trial numbers `order`
    run, each trial's rows in their own order."""
    order = np.asarray(order)
    idx = np.empty(ds.n, dtype=np.intp)
    for s, rows in enumerate(ds.study_rows):
        idx[order == s] = rows
    return ds.subset(idx)


_CONTINUOUS_TRIALS = _three_trial_continuous().study_idx.tolist()


@settings(max_examples=10, deadline=None)
@given(order=st.permutations(_CONTINUOUS_TRIALS))
@example(order=sorted(_CONTINUOUS_TRIALS))
@pytest.mark.parametrize("method,kw", [
    (IPW, {"ps_formula": PS, "ps_mode": "pairwise"}),
    (IPW_STABILIZED, {"ps_formula": PS, "ps_mode": "multinomial", "truncation": 90.0}),
    (OCR, {"outcome_formula": OUTCOME, "overrides": {("b", "a"): parse("y ~ 1 + treat + L")}}),
])
def test_interleaving_the_trials_rows_changes_nothing(method, kw, order):
    # every model is fitted on its trials' rows trial by trial and every
    # estimate is a sum over each trial's rows, so how the trials' rows
    # interleave moves no number, not even by rounding
    ds = _three_trial_continuous()
    grid_settings = GridSettings(method, **kw)

    def analyse(data):
        grid = standardized_grid(data, grid_settings)
        matrix = effect_matrix(grid, "rr")
        sandwich = sandwich_cov(grid)
        attach_covariance(matrix, sandwich)
        return (grid, sandwich, bootstrap_cov(grid, B=20, seed=11),
                {t.hypothesis: t for t in het.all_tests(matrix)})

    grid, sandwich, boot, tests = analyse(ds)
    pgrid, psandwich, pboot, ptests = analyse(_interleaved(ds, order))
    assert list(pgrid) == list(grid)
    for key, cell in grid.items():
        assert pgrid[key] == cell, key      # prob, WeightDiagnostics, out_of_bounds
    for msr in MEASURES:
        assert np.array_equal(psandwich.sigma[msr], sandwich.sigma[msr], equal_nan=True), msr
        assert np.array_equal(pboot.sigma[msr], boot.sigma[msr], equal_nan=True), msr
        assert np.array_equal(pboot.excluded[msr], boot.excluded[msr]), msr
    assert pboot.failures == boot.failures
    assert set(ptests) == set(tests)
    for name, t in tests.items():
        assert ptests[name].statistic == t.statistic, name
        assert ptests[name].p_value == t.p_value, name


@pytest.mark.parametrize("method,ps_mode", [
    (OCR, None), (IPW, "pairwise"), (IPW_STABILIZED, "multinomial")])
def test_each_design_row_is_built_once(monkeypatch, method, ps_mode):
    # a fit builds its design once, trial by trial, and each trial's block of
    # it is the design its cells, sandwich components and bootstrap refits
    # evaluate; OCR cells add the design of each target trial at treat 0 and 1
    ds = _three_trials_sized()
    grid_settings = (GridSettings(OCR, outcome_formula=OUTCOME) if method == OCR else
                     GridSettings(method, ps_formula=PS, ps_mode=ps_mode, truncation=90.0))
    rows = {}
    design_matrix = ModelFormula.design_matrix

    def counted(self, *args, **kwargs):
        X = design_matrix(self, *args, **kwargs)
        rows[self] = rows.get(self, 0) + len(X)
        return X

    monkeypatch.setattr(ModelFormula, "design_matrix", counted)
    grid = standardized_grid(ds, grid_settings)
    if method == OCR:
        assert rows == {OUTCOME: 3 * ds.n}
    elif ps_mode == "pairwise":         # each trial's rows once in each of its K - 1 pairs
        assert rows == {PS: (ds.K - 1) * ds.n}
    else:
        assert rows == {PS: ds.n}
    if method != OCR:       # the grid holds each trial's rows once, in any mode
        roots = {}
        for Z in grid._designs.values():
            while Z.base is not None:
                Z = Z.base
            roots[id(Z)] = len(Z)
        assert sum(roots.values()) == ds.n
    rows.clear()
    build_system(grid)
    bootstrap_cov(grid, B=4, seed=0)
    assert rows == {}
    assert ("arms" in vars(grid)) == (method != OCR)    # an OCR grid builds no arm arrays
