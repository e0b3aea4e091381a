"""The batched count-weight bootstrap against the per-replicate oracle
(`bootstrap_oracle`), and the count-weighted fits against fits on the
expanded rows."""

import json
import os
import re
import warnings
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from casemix import cli, glm, variance
from casemix.errors import (AllSameResponse, CasemixError, NoConvergence, RankDeficient,
                            SeparationWarning)
from casemix.formula import parse
from casemix.glm import fit_counts, fit_logistic, fit_multinomial
from casemix.ipd import save_ipd
from casemix.transport import IPW, IPW_STABILIZED, OCR, GridSettings, standardized_grid
from casemix.variance import _CountReplicates, _entropy, _pairwise_cov, bootstrap_cov

from bootstrap_oracle import oracle_bootstrap, pairwise_cov_loop, replicate_probs
from conftest import continuous_ds, enum_dataset, separated_dataset

OUTCOME = parse("y ~ 1 + treat + L + treat:L")
PS = parse("study ~ 1 + L")
MEASURES = ("rr", "or", "rd")


def _settings(method, **kw):
    if method == OCR:
        return GridSettings(OCR, outcome_formula=OUTCOME, **kw)
    return GridSettings(method, ps_formula=PS, **kw)


def _recorded(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return out, caught


def _scaled_diff(a, b) -> float:
    """Largest absolute difference over the largest variance."""
    return float(np.nanmax(np.abs(a - b)) / np.nanmax(np.abs(np.diag(b))))


def _check_against_oracle(grid, B, seed=0, _indices=None, measures=MEASURES):
    res, caught = _recorded(bootstrap_cov, grid, measures, B=B, seed=seed, _indices=_indices)
    ref, ref_caught = _recorded(oracle_bootstrap, grid, measures, B, seed, _indices)
    for msr in measures:
        assert np.array_equal(np.isnan(res.sigma[msr]), np.isnan(ref["sigma"][msr])), msr
        assert _scaled_diff(res.sigma[msr], ref["sigma"][msr]) <= 1e-10, msr
        assert np.array_equal(res.excluded[msr], ref["excluded"][msr]), msr
    assert res.failures == ref["failures"]
    assert {str(w.message) for w in caught} == {str(w.message) for w in ref_caught}
    return res, caught, ref_caught


def _three_trials():
    from conftest import cell, dataset_from_cells
    return dataset_from_cells([
        cell("1", 0, 1, 50, 25), cell("1", 0, 0, 50, 25),
        cell("1", 1, 1, 50, 25), cell("1", 1, 0, 50, 25),
        cell("2", 0, 1, 30, 12), cell("2", 0, 0, 30, 6),
        cell("2", 1, 1, 10, 8), cell("2", 1, 0, 10, 4),
        cell("3", 0, 1, 20, 10), cell("3", 0, 0, 20, 10),
        cell("3", 1, 1, 40, 20), cell("3", 1, 0, 40, 20),
    ])


CASES = {
    "enum-ocr": (enum_dataset, _settings(OCR)),
    "enum-ipw": (enum_dataset, _settings(IPW)),
    "enum-ipw-s": (enum_dataset, _settings(IPW_STABILIZED)),
    "three-pairwise": (_three_trials, _settings(IPW, ps_mode="pairwise")),
    "three-multinomial": (_three_trials, _settings(IPW)),
    "three-multinomial-s": (_three_trials, _settings(IPW_STABILIZED)),
    "three-ocr-override": (_three_trials, _settings(
        OCR, overrides={("2", "1"): parse("y ~ 1 + treat + L")})),
    "continuous-truncation": (continuous_ds, _settings(IPW, truncation=95.0)),
    "continuous-expit": (continuous_ds, _settings(IPW, expit_weight=True)),
    "continuous-warns": (continuous_ds, _settings(IPW_STABILIZED, truncation=80.0,
                                                   positivity_threshold=1.2)),
}


def _literal_cells(grid) -> dict:
    """(j, k, x) -> the cell by its textbook formula at the grid's fits: the
    mean of expit(X beta) over trial j's rows (OCR); or trial k's arm-x
    outcomes weighted by exp(eta_j - eta_k), or by the softmax P(S=j|L) under
    expit_weight, capped at np.percentile of the cell's weights, as
    sum(arm w y) / sum(arm w) (stabilized) or sum(arm w y) / (pi_x n_j)."""
    ds, s = grid.ds, grid.settings
    out = {}
    for j in ds.studies:
        mj = ds.mask(j)
        for k in ds.studies:
            mk = ds.mask(k)
            model = grid.cells[ds.studies.index(j) * ds.K + ds.studies.index(k)].model
            if s.method == OCR:
                form = s.overrides.get((j, k), s.outcome_formula)
                fit = grid.models[model].fit
                assert grid.models[model].trials == (k,) and fit.formula is form
                for x in (0, 1):
                    X = form.design_matrix(ds.covariate_columns(mj),
                                           treat=np.full(int(mj.sum()), float(x)))
                    out[(j, k, x)] = np.mean(1.0 / (1.0 + np.exp(-(X[:, fit.kept] @ fit.coef))))
                continue
            w = np.ones(int(mk.sum()))
            if j != k:
                fit = grid.models[model].fit
                assert set(grid.models[model].trials) == (
                    {j, k} if s.ps_mode == "pairwise" else set(ds.studies))
                Z = s.ps_formula.design_matrix(ds.covariate_columns(mk))[:, fit.kept]
                eta = np.column_stack([np.zeros(len(Z)), Z @ fit.coef.T])   # reference first
                order = [fit.reference] + [c for c in fit.categories if c != fit.reference]
                cj, ck = order.index(ds.study_number(j)), order.index(ds.study_number(k))
                P = np.exp(eta) / np.exp(eta).sum(axis=1, keepdims=True)
                w = P[:, cj] if s.expit_weight else np.exp(eta[:, cj] - eta[:, ck])
                if s.truncation is not None:
                    w = np.minimum(w, np.percentile(w, s.truncation))
            y, t = ds.outcome[mk], ds.treat[mk]
            for x in (0, 1):
                arm = t == x
                if s.method == IPW_STABILIZED:
                    out[(j, k, x)] = np.sum(arm * w * y) / np.sum(arm * w)
                else:
                    out[(j, k, x)] = np.sum(arm * w * y) / (arm.mean() * mj.sum())
    return out


@pytest.mark.parametrize("case", CASES)
def test_grid_cells_equal_their_literal_formulas(case):
    make, s = CASES[case]
    grid = _recorded(standardized_grid, make(), s)[0]
    ref = _literal_cells(grid)
    assert set(grid) == set(ref)
    for key, p in ref.items():
        assert abs(grid[key].prob - p) <= 1e-12 * abs(p), key


@pytest.mark.parametrize("case", CASES)
def test_bootstrap_equals_per_replicate_oracle(case):
    make, s = CASES[case]
    grid = _recorded(standardized_grid, make(), s)[0]
    _check_against_oracle(grid, B=24, seed=3)


def test_positivity_warnings_follow_each_replicate_draw():
    grid = _recorded(standardized_grid, continuous_ds(),
                     _settings(IPW, positivity_threshold=1.2))[0]
    caught, ref_caught = _check_against_oracle(grid, B=12)[1:]
    assert len(caught) == len(ref_caught) > 0


def _redraw(rows, rng):
    return rows[rng.integers(0, len(rows), len(rows))]


def test_replicate_that_loses_an_arm_is_counted_by_reason():
    ds = enum_dataset()

    def rig(b, rng, study_rows):
        if b == 2:
            return np.concatenate([study_rows[0],
                                   study_rows[1][ds.treat[study_rows[1]] == 1]])
        return np.concatenate([_redraw(r, rng) for r in study_rows])

    grid = standardized_grid(ds, _settings(IPW))
    res = _check_against_oracle(grid, B=6, _indices=rig, measures=("rr",))[0]
    assert res.failures == {"SingleArmStudy": 1}
    assert np.all(res.excluded["rr"] == 1)


def _logistic_failure(X, y, counts):
    """The error `fit_logistic` raises on the rows X, y each repeated as
    often as `counts` says (None when it fits)."""
    rows = np.repeat(np.arange(len(X)), counts.astype(np.intp))
    try:
        fit_logistic(X[rows], y[rows])
    except CasemixError as e:
        return type(e)
    return None


@pytest.mark.parametrize("max_iter", [glm.NEWTON_MAX_ITER, 1])
def test_count_fits_fail_as_the_logistic_fit_of_the_expanded_rows(monkeypatch, max_iter):
    # replicate 0 holds only rows where the one column is 0 (rank 0), 1 only
    # events, 2 and 3 are well posed: they fit in the iteration limit, but
    # not in one Newton iteration from zero
    monkeypatch.setattr(glm, "NEWTON_MAX_ITER", max_iter)
    x = np.repeat([0.0, 1.0, 2.0], 4)
    y = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
    counts = np.array([[2, 1, 1, 1] + [0] * 8, [0] * 5 + [1, 1, 1] + [0] * 4,
                       [1] * 12, [2, 0, 1, 1, 1, 0, 2, 1, 1, 1, 0, 3]], dtype=float)
    fits = fit_counts(x[:, None], y[:, None], counts)
    want = [_logistic_failure(x[:, None], y, c) for c in counts]
    assert fits.failure == want and not fits.separated.any()
    assert want == [RankDeficient, AllSameResponse] + (
        [None, None] if max_iter > 1 else [NoConvergence, NoConvergence])


def test_rank_deficient_and_unconverged_replicates_are_counted_by_name(monkeypatch):
    # the outcome model's one column, L, is 0 on every row replicate 1 draws
    # from trial 1 (rank 0); replicate 2 is a fresh draw that one Newton
    # iteration from the grid's fit does not fit; the other replicates hold
    # each row once, so the grid's fit is already their solution
    ds = enum_dataset()
    grid = standardized_grid(ds, GridSettings(OCR, outcome_formula=parse("y ~ 0 + L")))
    first = ds.study_rows[0]

    def rig(b, rng, study_rows):
        if b == 1:
            return np.concatenate([first[ds.cov[first, 0] == 0], study_rows[1]])
        if b == 2:
            return np.concatenate([_redraw(r, rng) for r in study_rows])
        return np.concatenate(study_rows)

    monkeypatch.setattr(glm, "NEWTON_MAX_ITER", 1)
    res = bootstrap_cov(grid, ("rd",), B=6, _indices=rig)
    assert res.failures == {"NoConvergence": 1, "RankDeficient": 1}
    assert np.all(res.excluded["rd"] == 2)


def test_replicate_with_no_weight_mass_in_an_arm_is_counted_by_reason(monkeypatch):
    # weights below 0.6 are rigged to 0: those of trial 2's L=0 rows toward
    # trial 1 (about 1/3). Replicate 2 draws trial 2's control arm from its
    # L=0 rows only, so that arm of cell (1, 2) has no weight mass
    from casemix import transport
    real = transport.transport_weight

    def rigged(eta, *args, **kwargs):
        w, dw = real(eta, *args, **kwargs)
        return np.where(w < 0.6, 0.0, w), dw

    monkeypatch.setattr(transport, "transport_weight", rigged)
    ds = enum_dataset()
    r2 = ds.study_rows[1]
    low_control = r2[(ds.treat[r2] == 0) & (ds.cov[r2, 0] == 0)]
    treated = r2[ds.treat[r2] == 1]

    def rig(b, rng, study_rows):
        if b == 2:
            second = np.concatenate([low_control[rng.integers(0, len(low_control), 400)],
                                     _redraw(treated, rng)])
        else:
            second = _redraw(study_rows[1], rng)
        return np.concatenate([_redraw(study_rows[0], rng), second])

    grid = standardized_grid(ds, _settings(IPW_STABILIZED))
    res = _check_against_oracle(grid, B=6, _indices=rig, measures=("rd",))[0]
    assert res.failures == {"DivisionByZero": 1}
    assert np.all(res.excluded["rd"] == 1)


@pytest.mark.parametrize("one_per_block", [True, False])
def test_replicate_with_a_constant_outcome_in_one_trial_is_excluded(monkeypatch, one_per_block):
    # with one replicate per block, the rigged replicate's block has no
    # replicate left for the second trial's outcome fit and the cells
    ds = enum_dataset()
    if one_per_block:
        monkeypatch.setattr(variance, "_BLOCK_CELLS", ds.n)
    r2 = ds.study_rows[1]
    no_events = np.concatenate([r2[(ds.outcome[r2] == 0) & (ds.treat[r2] == x)][:50]
                                for x in (0, 1)])

    def rig(b, rng, study_rows):
        second = no_events if b == 1 else _redraw(study_rows[1], rng)
        return np.concatenate([_redraw(study_rows[0], rng), second])

    grid = standardized_grid(ds, _settings(OCR))
    res = _check_against_oracle(grid, B=8, _indices=rig, measures=("rd",))[0]
    assert res.failures == {"AllSameResponse": 1}


def test_analyze_writes_failures_by_reason_after_every_other_key(tmp_path):
    path = str(tmp_path / "enum.csv")
    save_ipd(enum_dataset(), path)
    out = str(tmp_path / "boot")
    assert cli.main(["analyze", path, "--method", "ipw", "--ps-formula", "study ~ 1 + L",
                     "--variance", "bootstrap", "--bootstrap-b", "6", "--out", out]) == 0
    with open(os.path.join(out, "diagnostics.json")) as fh:
        diag = json.load(fh)
    assert list(diag)[-3:] == ["bootstrap_excluded", "bootstrap_replicates",
                               "bootstrap_failures"]
    assert diag["bootstrap_failures"] == {}


def test_separated_replicates_warn_and_match_the_oracle():
    grid = _recorded(standardized_grid, separated_dataset(), _settings(OCR))[0]
    caught, ref_caught = _check_against_oracle(grid, B=6, measures=("rd",))[1:]
    sep = [w for w in caught if issubclass(w.category, SeparationWarning)]
    assert len(sep) == sum(issubclass(w.category, SeparationWarning) for w in ref_caught) > 0
    # the replicate probabilities themselves, drawn as bootstrap_cov draws them
    ds = grid.ds
    rngs = [np.random.default_rng(np.random.SeedSequence(_entropy(0) + [b])) for b in range(6)]
    counts = np.array([np.bincount(np.concatenate([_redraw(r, rng) for r in ds.study_rows]),
                                   minlength=ds.n) for rng in rngs], dtype=float)
    probs = _recorded(_CountReplicates(grid).probs, counts, Counter())[0]
    ref = _recorded(replicate_probs, grid, 6)[0][0]
    assert np.max(np.abs(probs - ref)) <= 1e-8


def test_identical_calls_are_bitwise_equal():
    grid = standardized_grid(_three_trials(), _settings(IPW))
    a = bootstrap_cov(grid, MEASURES, B=40, seed=[5, 1])
    b = bootstrap_cov(grid, MEASURES, B=40, seed=[5, 1])
    for msr in MEASURES:
        assert a.sigma[msr].tobytes() == b.sigma[msr].tobytes()


def _block_probs(monkeypatch, grid, B, seed, block_cells) -> np.ndarray:
    """[replicate, cell, arm] probabilities of `bootstrap_cov`'s replicates
    (every draw valid) with `_BLOCK_CELLS` at `block_cells`."""
    seen = []
    real = _CountReplicates.probs

    def probs(self, counts, failures):
        seen.append(real(self, counts, failures))
        return seen[-1]

    with monkeypatch.context() as m:
        m.setattr(variance, "_BLOCK_CELLS", block_cells)
        m.setattr(_CountReplicates, "probs", probs)
        bootstrap_cov(grid, ("rd",), B=B, seed=seed)
    return np.concatenate(seen)


def test_replicate_blocks_are_set_by_the_data_shape(monkeypatch):
    # a small block bound splits the 30 replicates into the fewest blocks of
    # at most 4, of equal sizes give or take one; the draws and the results
    # per replicate do not depend on the split
    grid = standardized_grid(enum_dataset(), _settings(IPW))
    whole = bootstrap_cov(grid, ("rd",), B=30, seed=2)
    monkeypatch.setattr(variance, "_BLOCK_CELLS", 4 * grid.ds.n)
    replicates = _CountReplicates(grid)
    assert replicates.block == 4
    blocks = replicates.blocks(30)
    sizes = [stop - start for start, stop in blocks]
    assert len(blocks) == 8 and max(sizes) <= 4 and max(sizes) - min(sizes) <= 1
    assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
    assert blocks[-1][1] == 30
    split = bootstrap_cov(grid, ("rd",), B=30, seed=2)
    assert _scaled_diff(split.sigma["rd"], whole.sigma["rd"]) <= 1e-12
    one = _block_probs(monkeypatch, grid, 30, 2, grid.ds.n)
    for cells in (4 * grid.ds.n, variance._BLOCK_CELLS, 100 * grid.ds.n):
        probs = _block_probs(monkeypatch, grid, 30, 2, cells)
        assert probs.shape == one.shape == (30, 4, 2)
        assert np.max(np.abs(probs - one) / np.abs(one)) <= 1e-12


@pytest.mark.parametrize("B,block", [(50, 21), (50, 50), (50, 1), (7, 3), (2, 40)])
def test_blocks_are_the_fewest_under_the_bound_and_equal(monkeypatch, B, block):
    grid = standardized_grid(enum_dataset(), _settings(OCR))
    monkeypatch.setattr(variance, "_BLOCK_CELLS", block * grid.ds.n)
    blocks = _CountReplicates(grid).blocks(B)
    sizes = [stop - start for start, stop in blocks]
    assert len(blocks) == -(-B // block) and sum(sizes) == B
    assert max(sizes) <= block and max(sizes) - min(sizes) <= 1


def _single_arm_rig(ds):
    """Draws whose replicate 2 keeps only trial 2's treated rows."""
    def rig(b, rng, study_rows):
        if b == 2:
            return np.concatenate([study_rows[0],
                                   study_rows[1][ds.treat[study_rows[1]] == 1]])
        return np.concatenate([_redraw(r, rng) for r in study_rows])
    return rig


@pytest.mark.parametrize("case", ["enum-ocr", "enum-ipw", "enum-ipw-s", "three-pairwise",
                                  "single-arm"])
def test_shared_draws_give_the_bootstrap_of_its_own_draws(monkeypatch, case):
    # bit for bit, over blocks of 4 (and, for a trial pair that is not
    # adjacent in trial order, counts that are no view)
    make, s = CASES["enum-ipw" if case == "single-arm" else case]
    grid = _recorded(standardized_grid, make(), s)[0]
    rig = _single_arm_rig(grid.ds) if case == "single-arm" else None
    C = max(np.atleast_2d(model.fit.coef).shape[0] for model in grid.models)
    monkeypatch.setattr(variance, "_BLOCK_CELLS", 4 * grid.ds.n * C)
    own, caught = _recorded(bootstrap_cov, grid, MEASURES, B=12, seed=[4, 2], _indices=rig)
    draws = variance.draw_replicates(grid.ds, 12, [4, 2], _indices=rig)
    shared, shared_caught = _recorded(bootstrap_cov, grid, MEASURES, B=12, seed=[4, 2],
                                      draws=draws)
    for msr in MEASURES:
        assert shared.sigma[msr].tobytes() == own.sigma[msr].tobytes(), msr
        assert np.array_equal(shared.excluded[msr], own.excluded[msr]), msr
    assert shared.failures == own.failures
    assert [str(w.message) for w in shared_caught] == [str(w.message) for w in caught]
    if case == "single-arm":
        assert own.failures == {"SingleArmStudy": 1}
        assert draws.failure[2] == "SingleArmStudy" and not draws.counts[2].any()


def test_draws_are_counts_in_trial_order():
    # rows interleaved across trials: the columns follow the trials' rows
    ds = enum_dataset()
    ds = ds.subset(np.argsort(np.arange(ds.n) % 7, kind="stable"))
    assert not np.array_equal(np.concatenate(ds.study_rows), np.arange(ds.n))
    draws = variance.draw_replicates(ds, 3, seed=5)
    order = np.concatenate(ds.study_rows)
    for b in range(3):
        rng = np.random.default_rng(np.random.SeedSequence(_entropy(5) + [b]))
        idx = np.concatenate([_redraw(r, rng) for r in ds.study_rows])
        assert np.array_equal(draws.counts[b], np.bincount(idx, minlength=ds.n)[order])
    assert draws.failure == (None, None, None)


def test_draws_of_another_dataset_size_or_seed_are_refused():
    grid = standardized_grid(enum_dataset(), _settings(IPW))
    draws = variance.draw_replicates(grid.ds, 6, seed=1)
    other = standardized_grid(enum_dataset(), _settings(IPW))
    for g, kw in ((grid, {"B": 7, "seed": 1}), (grid, {"B": 6, "seed": 2}),
                  (other, {"B": 6, "seed": 1}),
                  (grid, {"B": 6, "seed": 1, "_indices": _single_arm_rig(grid.ds)})):
        with pytest.raises(ValueError, match="draw_replicates"):
            bootstrap_cov(g, ("rd",), draws=draws, **kw)
    bootstrap_cov(grid, ("rd",), B=6, seed=1, draws=draws)


@pytest.mark.parametrize("B", [True, 2.5, 3.0, "3", 1, 0, -1])
def test_a_replicate_count_that_is_not_an_integer_of_at_least_two_is_refused(B):
    grid = standardized_grid(enum_dataset(), _settings(IPW))
    msg = re.escape(f"B must be an integer of at least 2, not {B!r}")
    with pytest.raises(ValueError, match=msg):
        bootstrap_cov(grid, ("rd",), B=B)
    with pytest.raises(ValueError, match=msg):
        variance.draw_replicates(grid.ds, B)


@pytest.mark.parametrize("K", [2, 10])
def test_masked_pairwise_covariance_equals_the_pair_loop(K):
    rng = np.random.default_rng(K)
    D = rng.normal(size=(60, K * K)) * rng.uniform(0.01, 3.0, K * K) + rng.normal(size=K * K)
    D[rng.random(D.shape) < 0.15] = np.nan
    D[:, 0] = np.nan                    # no finite value
    D[1:, 1] = np.nan                   # one finite value: NaN everywhere
    D[:, 2] = 7.0                       # constant: zero variance
    M, ref = _pairwise_cov(D), pairwise_cov_loop(D)
    assert np.array_equal(np.isnan(M), np.isnan(ref))
    assert _scaled_diff(M, ref) <= 1e-12
    assert np.array_equal(M, M.T, equal_nan=True)


def _expanded_fit(X, y_or_cats, counts, multinomial):
    rows = np.repeat(np.arange(len(X)), counts.astype(int))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SeparationWarning)
            if multinomial:
                return fit_multinomial(X[rows], y_or_cats[rows], reference=0), None
            return fit_logistic(X[rows], y_or_cats[rows]), None
    except CasemixError as e:
        fit = getattr(e, "last_fit", None)
        return fit, type(e)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(25, 120), C=st.sampled_from([1, 2]),
       slope=st.floats(-2.0, 2.0), alias=st.booleans())
def test_each_count_weighted_fit_matches_the_fit_on_expanded_rows(seed, n, C, slope, alias):
    rng = np.random.default_rng(seed)
    L = rng.normal(size=n)
    cols = [np.ones(n), L, rng.random(n) < 0.5]
    if alias:
        cols.append(2.0 * L)            # aliased with L in every replicate
    X = np.column_stack(cols).astype(float)
    eta = np.column_stack([0.3 * c + slope * L for c in range(C)])
    P = np.exp(np.column_stack([np.zeros(n), eta]))
    cats = np.array([rng.choice(C + 1, p=p / p.sum()) for p in P])
    Y = (cats[:, None] == np.arange(1, C + 1)).astype(float)
    counts = np.array([np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(6)],
                      dtype=float)
    if C > 1:                           # every category observed, as a resample keeps every trial
        seen = np.column_stack([counts @ (cats == c) for c in range(C + 1)]) > 0
        counts = counts[seen.all(axis=1)]
    fits = fit_counts(X, Y, counts)
    for b in range(len(counts)):
        ref, error = _expanded_fit(X, cats if C > 1 else Y[:, 0], counts[b], C > 1)
        if NoConvergence not in (error, fits.failure[b]):
            assert fits.failure[b] is error
        if ref is None:
            continue
        assert np.array_equal(fits.kept[b], ref.kept)
        # Under (quasi-)separation the MLE is at infinity and where Newton
        # stops depends on rounding: the reference fit's own flags change when
        # its rows are permuted. Only a well-posed fit is compared.
        if ref.converged and ref.iterations <= 15:
            assert fits.converged[b] and not fits.separated[b]
            coef = fits.coef[b][:, ref.kept].reshape(ref.coef.shape)
            if C > 1:                   # the reference fit orders categories as they appear
                order = [c for c in ref.categories if c != 0]
                coef = coef[[c - 1 for c in order]]
            scale = np.max(np.abs(ref.coef))
            assert np.max(np.abs(coef - ref.coef)) <= 1e-10 * max(scale, 1.0)


def _separated_replicates():
    """Design (with an aliased column), response and two bootstrap count
    vectors whose expanded rows are completely separated: the fit's
    information goes numerically singular as its coefficients grow."""
    n = 25
    rng = np.random.default_rng(5652387)
    L = rng.normal(size=n)
    X = np.column_stack([np.ones(n), L, rng.random(n) < 0.5, 2.0 * L]).astype(float)
    P = np.exp(np.column_stack([np.zeros(n), -L]))
    y = np.array([rng.choice(2, p=q / q.sum()) for q in P], dtype=float)
    counts = np.array([np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(6)],
                      dtype=float)
    return X, y, counts[[1, 5]]


def test_a_separated_fit_never_accepts_a_rising_deviance():
    # every accepted Newton step keeps the deviance within its slack, so no
    # row order of a separated fit can end converged at a deviance above the
    # start's; before, 12 of these 80 logistic fits took a 30th halving that
    # raised it and ended converged at deviances of 1e8-1e210. The
    # two-category multinomial fit is the same fit: when it formed its score
    # as X'Y - X'P and its deviance as sum(lse) - sum(fit), 32 of its 80
    # ended "converged" on the cancellation's noise
    X, y, counts = _separated_replicates()
    fits = fit_counts(X, y[:, None], counts)
    assert not fits.converged.any() and fits.separated.all()
    for fitter in (fit_logistic, partial(fit_multinomial, reference=0)):
        order = np.random.default_rng(0)
        for c in counts:
            rows = np.repeat(np.arange(len(X)), c.astype(int))
            start = 2.0 * len(rows) * np.log(2.0)
            for _ in range(40):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", SeparationWarning)
                    fit = fitter(X[rows], y[rows])
                assert fit.separation_flag and not fit.converged
                assert fit.deviance <= start
                rows = order.permutation(rows)


def _aliased_replicates(C, seed=3, n=60):
    """Design with a column aliased in every replicate, C-category indicators
    and eight replicates' counts; the last holds only reference rows."""
    rng = np.random.default_rng(seed)
    L = rng.normal(size=n)
    X = np.column_stack([np.ones(n), L, rng.random(n) < 0.5, 2.0 * L]).astype(float)
    eta = np.column_stack([np.zeros(n)] + [0.3 * c + 1.2 * L for c in range(C)])
    P = np.exp(eta)
    cats = np.array([rng.choice(C + 1, p=q / q.sum()) for q in P])
    Y = (cats[:, None] == np.arange(1, C + 1)).astype(float)
    counts = np.array([np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(7)]
                      + [(cats == 0) * 1], dtype=float)
    seen = np.column_stack([counts @ (cats == c) for c in range(C + 1)]) > 0
    return X, Y, counts[seen.all(axis=1) | (seen.sum(axis=1) == 1)]


@pytest.mark.parametrize("case", ["separated", "aliased-1", "aliased-2"])
def test_a_warm_start_ends_where_the_zero_start_does(monkeypatch, case):
    # every replicate starts at the fit of unit counts (the parent fit's
    # role) on the columns it keeps: a converged replicate ends within 1e-10
    # of its zero-start fit, in fewer Newton steps, and no failure or flag
    # moves
    if case == "separated":
        X, y, counts = _separated_replicates()
        Y = y[:, None]
    else:
        X, Y, counts = _aliased_replicates(int(case[-1]))
    parent = fit_counts(X, Y, np.ones((1, len(X))))
    assert parent.converged[0] and not parent.separated[0]
    real, calls = glm._count_evaluate, Counter()

    def counted(coef, *args):
        calls[phase] += 1
        return real(coef, *args)

    monkeypatch.setattr(glm, "_count_evaluate", counted)
    phase = "zero"
    zero = fit_counts(X, Y, counts)
    phase = "warm"
    warm = fit_counts(X, Y, counts, start=parent.coef[0])
    monkeypatch.undo()
    assert fit_counts(X, Y, counts, start=np.zeros_like(parent.coef[0])).coef.tobytes() == \
        zero.coef.tobytes()
    assert warm.failure == zero.failure
    assert np.array_equal(warm.converged, zero.converged)
    assert np.array_equal(warm.separated, zero.separated)
    for a, b in zip(warm.kept, zero.kept):
        assert (a is None and b is None) or np.array_equal(a, b)
    well_posed = zero.converged & ~zero.separated
    if case == "separated":
        assert zero.separated.all()
    else:
        assert well_posed.sum() >= 6 and AllSameResponse in zero.failure
        assert all(len(k) == 3 for k in zero.kept if k is not None)     # the alias dropped
        assert calls["warm"] < calls["zero"]
    scale = np.max(np.abs(zero.coef[well_posed]), axis=(1, 2))
    assert np.all(np.max(np.abs(warm.coef - zero.coef)[well_posed], axis=(1, 2))
                  <= 1e-10 * np.maximum(scale, 1.0))


def test_a_replicate_whose_every_halving_failed_keeps_its_coefficients(monkeypatch):
    # rig replicate 0's 31 candidates of the first step (the calls after the
    # start's) to look worse: it takes no step and ends at zero, converged
    # because its last candidate's step (2^-30 of the full one) is below tol;
    # the other replicates iterate as if it were not there
    rng = np.random.default_rng(3)
    n = 80
    L = rng.normal(size=n)
    X = np.column_stack([np.ones(n), L])
    Y = (rng.random(n) < 1.0 / (1.0 + np.exp(-0.5 - L)))[:, None].astype(float)
    counts = np.array([np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(4)],
                      dtype=float)
    real, calls = glm._count_evaluate, []

    def rigged(coef, X, Yt, W):
        calls.append(1)
        dev, P = real(coef, X, Yt, W)
        if 2 <= len(calls) <= 32:
            dev[(W == counts[0]).all(axis=1)] = np.inf
        return dev, P

    monkeypatch.setattr(glm, "_count_evaluate", rigged)
    fits = fit_counts(X, Y, counts)
    monkeypatch.undo()
    ref = fit_counts(X, Y, counts[1:])
    assert len(calls) > 32
    assert np.all(fits.coef[0] == 0.0) and fits.converged[0] and not fits.separated[0]
    assert fits.failure == [None] * 4 and fits.converged.all()
    assert np.max(np.abs(fits.coef[1:] - ref.coef)) <= 1e-12 * np.max(np.abs(ref.coef))


def _three_continuous_trials(seed=4, n=450):
    from casemix.ipd import IpdDataset
    rng = np.random.default_rng(seed)
    L = rng.normal(size=n)
    S = np.repeat(np.arange(3), n // 3)
    L += 0.3 * S
    treat = np.arange(n) % 2
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(0.2 - 0.5 * L - 0.4 * treat))).astype(int)
    return IpdDataset.from_arrays(["L"], ["1", "2", "3"], S, treat, y, L[:, None])


@pytest.mark.parametrize("one_per_block", [True, False])
@pytest.mark.parametrize("case", ["pairwise-ipw", "pairwise-ipw-s", "multinomial-ipw"])
def test_replicate_whose_membership_fit_fails_is_excluded(monkeypatch, case, one_per_block):
    # Replicate 3's membership fit is rigged to fail: its rows are told apart
    # by their sum of L, in the count-weighted fits and in the oracle's fits
    # of the resampled rows alike. With one replicate per block, the block
    # has no replicate left when its cells are computed.
    from casemix import transport
    make, s = {"pairwise-ipw": (continuous_ds, _settings(IPW)),
               "pairwise-ipw-s": (continuous_ds, _settings(IPW_STABILIZED)),
               "multinomial-ipw": (_three_continuous_trials, _settings(IPW))}[case]
    grid = _recorded(standardized_grid, make(), s)[0]
    ds, C = grid.ds, grid.ds.K - 1
    rng = np.random.default_rng(np.random.SeedSequence(_entropy(0) + [3]))
    target = ds.cov[np.concatenate([_redraw(r, rng) for r in ds.study_rows]), 0].sum()

    def rigged(X_sum):
        return abs(X_sum - target) <= 1e-9 * np.abs(ds.cov[:, 0]).sum()

    real_counts = variance.fit_counts

    def fit_counts_rigged(X, Y, counts, **kwargs):
        fits = real_counts(X, Y, counts, **kwargs)
        for b in np.flatnonzero([rigged(s) for s in counts @ X[:, 1]]):
            fits.failure[b] = NoConvergence
        return fits

    def failing(real):
        def fit(X, *args, **kwargs):
            if rigged(X[:, 1].sum()):
                raise NoConvergence("rigged")
            return real(X, *args, **kwargs)
        return fit

    monkeypatch.setattr(variance, "fit_counts", fit_counts_rigged)
    monkeypatch.setattr(transport, "fit_logistic", failing(transport.fit_logistic))
    monkeypatch.setattr(transport, "fit_multinomial", failing(transport.fit_multinomial))
    if one_per_block:
        monkeypatch.setattr(variance, "_BLOCK_CELLS", ds.n * C)
        assert _CountReplicates(grid).block == 1
    res = _check_against_oracle(grid, B=7, measures=("rd",))[0]
    assert res.failures == {"NoConvergence": 1}
    assert np.all(res.excluded["rd"] == 1)
