"""Logistic and multinomial fitters: exact solutions, score identities,
aliasing, separation, and backward elimination."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import qr
from scipy.special import expit, logit

from casemix import glm
from casemix.errors import (
    AllSameResponse,
    DimensionMismatch,
    NoConvergence,
    NonBinaryValue,
    RankDeficient,
    SeparationWarning,
    UnknownReference,
)
from casemix.formula import Interaction, Main, parse
from casemix.glm import (
    backward_eliminate,
    fit_counts,
    fit_logistic,
    fit_multinomial,
)

from conftest import cell, dataset_from_cells


def saturated_binary_fixture():
    """300 subjects at L=0 with 60 events, 100 at L=1 with 60 events."""
    L = np.concatenate([np.zeros(300), np.ones(100)])
    y = np.concatenate([np.ones(60), np.zeros(240), np.ones(60), np.zeros(40)])
    X = np.column_stack([np.ones(400), L])
    return X, y


def test_logistic_saturated_solution_is_exact():
    X, y = saturated_binary_fixture()
    fit = fit_logistic(X, y, column_names=["1", "L"])
    assert fit.converged
    # saturated model: intercept = logit(0.2), slope = logit(0.6) - logit(0.2)
    np.testing.assert_allclose(fit.coef[0], logit(0.2), atol=1e-10)
    np.testing.assert_allclose(fit.coef[1], logit(0.6) - logit(0.2), atol=1e-10)
    preds = fit.predict(X)
    np.testing.assert_allclose(preds[:300], 0.2, atol=1e-10)
    np.testing.assert_allclose(preds[300:], 0.6, atol=1e-10)


def test_logistic_score_is_zero_at_solution():
    rng = np.random.default_rng(3)
    X = np.column_stack([np.ones(500), rng.normal(size=500),
                         rng.normal(size=500)])
    p = expit(X @ np.array([-0.3, 0.8, -0.5]))
    y = (rng.random(500) < p).astype(float)
    fit = fit_logistic(X, y)
    score = X.T @ (y - fit.predict(X))
    assert np.max(np.abs(score)) < 1e-6


def test_logistic_fisher_cov_matches_inverse_information():
    X, y = saturated_binary_fixture()
    fit = fit_logistic(X, y)
    mu = fit.predict(X)
    info = (X * (mu * (1 - mu))[:, None]).T @ X
    np.testing.assert_allclose(fit.fisher_cov, np.linalg.inv(info), rtol=1e-8)


def test_constant_response_raises():
    X = np.ones((10, 1))
    with pytest.raises(AllSameResponse):
        fit_logistic(X, np.ones(10))
    with pytest.raises(AllSameResponse):
        fit_logistic(np.ones((0, 1)), np.zeros(0))


@pytest.mark.parametrize("value", [0.5, 2.0, -1.0, np.nan])
def test_logistic_response_must_be_binary(value):
    # the logistic fit is the one-category logit of y = 1 against y = 0: any
    # other response value has no category to be
    X, y = saturated_binary_fixture()
    y[[3, 350]] = value
    with pytest.raises(NonBinaryValue):
        fit_logistic(X, y)


def test_separation_is_flagged_not_raised():
    x = np.linspace(-1, 1, 40)
    y = (x > 0).astype(float)
    X = np.column_stack([np.ones(40), x])
    with pytest.warns(SeparationWarning):
        fit = fit_logistic(X, y)
    assert fit.separation_flag


def test_converged_steep_fit_is_not_flagged():
    # correctly specified with steep tails: max |eta| reaches about 36, past
    # SEPARATION_LP, yet the MLE exists and Newton converges
    rng = np.random.default_rng(0)
    x = rng.uniform(-6, 6, 20000)
    y = (rng.random(20000) < expit(6 * x)).astype(float)
    X = np.column_stack([np.ones_like(x), x])
    eta = np.column_stack([np.zeros_like(x), 6 * x, -6 * x])
    P = np.exp(eta - eta.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    cats = (rng.random(20000)[:, None] > P.cumsum(axis=1)).sum(axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SeparationWarning)
        fits = [fit_logistic(X, y), fit_multinomial(X, cats, reference=0)]
    for fit in fits:
        assert fit.converged
        assert not fit.separation_flag
    # the batched fit of one replicate of unit counts obeys the same rule
    ones = np.ones((1, len(x)))
    for Y in (y[:, None], (cats[:, None] == [1, 2]).astype(float)):
        fit = fit_counts(X, Y, ones)
        assert fit.converged[0] and not fit.separated[0]


def test_aliased_column_dropped_and_width_kept():
    X, y = saturated_binary_fixture()
    X3 = np.column_stack([X, X[:, 1]])  # duplicate of L
    fit = fit_logistic(X3, y, column_names=["1", "L", "L_copy"])
    assert fit.dropped_columns == ("L_copy",)
    assert fit.column_names == ("1", "L")
    assert len(fit.coef) == 2 and fit.p_original == 3
    # prediction still takes original-width rows
    np.testing.assert_allclose(fit.predict(X3)[:300], 0.2, atol=1e-10)
    with pytest.raises(DimensionMismatch):
        fit.predict(X)


def test_no_convergence_carries_last_fit():
    X, y = saturated_binary_fixture()
    with pytest.raises(NoConvergence) as exc:
        fit_logistic(X, y, max_iter=1)
    assert exc.value.last_fit is not None
    assert not exc.value.last_fit.converged


def _shares(fit, X):
    """Category shares: the softmax of [0, X @ coef.T], reference first."""
    eta = np.column_stack([np.zeros(len(X)), X @ fit.coef.T])
    e = np.exp(eta - eta.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def test_multinomial_intercept_only_matches_log_share_ratios():
    cats = np.array([0] * 500 + [1] * 200 + [2] * 300)
    X = np.ones((1000, 1))
    fit = fit_multinomial(X, cats, reference=0)
    assert fit.categories == (0, 1, 2)
    np.testing.assert_allclose(fit.coef[0, 0], np.log(200 / 500), atol=1e-10)
    np.testing.assert_allclose(fit.coef[1, 0], np.log(300 / 500), atol=1e-10)
    P = _shares(fit, X[:1])
    np.testing.assert_allclose(P[0], [0.5, 0.2, 0.3], atol=1e-10)


def test_multinomial_saturated_matches_per_level_shares():
    # L=0 shares 100/60/40, L=1 shares 100/20/80
    L = np.concatenate([np.zeros(200), np.ones(200)])
    cats = np.concatenate([np.repeat([0, 1, 2], [100, 60, 40]),
                           np.repeat([0, 1, 2], [100, 20, 80])])
    X = np.column_stack([np.ones(400), L])
    fit = fit_multinomial(X, cats, reference=0)
    P = _shares(fit, np.array([[1.0, 0.0], [1.0, 1.0]]))
    np.testing.assert_allclose(P[0], [0.5, 0.3, 0.2], atol=1e-10)
    np.testing.assert_allclose(P[1], [0.5, 0.1, 0.4], atol=1e-10)


def test_multinomial_reference_validation():
    cats = np.array([0, 1, 0, 1])
    with pytest.raises(UnknownReference):
        fit_multinomial(np.ones((4, 1)), cats, reference=7)


def test_multinomial_two_categories_agrees_with_logistic():
    # the logistic fit is the one-category multinomial fit: bit for bit
    X, y = saturated_binary_fixture()
    mfit = fit_multinomial(X, y.astype(int), reference=0)
    lfit = fit_logistic(X, y)
    assert np.array_equal(mfit.coef[0], lfit.coef)


def test_backward_eliminate_drops_null_interaction():
    # outcome depends on treat and L but not their product
    ds = dataset_from_cells([
        cell("1", 0, 1, 200, 80), cell("1", 0, 0, 200, 40),
        cell("1", 1, 1, 200, 120), cell("1", 1, 0, 200, 80),
        cell("2", 0, 1, 100, 40), cell("2", 0, 0, 100, 20),
        cell("2", 1, 1, 100, 60), cell("2", 1, 0, 100, 40),
    ])
    base = parse("y ~ 1 + treat + L")
    inter = Interaction(Main("treat"), Main("L"))
    out = backward_eliminate(ds, base, [inter], alpha=0.05,
                             target="outcome-model")
    assert out.text() == "y ~ 1 + treat + L"


def test_backward_eliminate_keeps_strong_interaction():
    # treatment effect reverses sign across L: the interaction must survive
    ds = dataset_from_cells([
        cell("1", 0, 1, 200, 40), cell("1", 0, 0, 200, 100),
        cell("1", 1, 1, 200, 160), cell("1", 1, 0, 200, 100),
        cell("2", 0, 1, 50, 10), cell("2", 0, 0, 50, 25),
        cell("2", 1, 1, 50, 40), cell("2", 1, 0, 50, 25),
    ])
    base = parse("y ~ 1 + treat + L")
    inter = Interaction(Main("treat"), Main("L"))
    out = backward_eliminate(ds, base, [inter], alpha=0.05,
                             target="outcome-model")
    assert inter in out.terms


def test_backward_eliminate_aliased_candidate_goes_first(enum_ds):
    # L is binary, so L^2 duplicates L and must be eliminated as p = 1
    base = parse("y ~ 1 + treat + L")
    from casemix.formula import Power
    out = backward_eliminate(enum_ds, base, [Power("L", 2)], alpha=0.05,
                             target="outcome-model")
    assert out.text() == "y ~ 1 + treat + L"


def test_backward_eliminate_membership_target(enum_ds):
    base = parse("study ~ 1 + L")
    from casemix.formula import Power
    out = backward_eliminate(enum_ds, base, [Power("L", 2)], alpha=0.05,
                             target="membership-model")
    assert out.text() == "study ~ 1 + L"
    with pytest.raises(ValueError, match="treat"):
        backward_eliminate(enum_ds, parse("study ~ 1 + treat"), [Power("L", 2)],
                           target="membership-model")


def test_backward_eliminate_unknown_target(enum_ds):
    with pytest.raises(ValueError, match="target"):
        backward_eliminate(enum_ds, parse("y ~ 1"), [], target="nonsense")


def _multinomial_fixture(separated=False):
    rng = np.random.default_rng(7)
    x = rng.normal(size=600)
    X = np.column_stack([np.ones(600), x, rng.normal(size=600)])
    if separated:
        return X, np.where(x < -0.3, 0, np.where(x < 0.3, 1, 2))
    eta = np.column_stack([np.zeros(600), 0.5 + x, -0.2 - 0.7 * x])
    P = np.exp(eta) / np.exp(eta).sum(axis=1, keepdims=True)
    return X, (rng.random(600)[:, None] > P.cumsum(axis=1)).sum(axis=1)


def _fit_deviance(fit, X, cats):
    """The deviance at a fit's coefficients, its linear predictors formed as
    the fit forms them (a logistic fit's coefficients as one category)."""
    reference = getattr(fit, "reference", 0)
    nonref = [c for c in getattr(fit, "categories", (0, 1)) if c != reference]
    observed = np.flatnonzero(cats[:, None] == np.array(nonref))
    coef = fit.coef.reshape(len(nonref), -1)
    return glm._logit_deviance(X[:, fit.kept] @ coef.T, observed)[1]


@pytest.mark.parametrize("separated", [False, True])
def test_fit_deviance_is_the_deviance_at_the_coefficients(separated):
    # the Newton loops keep the accepted candidate's deviance: it must be the
    # deviance recomputed at the returned coefficients, bit for bit
    if separated:
        x = np.linspace(-1, 1, 40)
        X, y = np.column_stack([np.ones(40), x]), (x > 0).astype(float)
    else:
        X, y = saturated_binary_fixture()
    Xm, cats = _multinomial_fixture(separated)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SeparationWarning)
        lfit = fit_logistic(X, y)
        mfit = fit_multinomial(Xm, cats, reference=0)
    assert lfit.separation_flag == mfit.separation_flag == separated
    assert lfit.deviance == _fit_deviance(lfit, X, y)
    assert mfit.deviance == _fit_deviance(mfit, Xm, cats)


@pytest.mark.parametrize("multinomial", [False, True])
def test_every_halving_failed_stays_at_the_current_coefficients(monkeypatch, multinomial):
    # rig the first step's 31 candidates to look worse: the loop takes no step
    # and ends at the start, converged only if the last candidate's step,
    # 2^-30 of the full one, is below tol
    real = glm._logit_deviance
    calls = []

    def rigged(*args):
        calls.append(1)
        out = real(*args)
        return out if not 2 <= len(calls) <= 32 else (out[0], np.inf)

    monkeypatch.setattr(glm, "_logit_deviance", rigged)
    X, y = saturated_binary_fixture()
    for tol in (1e-14, 1.0):
        calls.clear()
        try:
            fit = (fit_multinomial(X, y, reference=0, tol=tol) if multinomial
                   else fit_logistic(X, y, tol=tol))
        except NoConvergence as exc:
            fit = exc.last_fit
        assert len(calls) == 32
        assert fit.converged == (tol == 1.0) and fit.iterations == 1
        assert np.all(fit.coef == 0.0)
        assert fit.deviance == _fit_deviance(fit, X, y)     # past the rigged calls


def _literal_information(X, P):
    """The multinomial information as its C^2 weighted products
    X' diag(P_a (1[a=b] - P_b)) X, one block at a time, each entry's sum over
    rows taken exactly (math.fsum): on tens of thousands of rows a float sum
    in any order is off by ~1e-12 of the largest entry, as much as the bound
    the information under test is held to."""
    C, p = P.shape[1], X.shape[1]
    H = np.empty((C * p, C * p))
    for a in range(C):
        for b in range(C):
            w = P[:, a] * (float(a == b) - P[:, b])
            for i in range(p):
                for j in range(p):
                    H[a * p + i, b * p + j] = math.fsum(X[:, i] * w * X[:, j])
    return H


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), C=st.sampled_from([1, 2, 9]),
       p=st.sampled_from([1, 3]), alias=st.booleans(), blocks=st.sampled_from([0, 2]))
@example(seed=1, C=1, p=3, alias=False, blocks=2)
@example(seed=2, C=1, p=3, alias=True, blocks=2)
@example(seed=3, C=2, p=3, alias=False, blocks=2)
@example(seed=4, C=2, p=3, alias=True, blocks=2)
@example(seed=5, C=9, p=3, alias=False, blocks=2)
@example(seed=6, C=9, p=3, alias=True, blocks=2)
@example(seed=912, C=2, p=1, alias=True, blocks=2)
def test_multinomial_information_matches_its_definition(seed, C, p, alias, blocks):
    # blocks = 2: two whole row blocks of the information and score, and a
    # ragged third of 3 rows
    rng = np.random.default_rng(seed)
    width = p + alias
    n = blocks * (glm._BLOCK_CELLS // (C * width)) + 3 if blocks else 80 * (C + 1)
    X = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(p - 1)])
    if alias:
        X = np.column_stack([X, 2.0 * X[:, -1]])    # aliased with the last column
    eta = X @ rng.normal(scale=0.3, size=(C, width)).T
    P = glm.nonref_softmax(eta.copy())[0]
    want = _literal_information(X, P)
    H = glm.multinomial_information(X, P)
    assert np.max(np.abs(H - want)) <= 1e-12 * np.max(np.abs(want))

    full = np.column_stack([np.ones(n), np.exp(eta)])
    cats = (rng.random(n)[:, None] > (full / full.sum(axis=1, keepdims=True)).cumsum(axis=1)
            ).sum(axis=1)
    Y = (cats[:, None] == np.arange(1, C + 1)).astype(float)
    score, H_y = glm.multinomial_information(X, P, Y.astype(bool))
    assert np.array_equal(H_y, H)
    R = Y - P
    scale = (np.abs(X).T @ np.abs(R)).T.ravel()
    assert np.all(np.abs(score - (X.T @ R).T.ravel()) <= 1e-12 * scale)

    # at the solution: fisher_cov inverts the information and the score vanishes
    fit = fit_multinomial(X, cats, reference=0)
    assert fit.converged and not fit.separation_flag
    assert len(fit.kept) == X.shape[1] - alias
    Xk = X[:, fit.kept]
    nonref = np.array([c for c in fit.categories if c != 0])
    Pf = glm.nonref_softmax(Xk @ fit.coef.T)[0]
    info = _literal_information(Xk, Pf)
    assert np.max(np.abs(fit.fisher_cov @ info - np.eye(len(info)))) <= 1e-8
    score = Xk.T @ ((cats[:, None] == nonref).astype(float) - Pf)
    assert np.max(np.abs(score)) <= 1e-8 * n


def _peak_bytes(f) -> int:
    """Peak bytes that `f()` allocates, numpy buffers included."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_information_holds_no_rows_by_categories_by_columns_buffer():
    # the membership fit's shape on 100,000 rows: V = [P_a x] lives one row
    # block at a time, never as the n x C x p array
    rng = np.random.default_rng(11)
    n, C, p = 100_000, 9, 3
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    P = glm.nonref_softmax(X @ rng.normal(scale=0.3, size=(C, p)).T)[0]
    assert _peak_bytes(lambda: glm.multinomial_information(X, P)) < n * C * p * 8 / 4


def test_membership_fit_holds_few_rows_by_categories_arrays():
    # a membership fit over 10 trials on 100,000 rows: the Newton loop holds
    # the accepted n x C probabilities while a candidate's are built, and
    # nothing else of that size for long; a start state kept alive beside
    # them would add a third
    rng = np.random.default_rng(13)
    n, trials, p = 100_000, 10, 3
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    eta = X @ rng.normal(scale=0.3, size=(trials, p)).T
    P = np.exp(eta - eta.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    cats = (rng.random(n)[:, None] > P.cumsum(axis=1)).sum(axis=1)
    C = trials - 1
    assert _peak_bytes(lambda: fit_multinomial(X, cats, reference=0)) < 3.25 * n * C * 8


def test_full_rank_logistic_fit_holds_no_copy_of_its_design():
    # a design whose every column is kept is read in place, and the
    # information's weighted design lives one row block at a time
    rng = np.random.default_rng(12)
    n, p = 100_000, 15
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    y = (rng.random(n) < expit(X @ rng.normal(scale=0.2, size=p))).astype(float)
    assert _peak_bytes(lambda: fit_logistic(X, y)) < n * p * 8 / 2


_ETAS = [0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 745.0, -745.0, 800.0, -800.0]


@pytest.mark.parametrize("eta", _ETAS)
def test_bernoulli_log_partition_matches_logaddexp(eta):
    # the one-category log-partition log(1 + e^eta), which logaddexp(0, eta)
    # computes directly; y = 0 leaves it as the row's half deviance
    e = np.array([[eta]])
    want = np.logaddexp(0.0, e)[0]
    np.testing.assert_allclose(glm.nonref_softmax(e.copy())[1], want, rtol=1e-15, atol=0)
    got = glm._logit_deviance(e, np.array([], dtype=int))[1]
    np.testing.assert_allclose(got, 2.0 * want[0], rtol=1e-15, atol=0)


def _branching_logistic_softmax(eta):
    """The C = 1 probabilities and log-partitions as np.where formed them."""
    e = np.exp(-np.abs(eta))
    lse = np.log1p(e)
    lse += np.maximum(eta, 0.0)
    return np.where(eta >= 0.0, 1.0, e) / (e + 1.0), lse[:, 0]


@pytest.mark.parametrize("shape", [(600, 1), (3, 1, 200)])
def test_logistic_softmax_is_bit_identical_to_the_branching_form(shape):
    # e^-|eta| is at most 1 where eta >= 0 and at least 0 elsewhere, so its
    # maximum with the 0/1 sign indicator is the branch np.where took
    rng = np.random.default_rng(7)
    eta = rng.normal(scale=20.0, size=shape)
    specials = [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, np.nan, 5e-324, -5e-324,
                1e-310, -1e-310, 2.2e-308, -2.2e-308]
    eta.ravel()[:len(specials)] = specials
    want = _branching_logistic_softmax(eta)
    got = glm.nonref_softmax(eta.copy())
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_bernoulli_deviance_matches_logaddexp_on_random_predictors():
    rng = np.random.default_rng(11)
    eta = rng.normal(scale=3.0, size=500)
    y = (rng.random(500) < 0.4).astype(float)
    want = 2.0 * np.sum(np.logaddexp(0.0, eta) - y * eta)
    got = glm._logit_deviance(eta[:, None], np.flatnonzero(y))[1]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def _qr_oracle(X, names):
    """`_drop_aliased` on scipy.linalg.qr(pivoting=True)."""
    n, p = X.shape
    R, piv = qr(X, mode="r", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = diag[0] * max(n, p) * np.finfo(float).eps if diag.size and diag[0] > 0 else 0.0
    rank = int(np.sum(diag > tol))
    if rank == 0:
        return None
    kept = np.sort(piv[:rank])
    return kept, [names[i] for i in range(p) if i not in set(kept.tolist())]


@st.composite
def _designs(draw):
    """Designs mixing random columns with aliased, duplicate, zero and constant
    ones, n < p included."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cols = []
    for kind in draw(st.lists(st.sampled_from(["random", "binary", "combo", "duplicate",
                                               "zero", "constant"]), min_size=1, max_size=8)):
        if kind == "random" or (kind in ("combo", "duplicate") and not cols):
            cols.append(rng.normal(size=n))
        elif kind == "binary":
            cols.append((rng.random(n) < 0.5).astype(float))
        elif kind == "combo":
            cols.append(sum(rng.normal() * c for c in cols))
        elif kind == "duplicate":
            cols.append(cols[rng.integers(0, len(cols))].copy())
        elif kind == "zero":
            cols.append(np.zeros(n))
        else:
            cols.append(np.full(n, rng.normal()))
    return np.column_stack(cols)


@settings(max_examples=300, deadline=None)
@given(X=_designs())
def test_drop_aliased_matches_scipy_pivoted_qr(X):
    names = [f"x{i}" for i in range(X.shape[1])]
    want = _qr_oracle(X, names)
    if want is None:
        with pytest.raises(RankDeficient):
            glm._drop_aliased(X, names)
        return
    kept, dropped = glm._drop_aliased(X, names)
    assert kept.dtype == want[0].dtype and np.array_equal(kept, want[0])
    assert dropped == want[1]
