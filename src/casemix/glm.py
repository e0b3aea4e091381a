"""Logit maximum likelihood via Newton iterations.

These fitters serve both the outcome models and the trial-membership
(propensity) models. They accept plain design matrices; formula binding
happens at the call site. Every fit is one multinomial logit of C
non-reference categories against a reference whose linear predictor is 0:
the logistic fit of a binary response is its C = 1 case, with reference
y = 0, and it needs a 0/1 response. `nonref_softmax` is the one place that
turns linear predictors into probabilities and log-partitions, and
`multinomial_information` the one information matrix. Aliased columns are
dropped by pivoted QR, which runs only on a design whose Gram matrix does not
certify full rank, and recorded on the fit; quasi-separation is flagged (and
warned) rather than raised, because downstream simulation studies must keep
reporting such replications.

One damped-Newton loop, `_newton`, runs every fit on a stack of
coefficient sets, a single fit being a stack of one, and holds all of its
rules: step-halving, stop, exit and the separation flag. Its callers pass
only kernels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from ._special import chi2_sf, expit
from .errors import (
    AllSameResponse,
    DimensionMismatch,
    NoConvergence,
    NonBinaryValue,
    RankDeficient,
    SeparationWarning,
    UnknownReference,
)
from .formula import Interaction, ModelFormula

SEPARATION_LP = 30.0
SEPARATION_DEV = 1e-6
NEWTON_TOL = 1e-8           # a set stops once its accepted step's largest entry is below this
NEWTON_MAX_ITER = 100
FULL_RANK_RATIO = 1e-8      # eigenvalue ratio of a Gram matrix that is surely of full rank
LOGISTIC_SEPARATION = "fitted probabilities numerically 0/1: possible separation"
MULTINOMIAL_SEPARATION = "category probabilities numerically 0/1: possible separation"


def _surely_full_rank(gram: np.ndarray) -> np.ndarray:
    """Whether pivoted QR of the design behind each Gram matrix X'X of the
    stack `gram` (... x p x p) surely keeps every column: each |R_ii| is at
    least the smallest singular value, and a well-conditioned Gram matrix puts
    that far above the tolerance of n eps times the largest."""
    lam = np.linalg.eigvalsh(gram)
    return lam[..., 0] > FULL_RANK_RATIO * lam[..., -1]


def _drop_aliased(X: np.ndarray, names: Sequence[str], n: Optional[int] = None):
    """Pivoted-QR rank detection; returns kept column indices (original order,
    int32 as LAPACK's pivots) and dropped names. `n` is the row count the
    tolerance scales with, X's own by default."""
    p = X.shape[1]
    n = X.shape[0] if n is None else n
    if p == 0:
        raise RankDeficient("design matrix has no columns")
    A = np.asarray_chkfinite(X)
    if _surely_full_rank(A.T @ A):
        return np.arange(p, dtype=np.int32), []
    # only a design that fails the certificate pays for importing LAPACK's
    # pivoted QR, run as scipy.linalg.qr(pivoting=True) runs it, with the same
    # optimal workspace, but without forming Q and without qr's wrapper, whose
    # mode="r" also masks the whole n x p factor: R's diagonal and the 1-based
    # pivots are all that rank detection reads
    from scipy.linalg.lapack import dgeqp3
    qr, piv = dgeqp3(A, lwork=int(dgeqp3(A, lwork=-1)[-2][0]))[:2]
    diag = np.abs(np.diag(qr))
    tol = diag[0] * max(n, p) * np.finfo(float).eps if diag.size and diag[0] > 0 else 0.0
    rank = int(np.sum(diag > tol))
    if rank == 0:
        raise RankDeficient("design matrix has rank 0", dropped=tuple(names))
    kept = np.sort(piv[:rank] - 1)
    keep = set(kept.tolist())
    dropped = [names[i] for i in range(p) if i not in keep]
    return kept, dropped


def nonref_softmax(eta: np.ndarray) -> tuple:
    """Category probabilities of a logit model and each row's log-partition
    log(1 + sum_a e^eta_a) from the non-reference linear predictors `eta`
    (the reference category's predictor is 0), categories on axis 1: n x C,
    or A x C x n for A coefficient sets, which give n, or A x n,
    log-partitions. The probabilities are written over `eta`. C > 1 takes
    one exp per entry; the logistic model, C = 1, one e^-|eta| per entry."""
    if eta.shape[1] == 1:
        e = np.exp(-np.abs(eta))
        lse = np.log1p(e)
        lse += np.maximum(eta, 0.0)
        # e^-|eta| is at most 1 where eta >= 0 and at least 0 elsewhere: the
        # maximum with the sign indicator is the numerator without a branch
        P = np.maximum(e, eta >= 0.0, out=eta)
        e += 1.0
        P /= e
    else:
        m = np.maximum(eta.max(axis=1, keepdims=True), 0.0)
        P = np.exp(np.subtract(eta, m, out=eta), out=eta)
        den = P.sum(axis=1, keepdims=True)
        den += np.exp(-m)
        P /= den
        lse = np.log(den, out=den)
        lse += m
    return P, lse[:, 0]


# rows x categories x columns of one row block of the information's V = [P_a x]
# (256 KiB): a block stays in cache between its fill and its two GEMMs, and no
# fit holds an n x C x p or n x p temporary
_BLOCK_CELLS = 1 << 15


def keep_columns(X: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """The retained columns `kept` (sorted, as a fit's `kept`) of X: X itself
    when every column is kept, a copy only when a column was dropped."""
    return X if len(kept) == X.shape[1] else X[:, kept]


def multinomial_information(X: np.ndarray, P: np.ndarray, Y: Optional[np.ndarray] = None):
    """Information X' diag(P_a (1[a=b] - P_b)) X of the logit model with
    n x C non-reference probabilities P, (C p) x (C p) in category-major
    blocks. Given the n x C 0/1 indicators Y of each row's observed
    non-reference category, the score X'(Y - P), flattened like the C x p
    coefficients, comes first: (score, information).

    Both are sums over row blocks of `_BLOCK_CELLS` cells, each block's
    terms written into one block-sized buffer reused across blocks. For C > 1
    the buffer holds the block's V = [P_a x], and the information is
    blockdiag_a(X' diag(P_a) X) - V'V summed over blocks: two GEMMs a block,
    V'V, and X'V, whose C column blocks are the diagonal blocks
    X' diag(P_a) X. C = 1 is one weighted Gram matrix: the buffer holds the
    block's design weighted by P (1 - P), and X'V is the information. No
    n x p, n x C x p or n x C x C array."""
    n, p = X.shape
    C = P.shape[1]
    rows = max(1, min(n, _BLOCK_CELLS // (C * p)))
    V = np.empty((rows, C, p))
    H = np.zeros((C * p, C * p))
    D = np.zeros((p, C * p))
    if Y is not None:
        R = np.empty((rows, C))
        G = np.zeros((p, C))
    for start in range(0, n, rows):
        Xb, Pb = X[start:start + rows], P[start:start + rows]
        m = len(Xb)
        Vb = V[:m].reshape(m, C * p)
        if C == 1:                      # V = P (1 - P) x: D is the information
            np.multiply(Xb, Pb * (1.0 - Pb), out=Vb)
        else:
            for c in range(p):          # by column: C-long inner loops, not p-long ones
                np.multiply(Pb, Xb[:, c, None], out=V[:m, :, c])
            H -= Vb.T @ Vb
        D += Xb.T @ Vb
        if Y is not None:
            Rb = np.subtract(Y[start:start + rows], Pb, out=R[:m])
            G += Xb.T @ Rb
    for a in range(C):
        H[a * p:(a + 1) * p, a * p:(a + 1) * p] += D[:, a * p:(a + 1) * p]
    return H if Y is None else (G.T.ravel(), H)


def _logit_deviance(eta: np.ndarray, observed: np.ndarray) -> tuple:
    """The non-reference probabilities and -2 loglik of a logit model at the
    n x C non-reference predictors `eta` (overwritten as `nonref_softmax`
    overwrites it). `observed` holds the flat indices into `eta` of each
    non-reference row's observed category. The deviance is the sum over rows
    of log-partition minus the observed category's predictor (0 for the
    reference)."""
    fit = np.take(eta, observed)
    P, lse = nonref_softmax(eta)
    lse[observed // eta.shape[1]] -= fit
    return P, 2.0 * float(lse.sum())


def _newton(coef, evaluate, score_info, reach, tol, max_iter) -> tuple:
    """Damped Newton from each of the A coefficient sets `coef` (A x C x p) ->
    (coefficients, deviances, converged, iterations, separated), one entry a
    set, and the state of the sets that left last (for A = 1, the fit's).
    The kernels serve the sets `sets` still iterating: `evaluate(coef, sets)`
    gives their deviances and state (one entry a set), `score_info(state,
    sets)` their flat scores and information matrices, and `reach(coef,
    sets)` their largest |linear predictor| over the rows each holds.

    Each set halves its own step while its deviance rises, 30 times at most,
    and leaves by itself: when its step is below `tol`, or, taking no step,
    when every candidate raised its deviance, converged then only if the last
    candidate's step is below `tol`. It is separated if it fits its rows
    perfectly, or stopped unconverged with numerically 0/1 probabilities; a
    converged fit with steep tails is not."""
    sets = np.arange(len(coef))
    dev, state = evaluate(coef, sets)
    out, coef, out_dev = coef.copy(), coef.copy(), dev.copy()
    converged, separated = np.zeros(len(coef), bool), np.zeros(len(coef), bool)
    iterations = np.zeros(len(coef), int)
    for it in range(1, max_iter + 1):
        step = _solve_each(*score_info(state, sets)).reshape(coef.shape)
        scale, rise = np.full(len(sets), 2.0), np.arange(len(sets))
        for _ in range(31):             # the candidates at 1, 1/2, ..., 2^-30 of the step
            scale[rise] *= 0.5
            cand = coef[rise] + scale[rise, None, None] * step[rise]
            cand_dev, cand_state = evaluate(cand, sets[rise])
            ok = cand_dev <= dev[rise] + 1e-10
            took = rise[ok]
            coef[took], dev[took] = cand[ok], cand_dev[ok]
            if len(took) == len(state):     # every set took its full step: no copy
                state = cand_state
            else:
                state[took] = cand_state[ok]
            rise = rise[~ok]
            if not rise.size:
                break
        # a set left in `rise` raised its deviance at every candidate: it took no step
        small = np.abs(scale[:, None, None] * step).max(axis=(1, 2)) < tol
        leave = small | (it == max_iter)
        leave[rise] = True
        if leave.any():
            gone = sets[leave]
            out[gone], out_dev[gone], converged[gone], iterations[gone] = (
                coef[leave], dev[leave], small[leave], it)
            separated[gone] = dev[leave] < SEPARATION_DEV
            stuck = leave & ~small
            if stuck.any():
                separated[sets[stuck]] |= reach(coef[stuck], sets[stuck]) > SEPARATION_LP
            if leave.all():
                break
            sets, coef, dev, state = (a[~leave] for a in (sets, coef, dev, state))
    return out, out_dev, converged, iterations, separated, state


@dataclass
class FittedLogistic:
    coef: np.ndarray                 # one per retained design column
    fisher_cov: np.ndarray           # inverse observed information, retained columns
    converged: bool
    iterations: int
    deviance: float
    separation_flag: bool
    column_names: tuple              # retained column labels
    dropped_columns: tuple           # aliased labels removed before fitting
    kept: np.ndarray                 # retained column indices into the original design
    p_original: int
    n: int
    formula: Optional[ModelFormula] = None

    def linear_predictor(self, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] != self.p_original:
            raise DimensionMismatch(
                f"expected rows of width {self.p_original}, got {rows.shape[1]}")
        return rows[:, self.kept] @ self.coef

    def predict(self, rows: np.ndarray) -> np.ndarray:
        return expit(self.linear_predictor(rows))


@dataclass
class FittedMultinomial:
    coef: np.ndarray                 # (C-1) x p, rows ordered like `categories` minus reference
    categories: tuple                # all categories, reference last excluded from coef rows
    reference: object
    fisher_cov: np.ndarray           # ((C-1)p) x ((C-1)p), row-major by category then column
    converged: bool
    iterations: int
    deviance: float
    separation_flag: bool
    column_names: tuple
    dropped_columns: tuple
    kept: np.ndarray
    p_original: int
    n: int
    formula: Optional[ModelFormula] = None


def _fit_logit(X: np.ndarray, observed: np.ndarray, C: int, fitted, separation: str,
               tol: float, max_iter: int, column_names, formula):
    """The Newton fit of the logit of C non-reference categories on the
    design X, shared by `fit_logistic` (C = 1) and `fit_multinomial`.
    `observed` holds the flat indices into an n x C array of each
    non-reference row's observed category. `fitted(**fields)` builds the
    returned fit from the C x p coefficients and the other shared fields; a
    separated fit warns `separation`, and one that neither converged nor
    separated raises `NoConvergence` carrying it.

    The fit reads X itself when the rank certificate keeps every column, and
    its score and information come from `multinomial_information`'s row
    blocks, so beyond the caller's design it holds n x C arrays only."""
    n, p = X.shape
    names = tuple(column_names) if column_names is not None else tuple(
        f"x{i}" for i in range(p))
    kept, dropped = _drop_aliased(X, names)
    Xk = keep_columns(X, kept)
    Y = np.zeros((n, C), dtype=bool)
    np.put(Y, observed, True)

    def evaluate(B, sets):                            # a stack of one: B is 1 x C x p
        P, dev = _logit_deviance(Xk @ B[0].T, observed)   # reference eta = 0
        return np.array([dev]), P[None]

    B, dev, converged, it, separated, P = _newton(
        np.zeros((1, C, Xk.shape[1])), evaluate,
        lambda P, sets: [a[None] for a in multinomial_information(Xk, P[0], Y)],
        lambda B, sets: np.max(np.abs(Xk @ B[0].T)), tol, max_iter)
    H = multinomial_information(Xk, P[0])
    try:
        cov = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(H)
    converged, separated = bool(converged[0]), bool(separated[0])
    fit = fitted(coef=B[0], fisher_cov=cov, converged=converged, iterations=int(it[0]),
                 deviance=float(dev[0]), separation_flag=separated,
                 column_names=tuple(names[i] for i in kept), dropped_columns=tuple(dropped),
                 kept=kept, p_original=p, n=n, formula=formula)
    if separated:
        warnings.warn(separation, SeparationWarning, stacklevel=3)
    if not converged and not separated:
        raise NoConvergence(f"no convergence in {max_iter} iterations", last_fit=fit)
    return fit


def fit_logistic(X: np.ndarray, y: np.ndarray,
                 *, tol: float = NEWTON_TOL, max_iter: int = NEWTON_MAX_ITER,
                 column_names: Optional[Sequence[str]] = None,
                 formula: Optional[ModelFormula] = None) -> FittedLogistic:
    """Logistic regression of the 0/1 response `y` on the design X: the
    one-category case of `fit_multinomial`, y = 0 the reference. A `y` with
    any other value raises `NonBinaryValue`."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if n == 0:
        raise AllSameResponse("no rows to fit")
    if len(y) != n:
        raise DimensionMismatch("response length does not match design")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise NonBinaryValue("the logistic response must be 0 or 1")
    if np.all(y == y[0]):
        raise AllSameResponse("response is constant; the MLE does not exist")
    return _fit_logit(X, np.flatnonzero(y == 1.0), 1,
                      lambda coef, **fields: FittedLogistic(coef=coef[0], **fields),
                      LOGISTIC_SEPARATION, tol, max_iter, column_names, formula)


def fit_multinomial(X: np.ndarray, categories: np.ndarray, reference,
                    *, tol: float = NEWTON_TOL, max_iter: int = NEWTON_MAX_ITER,
                    column_names: Optional[Sequence[str]] = None,
                    formula: Optional[ModelFormula] = None) -> FittedMultinomial:
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    cats_arr = np.asarray(categories)
    if len(cats_arr) != n:
        raise DimensionMismatch("category length does not match design")
    uniq = list(dict.fromkeys(cats_arr.tolist()))  # first-appearance order
    if len(uniq) < 2:
        raise AllSameResponse("need at least two observed categories")
    if reference not in uniq:
        raise UnknownReference(f"reference {reference!r} not among observed categories")
    others = np.array([c for c in uniq if c != reference])
    return _fit_logit(X, np.flatnonzero(cats_arr[:, None] == others), len(others),
                      partial(FittedMultinomial, categories=tuple(uniq), reference=reference),
                      MULTINOMIAL_SEPARATION, tol, max_iter, column_names, formula)


@dataclass
class CountFits:
    """One model fitted once per row of a count matrix, by `fit_counts`."""

    coef: np.ndarray                 # B x C x p, 0 at a replicate's aliased columns
    failure: list                    # per replicate: None, or the CasemixError subclass
    converged: np.ndarray            # B flags
    separated: np.ndarray            # B flags
    kept: list                       # per replicate: retained columns (None when failed)


def fit_counts(X: np.ndarray, Y: np.ndarray, counts: np.ndarray,
               *, start: Optional[np.ndarray] = None) -> CountFits:
    """Fit the logit of the n x C non-reference indicators `Y` on the design
    `X` once per row of the B x n frequency weights `counts`: replicate b is
    the fit to X's rows each repeated counts[b] times, the reference category
    being the rows with no indicator set. C = 1 is the logistic model.

    Each replicate fails or not as `fit_logistic` (C = 1) or `fit_multinomial`
    would on its expanded rows: fewer than two observed categories is
    `AllSameResponse`, rank 0 `RankDeficient`, and a fit that neither
    converged nor separated `NoConvergence`. Rank detection runs on the rows
    the replicate holds, scaled by the root of their counts so that pivoting
    sees the expanded rows' column norms, unless the replicate's weighted Gram
    matrix is so well conditioned that every column is surely kept. The
    replicates that keep the same columns are one stack of the single fits'
    `_newton`, so they stop and are flagged separated by the same rules, each
    over the rows it holds. Every replicate with two observed categories must
    observe all C + 1 of them. No information matrix is inverted and nothing
    warns: `separated` tells the caller.

    Each group of replicates that keep the same columns starts its Newton
    loop at `start` (C x p on X's columns, a parent fit's coefficients),
    taken on those columns; at zero without it.
    """
    W = np.asarray(counts, dtype=float)
    (B, n), p, C = W.shape, X.shape[1], Y.shape[1]
    observed = np.column_stack([W @ (1.0 - Y.sum(axis=1)), W @ Y]) > 0
    n_observed = observed.sum(axis=1)
    if np.any((n_observed >= 2) & (n_observed <= C)):
        raise ValueError("a replicate leaves a category unobserved")
    start = np.zeros((C, p)) if start is None else np.asarray(start, dtype=float).reshape(C, p)
    out = CountFits(coef=np.zeros((B, C, p)), failure=[None] * B,
                    converged=np.zeros(B, bool), separated=np.zeros(B, bool), kept=[None] * B)
    # the weighted Gram matrices certify every replicate at once; one that
    # fails runs `_drop_aliased` on its rows. The row products XX also give
    # the information of the replicates that keep every column.
    XX = (X[:, :, None] * X[:, None, :]).reshape(n, p * p)
    full_rank = _surely_full_rank((W @ XX).reshape(B, p, p))
    all_columns = np.arange(p, dtype=np.int32)
    groups: dict = {}
    for b in range(B):
        if n_observed[b] < 2:
            out.failure[b] = AllSameResponse
            continue
        try:
            if full_rank[b]:
                kept = all_columns
            else:
                held = W[b] > 0
                kept = _drop_aliased(np.sqrt(W[b, held])[:, None] * X[held], range(p),
                                     n=int(W[b].sum()))[0]
        except RankDeficient:
            out.failure[b] = RankDeficient
            continue
        out.kept[b] = kept
        groups.setdefault(tuple(kept), []).append(b)
    Yt = np.ascontiguousarray(Y.T)
    for kept, reps in groups.items():
        reps = np.array(reps)
        coef, _, converged, _, separated, _ = _newton(
            np.repeat(start[None][:, :, kept], len(reps), axis=0),
            *_count_kernels(X[:, kept], Yt, W[reps], XX if len(kept) == p else None),
            NEWTON_TOL, NEWTON_MAX_ITER)
        out.coef[np.ix_(reps, range(C), kept)] = coef
        out.converged[reps], out.separated[reps] = converged, separated
        for b in reps[~(converged | separated)]:
            out.failure[b] = NoConvergence
    return out


def _count_evaluate(coef, X, Yt, W) -> tuple:
    """Count-weighted deviances (A) and non-reference probabilities (A x C x n)
    of A coefficient sets (A x C x p), in `_logit_deviance`'s form."""
    A, C, p = coef.shape
    eta = (coef.reshape(A * C, p) @ X.T).reshape(A, C, -1)
    fit = np.einsum("cn,acn->an", Yt, eta)
    P, lse = nonref_softmax(eta)
    lse -= fit
    return 2.0 * np.einsum("an,an->a", W, lse), P


def _count_kernels(X, Yt, W, XX=None) -> tuple:
    """`_newton`'s kernels for the count-weighted fits of the C x n indicators
    `Yt` on X, one coefficient set a row of the counts W; the information is
    a sum of the Gram products XX (n x p^2, built from X when not given)."""
    n, p = X.shape
    C = Yt.shape[0]
    if XX is None:
        XX = (X[:, :, None] * X[:, None, :]).reshape(n, p * p)

    def rows(sets):                     # no copy of W while every set iterates
        return W if len(sets) == len(W) else W[sets]

    def evaluate(coef, sets):
        return _count_evaluate(coef, X, Yt, rows(sets))

    def score_info(P, sets):
        A, Ws = len(sets), rows(sets)
        g = ((Ws[:, None, :] * (Yt - P)).reshape(A * C, n) @ X).reshape(A, C * p)
        # information block (a, c): sum over rows of W P_a (1[a=c] - P_c) x x'
        WP = Ws[:, None, :] * P
        H = np.empty((A, C, p, C, p))
        for a in range(C):
            for c in range(a, C):
                H[:, a, :, c, :] = ((WP[:, a] * (float(a == c) - P[:, c])) @ XX).reshape(A, p, p)
                H[:, c, :, a, :] = H[:, a, :, c, :]
        return g, H.reshape(A, C * p, C * p)

    def reach(coef, sets):
        eta = np.abs(coef.reshape(-1, p) @ X.T).reshape(len(sets), -1, n)
        return np.where(rows(sets)[:, None, :] > 0, eta, 0.0).max(axis=(1, 2))

    return evaluate, score_info, reach


def _solve_each(g, H) -> np.ndarray:
    """Newton steps H^-1 g of a stack of systems; a singular system falls back
    to least squares on its own, and one that least squares cannot solve
    either gets a NaN step, so its fit ends unconverged."""
    try:
        return np.linalg.solve(H, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    step = np.empty_like(g)
    for a in range(len(g)):
        try:
            step[a] = np.linalg.solve(H[a], g[a])
        except np.linalg.LinAlgError:
            try:
                step[a] = np.linalg.lstsq(H[a], g[a], rcond=None)[0]
            except np.linalg.LinAlgError:
                step[a] = np.nan
    return step


def backward_eliminate(ds, base: ModelFormula, candidates: Sequence[Interaction],
                       alpha: float = 0.05, target: str = "outcome-model") -> ModelFormula:
    """Drop the least significant candidate interaction until all retained
    candidates are significant at `alpha`. Main terms are never dropped; ties
    on the p-value drop the candidate listed latest."""
    if target not in ("outcome-model", "membership-model"):
        raise ValueError("target must be 'outcome-model' or 'membership-model'")
    candidates = list(candidates)
    if not candidates:
        return base
    covs = ds.covariate_columns()
    remaining = list(candidates)
    while remaining:
        form = base.with_terms(remaining)
        labels = form.column_names()
        if target == "outcome-model":
            X = form.design_matrix(covs, treat=ds.treat)
            fit = fit_logistic(X, ds.outcome.astype(float), column_names=labels,
                               formula=form)
        else:
            if form.requires_treat:
                raise ValueError("membership models cannot reference treat")
            fit = fit_multinomial(form.design_matrix(covs), ds.study_idx, reference=0,
                                  column_names=labels, formula=form)
        pvals = _term_pvalues(fit, remaining)
        worst_i, worst_p = 0, -1.0
        for i, pv in enumerate(pvals):
            if pv >= worst_p:          # >= so the latest tied candidate wins
                worst_i, worst_p = i, pv
        if worst_p <= alpha:
            break
        remaining.pop(worst_i)
    return base.with_terms(remaining)


def _term_pvalues(fit, terms) -> list:
    """Wald p-value of each term's coefficients, one per non-reference
    category (a logistic fit has one); 1.0 for a term aliased away or one
    whose covariance is singular: no evidence to keep it."""
    kept_labels = list(fit.column_names)
    pk = len(kept_labels)
    coef = fit.coef.reshape(-1, pk)
    C = coef.shape[0]
    out = []
    for t in terms:
        lab = t.label()
        if lab not in kept_labels:
            out.append(1.0)
            continue
        j = kept_labels.index(lab)
        idx = [a * pk + j for a in range(C)]
        c = coef[:, j]
        V = fit.fisher_cov[np.ix_(idx, idx)]
        try:
            stat = float(c @ np.linalg.solve(V, c))
        except np.linalg.LinAlgError:
            out.append(1.0)
            continue
        out.append(chi2_sf(C, stat))
    return out
