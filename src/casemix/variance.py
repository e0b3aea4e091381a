"""Joint covariance of all transformed effects: stacked sandwich and bootstrap.

Both start from the analysis's `FittedGrid`. The sandwich treats the grid as
one M-estimator: outcome-model scores, membership-model scores, arm
proportions (unstabilized IPW divides by them) and one moment equation per
standardized probability. Sigma_p = A^-1 B A^-T / n with A the bread
(Jacobian of the averaged estimating function, assembled analytically) and B
the meat. Each measure's covariance is then D Sigma_p D^T by the delta
method, with D from `transport.effect_transform`. Cells whose effect measure
is undefined (e.g. an out-of-bounds unstabilized probability feeding an odds
ratio) get NaN rows rather than silent drops.

Weight truncation caps are held fixed at their estimated values inside the
sandwich; capped subjects contribute no weight derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit

from .errors import CasemixError, SingularBread, TooManyFailedReplicates
from .glm import multinomial_information, nonref_probs
from .transport import (
    IPW_STABILIZED,
    MEASURES,
    OCR,
    FittedGrid,
    effect_transform,
    standardized_grid,
)

COND_LIMIT = 1e12


class _LogisticScore:
    def __init__(self, X, y, mask, sl):
        self.X, self.y, self.mask, self.sl = X, y, mask, sl

    def add_psi(self, theta, out):
        mu = expit(self.X @ theta[self.sl])
        out[:, self.sl] = (self.mask * (self.y - mu))[:, None] * self.X

    def add_bread(self, theta, A, n):
        mu = expit(self.X @ theta[self.sl])
        wt = self.mask * mu * (1 - mu)
        A[self.sl, self.sl] += (self.X * wt[:, None]).T @ self.X / n


class _MultinomialScore:
    """Score of the membership model over all rows; one block slice per
    non-reference category."""

    def __init__(self, X, cat_idx, cats_nonref, sls):
        self.X, self.cat_idx = X, cat_idx
        self.cats = cats_nonref
        self.sls = sls

    def _probs(self, theta):
        return nonref_probs(np.column_stack([self.X @ theta[sl] for sl in self.sls]))

    def add_psi(self, theta, out):
        P = self._probs(theta)
        for a, (c, sl) in enumerate(zip(self.cats, self.sls)):
            ind = (self.cat_idx == c).astype(float)
            out[:, sl] = (ind - P[:, a])[:, None] * self.X

    def add_bread(self, theta, A, n):
        sl = slice(self.sls[0].start, self.sls[-1].stop)   # blocks are adjacent
        A[sl, sl] += multinomial_information(self.X, self._probs(theta)) / n


class _ArmProportion:
    def __init__(self, mask, x, row):
        self.mask, self.x, self.row = mask, x, row

    def add_psi(self, theta, out):
        out[:, self.row] = self.mask * (self.x - theta[self.row])

    def add_bread(self, theta, A, n):
        A[self.row, self.row] += self.mask.sum() / n


class _OcrProb:
    def __init__(self, mask_j, Xx, beta_sl, row):
        self.mask_j, self.Xx, self.beta_sl, self.row = mask_j, Xx, beta_sl, row

    def add_psi(self, theta, out):
        mu = expit(self.Xx @ theta[self.beta_sl])
        out[:, self.row] = self.mask_j * (mu - theta[self.row])

    def add_bread(self, theta, A, n):
        mu = expit(self.Xx @ theta[self.beta_sl])
        wt = self.mask_j * mu * (1 - mu)
        A[self.row, self.beta_sl] += -(self.Xx * wt[:, None]).sum(axis=0) / n
        A[self.row, self.row] += self.mask_j.sum() / n


class _PairWeight:
    """w = exp(s * z @ gamma) (density ratio) or expit(s * z @ gamma) (literal)."""

    def __init__(self, Z, sl, sign, cap, expit_weight):
        self.Z, self.sl, self.sign = Z, sl, sign
        self.cap, self.expit_weight = cap, expit_weight

    def value(self, theta):
        lp = self.sign * (self.Z @ theta[self.sl])
        w = expit(lp) if self.expit_weight else np.exp(lp)
        return np.minimum(w, self.cap) if self.cap is not None else w

    def grad_blocks(self, theta):
        """[(slice, design, per-row coefficient)] with dw/dgamma = coeff[:,None]*design."""
        lp = self.sign * (self.Z @ theta[self.sl])
        if self.expit_weight:
            w = expit(lp)
            dw = w * (1 - w)
        else:
            w = np.exp(lp)
            dw = w.copy()
        if self.cap is not None:
            dw = np.where(w > self.cap, 0.0, dw)
            w = np.minimum(w, self.cap)
        return w, [(self.sl, self.Z, self.sign * dw)]


class _MultiRatioWeight:
    """w = P(S=j|L)/P(S=k|L) = exp(eta_j - eta_k) under a multinomial fit."""

    def __init__(self, Z, sls, cats_nonref, jn, kn, cap):
        self.Z, self.sls, self.cats = Z, sls, cats_nonref
        self.jn, self.kn, self.cap = jn, kn, cap

    def _lp(self, theta):
        lp = np.zeros(self.Z.shape[0])
        for c, sl in zip(self.cats, self.sls):
            if c == self.jn:
                lp += self.Z @ theta[sl]
            if c == self.kn:
                lp -= self.Z @ theta[sl]
        return lp

    def value(self, theta):
        w = np.exp(self._lp(theta))
        return np.minimum(w, self.cap) if self.cap is not None else w

    def grad_blocks(self, theta):
        w = np.exp(self._lp(theta))
        dw = w.copy()
        if self.cap is not None:
            dw = np.where(w > self.cap, 0.0, dw)
            w = np.minimum(w, self.cap)
        blocks = []
        for c, sl in zip(self.cats, self.sls):
            coeff = (1.0 if c == self.jn else 0.0) - (1.0 if c == self.kn else 0.0)
            if coeff:
                blocks.append((sl, self.Z, coeff * dw))
        return w, blocks


class _MultiExpitWeight:
    """Literal-probability weight w = P(S=j|L) under a multinomial fit."""

    def __init__(self, Z, sls, cats_nonref, jn, cap):
        self.Z, self.sls, self.cats = Z, sls, cats_nonref
        self.jn, self.cap = jn, cap

    def _P(self, theta):
        return nonref_probs(np.column_stack([self.Z @ theta[sl] for sl in self.sls]))

    def _wj(self, P):
        if self.jn in self.cats:
            return P[:, self.cats.index(self.jn)]
        return 1.0 - P.sum(axis=1)

    def value(self, theta):
        w = self._wj(self._P(theta))
        return np.minimum(w, self.cap) if self.cap is not None else w

    def grad_blocks(self, theta):
        P = self._P(theta)
        w = self._wj(P)
        capped = (w > self.cap) if self.cap is not None else np.zeros(len(w), bool)
        blocks = []
        for a, (c, sl) in enumerate(zip(self.cats, self.sls)):
            delta = 1.0 if c == self.jn else 0.0
            coeff = np.where(capped, 0.0, w * (delta - P[:, a]))
            blocks.append((sl, self.Z, coeff))
        if self.cap is not None:
            w = np.minimum(w, self.cap)
        return w, blocks


class _UnitWeight:
    def __init__(self, n):
        self.n = n

    def value(self, theta):
        return np.ones(self.n)

    def grad_blocks(self, theta):
        return np.ones(self.n), []


class _IpwProb:
    def __init__(self, mask_k, mask_j, y, arm, weight, row, stabilized, x, pi_row=None):
        self.mask_k, self.mask_j, self.y, self.arm = mask_k, mask_j, y, arm
        self.weight, self.row = weight, row
        self.stabilized, self.x, self.pi_row = stabilized, x, pi_row

    def _pi_x(self, theta):
        pi = theta[self.pi_row]
        return pi if self.x == 1 else 1.0 - pi

    def add_psi(self, theta, out):
        w = self.weight.value(theta)
        base = self.mask_k * self.arm * w
        if self.stabilized:
            out[:, self.row] = base * (self.y - theta[self.row])
        else:
            out[:, self.row] = (base * self.y / self._pi_x(theta)
                                - self.mask_j * theta[self.row])

    def add_bread(self, theta, A, n):
        w, blocks = self.weight.grad_blocks(theta)
        base = self.mask_k * self.arm
        if self.stabilized:
            resid = base * (self.y - theta[self.row])
            for sl, Z, coeff in blocks:
                A[self.row, sl] += -((Z * (resid * coeff)[:, None]).sum(axis=0)) / n
            A[self.row, self.row] += (base * w).sum() / n
        else:
            pix = self._pi_x(theta)
            for sl, Z, coeff in blocks:
                A[self.row, sl] += -((Z * (base * self.y * coeff / pix)[:, None]).sum(axis=0)) / n
            if self.pi_row is not None:
                dpi = 1.0 if self.x == 1 else -1.0
                A[self.row, self.pi_row] += dpi * (base * w * self.y).sum() / (pix * pix * n)
            A[self.row, self.row] += self.mask_j.sum() / n


@dataclass
class EstimatingSystem:
    """Stacked estimating equations evaluated around their joint solution."""

    theta: np.ndarray
    components: list
    n: int
    prob_rows: dict                     # (j,k,x) -> theta index

    @property
    def m(self) -> int:
        return len(self.theta)

    def psi(self, theta: Optional[np.ndarray] = None) -> np.ndarray:
        theta = self.theta if theta is None else theta
        out = np.zeros((self.n, self.m))
        for c in self.components:
            c.add_psi(theta, out)
        return out

    def psi_mean(self, theta: Optional[np.ndarray] = None) -> np.ndarray:
        return self.psi(theta).mean(axis=0)

    def bread(self, theta: Optional[np.ndarray] = None) -> np.ndarray:
        theta = self.theta if theta is None else theta
        A = np.zeros((self.m, self.m))
        for c in self.components:
            c.add_bread(theta, A, self.n)
        return A

    def bread_fd(self, theta: Optional[np.ndarray] = None) -> np.ndarray:
        """Central finite differences of -psi_mean, to check the analytic bread."""
        theta = self.theta if theta is None else theta
        A = np.zeros((self.m, self.m))
        for col in range(self.m):
            h = 1e-6 * (1.0 + abs(theta[col]))
            up, dn = theta.copy(), theta.copy()
            up[col] += h
            dn[col] -= h
            A[:, col] = -(self.psi_mean(up) - self.psi_mean(dn)) / (2 * h)
        return A

    def meat(self) -> np.ndarray:
        psi = self.psi()
        return psi.T @ psi / self.n

    def sandwich(self) -> np.ndarray:
        A = self.bread()
        cond = np.linalg.cond(A)
        if not np.isfinite(cond) or cond >= COND_LIMIT:
            raise SingularBread(
                f"bread matrix condition number {cond:.3g} exceeds {COND_LIMIT:g}",
                condition_number=float(cond))
        B = self.meat()
        Ainv = np.linalg.inv(A)
        S = Ainv @ B @ Ainv.T / self.n
        return (S + S.T) / 2.0


def _cell_order(labels) -> list:
    return [(j, k) for j in labels for k in labels]


@dataclass
class CovarianceResult:
    sigma: dict                         # measure -> K^2 x K^2, NaN rows for undefined cells
    se: dict                            # measure -> K^2 vector
    method: str                         # "sandwich" | "bootstrap"
    labels: tuple
    excluded: Optional[dict] = None     # bootstrap: measure -> per-cell exclusion counts
    replicates: Optional[int] = None

    def cell_order(self):
        return _cell_order(self.labels)


def build_system(grid: FittedGrid) -> EstimatingSystem:
    """Assemble the stacked system of `grid` at its fitted solution: the
    grid's fits are the model blocks of theta, its probabilities the rest."""
    ds, method, ps_formula = grid.ds, grid.method, grid.ps_formula
    labels = ds.studies
    n = ds.n
    covs = ds.covariate_columns()
    theta_parts: list = []
    components: list = []
    cursor = 0

    def push(vec):
        nonlocal cursor
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        sl = slice(cursor, cursor + len(vec))
        theta_parts.append(vec)
        cursor += len(vec)
        return sl

    masks = {lab: (ds.study_idx == i).astype(float) for i, lab in enumerate(labels)}
    y_all = ds.outcome.astype(float)
    x_all = ds.treat.astype(float)
    arms = {x: (x_all == x).astype(float) for x in (0, 1)}
    designs: dict = {}

    def design(form, kept, x=None):
        """All-row design at treat=x (observed treat if None), retained columns
        only; one array per distinct key, shared by every component."""
        key = (form, x, tuple(kept))
        if key not in designs:
            treat = x_all if x is None else np.full(n, float(x))
            designs[key] = form.design_matrix(covs, treat=treat)[:, kept]
        return designs[key]

    prob_rows: dict = {}

    if method == OCR:
        fit_slices: dict = {}
        for (k, form), fit in grid.outcome_fits.items():
            fit_slices[(k, form)] = push(fit.coef)
            components.append(_LogisticScore(design(form, fit.kept), y_all,
                                             masks[k], fit_slices[(k, form)]))
        for j in labels:
            for k in labels:
                form = grid.outcome_formula_for(j, k)
                kept = grid.outcome_fits[(k, form)].kept
                for x in (0, 1):
                    sl = push(grid[(j, k, x)].prob)
                    prob_rows[(j, k, x)] = sl.start
                    components.append(_OcrProb(masks[j], design(form, kept, x),
                                               fit_slices[(k, form)], sl.start))
    else:
        stabilized = method == IPW_STABILIZED
        pair_info: dict = {}
        if grid.ps_mode == "pairwise":
            for key, (fitted_for, fit) in grid.pair_fits.items():
                (other,) = key - {fitted_for}
                sl = push(fit.coef)
                pair_info[key] = (fitted_for, sl, fit.kept)
                components.append(_LogisticScore(design(ps_formula, fit.kept), masks[fitted_for],
                                                 masks[fitted_for] + masks[other], sl))
        else:
            mfit = grid.multinomial_fit
            cats_nonref = [c for c in mfit.categories if c != mfit.reference]
            sls = [push(mfit.coef[r]) for r in range(len(cats_nonref))]
            Z = design(ps_formula, mfit.kept)
            components.append(_MultinomialScore(Z, ds.study_idx, cats_nonref, sls))

        pi_rows: dict = {}
        if not stabilized:
            for k in labels:
                mk = ds.mask(k)
                sl = push(float(np.mean(x_all[mk])))
                pi_rows[k] = sl.start
                components.append(_ArmProportion(masks[k], x_all, sl.start))

        for j in labels:
            for k in labels:
                if j == k:
                    weight = _UnitWeight(n)
                elif grid.ps_mode == "pairwise":
                    fitted_for, sl, kept = pair_info[frozenset((j, k))]
                    sign = 1.0 if fitted_for == j else -1.0
                    weight = _PairWeight(design(ps_formula, kept), sl, sign,
                                         _cap_of(grid, j, k), grid.expit_weight)
                else:
                    jn, kn = ds.study_number(j), ds.study_number(k)
                    if grid.expit_weight:
                        weight = _MultiExpitWeight(Z, sls, cats_nonref,
                                                   jn, _cap_of(grid, j, k))
                    else:
                        weight = _MultiRatioWeight(Z, sls, cats_nonref,
                                                   jn, kn, _cap_of(grid, j, k))
                for x in (0, 1):
                    sl = push(grid[(j, k, x)].prob)
                    prob_rows[(j, k, x)] = sl.start
                    components.append(_IpwProb(masks[k], masks[j], y_all, arms[x],
                                               weight, sl.start, stabilized, x,
                                               pi_row=pi_rows.get(k)))

    theta = np.concatenate(theta_parts)
    return EstimatingSystem(theta=theta, components=components, n=n,
                            prob_rows=prob_rows)


def _cap_of(grid, j, k) -> Optional[float]:
    d = grid[(j, k, 1)].weights_summary
    return None if d is None else d.truncated_at


def _se_from_sigma(M: np.ndarray) -> np.ndarray:
    d = np.diag(M)
    out = np.full(len(d), np.nan)
    ok = np.isfinite(d) & (d >= 0)
    out[ok] = np.sqrt(d[ok])
    return out


def sandwich_cov(grid: FittedGrid, measures: Sequence[str] = MEASURES) -> CovarianceResult:
    """Sandwich covariance of all K^2 transformed effects, per measure: the
    stacked system's covariance of the 2K^2 probabilities, mapped to each
    measure by the delta method."""
    labels = grid.ds.studies
    order = _cell_order(labels)
    p1, p0 = (np.array([grid[(j, k, x)].prob for j, k in order]) for x in (1, 0))
    jacobians = {msr.lower(): effect_transform(msr, p1, p0)[1:] for msr in measures}
    system = build_system(grid)
    rows = [system.prob_rows[(j, k, x)] for x in (1, 0) for j, k in order]
    S_p = system.sandwich()[np.ix_(rows, rows)]
    sigma, se = {}, {}
    for msr, (d1, d0) in jacobians.items():
        ok = np.isfinite(d1)
        D = np.hstack([np.diag(np.where(ok, d1, 0.0)), np.diag(np.where(ok, d0, 0.0))])
        M = D @ S_p @ D.T
        M = (M + M.T) / 2.0
        M[~ok, :] = np.nan
        M[:, ~ok] = np.nan
        sigma[msr] = M
        se[msr] = _se_from_sigma(M)
    return CovarianceResult(sigma=sigma, se=se, method="sandwich", labels=labels)


def bootstrap_cov(grid: FittedGrid, measures: Sequence[str] = MEASURES, B: int = 200,
                  seed=0, _indices=None) -> CovarianceResult:
    """Stratified bootstrap: each trial resampled to its own size, the whole
    grid rebuilt per replicate with the settings of `grid`, covariance taken
    across replicates. Replicates where a cell is undefined are excluded for
    that cell (pairwise-complete covariance) and counted."""
    if B < 2:
        raise ValueError("need at least two bootstrap replicates")
    for msr in measures:                # unknown measures fail before any replicate
        effect_transform(msr, 0.5, 0.5)
    ds = grid.ds
    labels = ds.studies
    K = len(labels)
    order = _cell_order(labels)

    probs = np.full((B, K * K, 2), np.nan)  # [replicate, cell, arm]
    for b in range(B):
        rng = np.random.default_rng(np.random.SeedSequence(_entropy(seed) + [b]))
        if _indices is not None:
            idx = _indices(b, rng, ds.study_rows)
        else:
            idx = np.concatenate([rows[rng.integers(0, len(rows), size=len(rows))]
                                  for rows in ds.study_rows])
        try:
            rep = standardized_grid(ds.subset(np.asarray(idx)), grid.method,
                                    grid.outcome_formula, grid.ps_formula, grid.ps_mode,
                                    grid.truncation, grid.expit_weight, grid.overrides,
                                    grid.positivity_threshold)
        except (CasemixError, np.linalg.LinAlgError):
            continue                    # whole-replicate failure: excluded everywhere
        probs[b] = [[rep[(j, k, x)].prob for x in (0, 1)] for j, k in order]

    sigma, se, excluded = {}, {}, {}
    for msr in measures:
        msr = msr.lower()
        D = effect_transform(msr, probs[..., 1], probs[..., 0])[0]
        valid = np.isfinite(D)
        n_valid = valid.sum(axis=0)
        excluded[msr] = (B - n_valid).astype(int)
        if np.any(n_valid < B / 2):
            worst = order[int(np.argmin(n_valid))]
            raise TooManyFailedReplicates(
                f"{msr.upper()}{worst}: {B - int(n_valid.min())} of {B} bootstrap "
                "replicates undefined")
        M = np.full((K * K, K * K), np.nan)
        for a in range(K * K):
            for bcol in range(a, K * K):
                both = valid[:, a] & valid[:, bcol]
                nb = int(both.sum())
                if nb >= 2:
                    da = D[both, a] - D[both, a].mean()
                    db = D[both, bcol] - D[both, bcol].mean()
                    M[a, bcol] = M[bcol, a] = float(da @ db) / (nb - 1)
        sigma[msr] = M
        se[msr] = _se_from_sigma(M)
    return CovarianceResult(sigma=sigma, se=se, method="bootstrap", labels=labels,
                            excluded=excluded, replicates=B)


def _entropy(seed) -> list:
    if isinstance(seed, (list, tuple)):
        return [int(s) for s in seed]
    return [int(seed)]


def attach_covariance(matrix, result: CovarianceResult) -> None:
    """Fill an EffectMatrix's sigma and per-cell SEs from a covariance result."""
    msr = matrix.measure
    if msr not in result.sigma:
        raise ValueError(f"covariance result lacks measure {msr!r}")
    matrix.sigma = result.sigma[msr]
    matrix.covariance_method = result.method
    for i, jk in enumerate(matrix.cell_order()):
        cell = matrix.cells[jk]
        v = result.sigma[msr][i, i]
        cell.se_transformed = float(np.sqrt(v)) if np.isfinite(v) and v >= 0 else None
