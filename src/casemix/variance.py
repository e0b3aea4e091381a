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

Each component of the stacked system holds the row indices it acts on (its
trial's `study_rows`) and evaluates its linear predictors on those rows only.
Every design comes from the grid (`FittedGrid.design`), so the components
evaluate the arrays the cells were computed from. IPW weights come from
`transport.transport_weight`, the one function the grid also uses, evaluated
at theta on the same design, so the sandwich sees the grid's weights bit for
bit.

Weight truncation caps are held fixed at their estimated values inside the
sandwich; capped subjects (weight strictly above the cap) contribute no
weight derivative, and a weight exactly at the cap counts as uncapped, as in
the grid.
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
    membership_columns,
    membership_eta,
    standardized_grid,
    transport_weight,
)

COND_LIMIT = 1e12


class _LogisticScore:
    """Score of an outcome fit on its trial's rows."""

    def __init__(self, rows, X, y, sl):
        self.rows, self.X, self.y, self.sl = rows, X, y, sl

    def add_psi(self, theta, out):
        mu = expit(self.X @ theta[self.sl])
        out[self.rows, self.sl] = (self.y - mu)[:, None] * self.X

    def add_bread(self, theta, A, n):
        mu = expit(self.X @ theta[self.sl])
        A[self.sl, self.sl] += (self.X * (mu * (1 - mu))[:, None]).T @ self.X / n


class _MembershipScore:
    """Score of a membership fit on one trial's rows: the trial's category
    indicator minus the fitted probabilities, times the design, in one block
    per non-reference category. A pairwise fit is the one-category case;
    `col` is the trial's category (None for the reference)."""

    def __init__(self, rows, Z, col, sl):
        self.rows, self.Z, self.col, self.sl = rows, Z, col, sl

    def _probs(self, theta):
        return nonref_probs(membership_eta(self.Z, theta[self.sl].reshape(-1, self.Z.shape[1])))

    def add_psi(self, theta, out):
        R = -self._probs(theta)
        if self.col is not None:
            R[:, self.col] += 1.0
        out[self.rows, self.sl] = (R[:, :, None] * self.Z[:, None, :]).reshape(len(self.rows), -1)

    def add_bread(self, theta, A, n):
        A[self.sl, self.sl] += multinomial_information(self.Z, self._probs(theta)) / n


class _ArmProportion:
    def __init__(self, rows, x, row):
        self.rows, self.x, self.row = rows, x, row

    def add_psi(self, theta, out):
        out[self.rows, self.row] = self.x - theta[self.row]

    def add_bread(self, theta, A, n):
        A[self.row, self.row] += len(self.rows) / n


class _OcrProb:
    def __init__(self, rows_j, Xx, beta_sl, row):
        self.rows_j, self.Xx, self.beta_sl, self.row = rows_j, Xx, beta_sl, row

    def add_psi(self, theta, out):
        out[self.rows_j, self.row] = expit(self.Xx @ theta[self.beta_sl]) - theta[self.row]

    def add_bread(self, theta, A, n):
        mu = expit(self.Xx @ theta[self.beta_sl])
        A[self.row, self.beta_sl] += -(self.Xx.T @ (mu * (1 - mu))) / n
        A[self.row, self.row] += len(self.rows_j) / n


class _IpwProb:
    """Moment of one IPW probability on trial k's rows (y, arm); unstabilized,
    it also subtracts the probability on trial j's rows. `weight` is None on
    the diagonal (unit weights) or (Z, membership slice, j_col, k_col,
    expit_weight, cap) for `transport_weight` at theta."""

    def __init__(self, rows_k, rows_j, y, arm, x, row, stabilized, pi_row, weight):
        self.rows_k, self.rows_j, self.y, self.arm = rows_k, rows_j, y, arm
        self.x, self.row, self.stabilized, self.pi_row = x, row, stabilized, pi_row
        self.weight = weight

    def _pi_x(self, theta):
        pi = theta[self.pi_row]
        return pi if self.x == 1 else 1.0 - pi

    def _w(self, theta):
        """Weights on trial k's rows and dw/deta (None on the diagonal)."""
        if self.weight is None:
            return np.ones(len(self.rows_k)), None
        Z, sl, j_col, k_col, expit_weight, cap = self.weight
        eta = membership_eta(Z, theta[sl].reshape(-1, Z.shape[1]))
        return transport_weight(eta, j_col, k_col, expit_weight, cap)

    def _add_weight_grad(self, A, n, coeff, dw):
        """d/dgamma of sum(coeff * w) into the membership columns of A."""
        if dw is not None:
            Z, sl = self.weight[:2]
            A[self.row, sl] += -(Z.T @ (coeff[:, None] * dw)).T.ravel() / n

    def add_psi(self, theta, out):
        w = self._w(theta)[0]
        if self.stabilized:
            out[self.rows_k, self.row] = self.arm * w * (self.y - theta[self.row])
        else:
            out[self.rows_k, self.row] = self.arm * w * self.y / self._pi_x(theta)
            out[self.rows_j, self.row] -= theta[self.row]

    def add_bread(self, theta, A, n):
        w, dw = self._w(theta)
        if self.stabilized:
            self._add_weight_grad(A, n, self.arm * (self.y - theta[self.row]), dw)
            A[self.row, self.row] += (self.arm * w).sum() / n
        else:
            pix = self._pi_x(theta)
            self._add_weight_grad(A, n, self.arm * self.y / pix, dw)
            dpi = 1.0 if self.x == 1 else -1.0
            A[self.row, self.pi_row] += dpi * (self.arm * w * self.y).sum() / (pix * pix * n)
            A[self.row, self.row] += len(self.rows_j) / n


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
    grid's fits are the model blocks of theta, its probabilities the rest.
    Each component acts on its own trial's rows only, with the design the
    grid evaluated there (`FittedGrid.design`)."""
    ds, method, ps_formula = grid.ds, grid.method, grid.ps_formula
    labels = ds.studies
    rows = dict(zip(labels, ds.study_rows))
    y = {lab: ds.outcome[r].astype(float) for lab, r in rows.items()}
    treat = {lab: ds.treat[r].astype(float) for lab, r in rows.items()}
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

    prob_rows: dict = {}

    if method == OCR:
        fit_slices: dict = {}
        for (k, form), fit in grid.outcome_fits.items():
            fit_slices[(k, form)] = push(fit.coef)
            components.append(_LogisticScore(rows[k], grid.design(form, k, fit.kept),
                                             y[k], fit_slices[(k, form)]))
        for j in labels:
            for k in labels:
                form = grid.outcome_formula_for(j, k)
                kept = grid.outcome_fits[(k, form)].kept
                for x in (0, 1):
                    sl = push(grid[(j, k, x)].prob)
                    prob_rows[(j, k, x)] = sl.start
                    components.append(_OcrProb(rows[j], grid.design(form, j, kept, x),
                                               fit_slices[(k, form)], sl.start))
    else:
        stabilized = method == IPW_STABILIZED
        gamma: dict = {}                # id of a membership fit -> its theta slice
        for j in labels:
            for k in labels:
                fit = None if j == k else grid.membership_fit(j, k)
                if fit is None or id(fit) in gamma:
                    continue
                coef, kept = membership_columns(fit, ds, j, k)[:2]
                gamma[id(fit)] = sl = push(coef.ravel())
                for lab in ((j, k) if grid.ps_mode == "pairwise" else labels):
                    col = membership_columns(fit, ds, lab, lab)[2]
                    components.append(_MembershipScore(
                        rows[lab], grid.design(ps_formula, lab, kept), col, sl))

        pi_rows: dict = {}
        if not stabilized:
            for k in labels:
                sl = push(float(np.mean(treat[k])))
                pi_rows[k] = sl.start
                components.append(_ArmProportion(rows[k], treat[k], sl.start))

        for j in labels:
            for k in labels:
                weight = None
                if j != k:
                    fit = grid.membership_fit(j, k)
                    _, kept, j_col, k_col = membership_columns(fit, ds, j, k)
                    weight = (grid.design(ps_formula, k, kept), gamma[id(fit)], j_col,
                              k_col, grid.expit_weight,
                              grid[(j, k, 1)].weights_summary.truncated_at)
                for x in (0, 1):
                    sl = push(grid[(j, k, x)].prob)
                    prob_rows[(j, k, x)] = sl.start
                    components.append(_IpwProb(rows[k], rows[j], y[k],
                                               (treat[k] == x).astype(float), x, sl.start,
                                               stabilized, pi_rows.get(k), weight))

    theta = np.concatenate(theta_parts)
    return EstimatingSystem(theta=theta, components=components, n=ds.n,
                            prob_rows=prob_rows)


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
