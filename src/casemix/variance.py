"""Joint covariance of all transformed effects: stacked sandwich and bootstrap.

The sandwich treats every quantity as one M-estimator: outcome-model scores,
membership-model scores, arm proportions (unstabilized IPW divides by them),
one moment equation per standardized probability, and one deterministic delta
row per transformed effect. Sigma = A^-1 B A^-T / n with A the bread (Jacobian
of the averaged estimating function, assembled analytically) and B the meat.
Cells whose effect measure is undefined (e.g. an out-of-bounds unstabilized
probability feeding an odds ratio) get NaN rows rather than silent drops.

Weight truncation caps are held fixed at their estimated values inside the
sandwich; capped subjects contribute no weight derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.special import expit

from .errors import CasemixError, SingularBread, TooManyFailedReplicates
from .formula import ModelFormula
from .glm import multinomial_information, nonref_probs
from .ipd import IpdDataset
from .transport import (
    IPW_STABILIZED,
    MEASURES,
    OCR,
    FittedGrid,
    standardized_grid,
)

COND_LIMIT = 1e12


def _measure_transform(measure, p1, p0):
    """Transformed effect and validity for one cell."""
    if measure == "rd":
        return p1 - p0, True
    if measure == "rr":
        if p1 > 0 and p0 > 0:
            return float(np.log(p1 / p0)), True
        return float("nan"), False
    if 0 < p1 < 1 and 0 < p0 < 1:
        return float(np.log(p1 / (1 - p1)) - np.log(p0 / (1 - p0))), True
    return float("nan"), False


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


class _EffectRow:
    def __init__(self, measure, row, p1_row, p0_row):
        self.measure, self.row = measure, row
        self.p1_row, self.p0_row = p1_row, p0_row

    def _g(self, theta):
        t = theta[self.row]
        p1, p0 = theta[self.p1_row], theta[self.p0_row]
        if self.measure == "rd":
            return t - (p1 - p0)
        if self.measure == "rr":
            return t - (np.log(p1) - np.log(p0))
        return t - (np.log(p1 / (1 - p1)) - np.log(p0 / (1 - p0)))

    def add_psi(self, theta, out):
        out[:, self.row] = self._g(theta)

    def add_bread(self, theta, A, n):
        p1, p0 = theta[self.p1_row], theta[self.p0_row]
        A[self.row, self.row] += -1.0
        if self.measure == "rd":
            A[self.row, self.p1_row] += 1.0
            A[self.row, self.p0_row] += -1.0
        elif self.measure == "rr":
            A[self.row, self.p1_row] += 1.0 / p1
            A[self.row, self.p0_row] += -1.0 / p0
        else:
            A[self.row, self.p1_row] += 1.0 / (p1 * (1 - p1))
            A[self.row, self.p0_row] += -1.0 / (p0 * (1 - p0))


@dataclass
class EstimatingSystem:
    """Stacked estimating equations evaluated around their joint solution."""

    theta: np.ndarray
    components: list
    n: int
    prob_rows: dict                     # (j,k,x) -> theta index
    effect_rows: dict                   # (measure,(j,k)) -> theta index or None
    labels: tuple
    block_names: list = field(default_factory=list)

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


@dataclass
class CovarianceResult:
    sigma: dict                         # measure -> K^2 x K^2, NaN rows for undefined cells
    se: dict                            # measure -> K^2 vector
    method: str                         # "sandwich" | "bootstrap"
    labels: tuple
    excluded: Optional[dict] = None     # bootstrap: measure -> per-cell exclusion counts
    replicates: Optional[int] = None
    system: Optional[EstimatingSystem] = None

    def cell_order(self):
        return [(j, k) for j in self.labels for k in self.labels]


def build_system(ds: IpdDataset, method: str,
                 outcome_formula: Optional[ModelFormula] = None,
                 ps_formula: Optional[ModelFormula] = None,
                 measures: Sequence[str] = MEASURES,
                 ps_mode: Optional[str] = None,
                 truncation: Optional[float] = None,
                 expit_weight: bool = False,
                 overrides: Optional[Mapping] = None,
                 grid: Optional[FittedGrid] = None) -> EstimatingSystem:
    """Assemble the stacked system at the fitted solution.

    `grid` is the standardized grid of the same analysis; its fits are the
    model blocks of theta. Without one, the grid is computed here.
    """
    labels = ds.studies
    n = ds.n
    for msr in measures:
        if msr not in MEASURES:
            raise ValueError(f"unknown measure {msr!r}")
    if grid is None:
        grid = standardized_grid(ds, method, outcome_formula, ps_formula, ps_mode,
                                 truncation, expit_weight, overrides)
    else:
        grid.require(ds, method, outcome_formula, ps_formula, ps_mode, truncation,
                     expit_weight, overrides)

    covs = ds.covariate_columns()
    theta_parts: list = []
    components: list = []
    block_names: list = []
    cursor = 0

    def push(vec, name):
        nonlocal cursor
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        sl = slice(cursor, cursor + len(vec))
        theta_parts.append(vec)
        block_names.append(name)
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
    effect_rows: dict = {}

    if method == OCR:
        fit_slices: dict = {}
        for (k, form), fit in grid.outcome_fits.items():
            fit_slices[(k, form)] = push(fit.coef, f"beta[{k}|{form.text()}]")
            components.append(_LogisticScore(design(form, fit.kept), y_all,
                                             masks[k], fit_slices[(k, form)]))
        for j in labels:
            for k in labels:
                form = grid.outcome_formula_for(j, k)
                kept = grid.outcome_fits[(k, form)].kept
                for x in (0, 1):
                    sl = push(grid[(j, k, x)].prob, f"p[{j},{k},{x}]")
                    prob_rows[(j, k, x)] = sl.start
                    components.append(_OcrProb(masks[j], design(form, kept, x),
                                               fit_slices[(k, form)], sl.start))
    else:
        stabilized = method == IPW_STABILIZED
        pair_info: dict = {}
        if grid.ps_mode == "pairwise":
            for key, (fitted_for, fit) in grid.pair_fits.items():
                (other,) = key - {fitted_for}
                sl = push(fit.coef, f"gamma[{fitted_for}|{other}]")
                pair_info[key] = (fitted_for, sl, fit.kept)
                components.append(_LogisticScore(design(ps_formula, fit.kept), masks[fitted_for],
                                                 masks[fitted_for] + masks[other], sl))
        else:
            mfit = grid.multinomial_fit
            cats_nonref = [c for c in mfit.categories if c != mfit.reference]
            sls = [push(mfit.coef[r], f"gamma[{labels[c]}]")
                   for r, c in enumerate(cats_nonref)]
            Z = design(ps_formula, mfit.kept)
            components.append(_MultinomialScore(Z, ds.study_idx, cats_nonref, sls))

        pi_rows: dict = {}
        if not stabilized:
            for k in labels:
                mk = ds.mask(k)
                sl = push(float(np.mean(x_all[mk])), f"pi[{k}]")
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
                                         _cap_of(grid, j, k), expit_weight)
                else:
                    jn, kn = ds.study_number(j), ds.study_number(k)
                    if expit_weight:
                        weight = _MultiExpitWeight(Z, sls, cats_nonref,
                                                   jn, _cap_of(grid, j, k))
                    else:
                        weight = _MultiRatioWeight(Z, sls, cats_nonref,
                                                   jn, kn, _cap_of(grid, j, k))
                for x in (0, 1):
                    sl = push(grid[(j, k, x)].prob, f"p[{j},{k},{x}]")
                    prob_rows[(j, k, x)] = sl.start
                    components.append(_IpwProb(masks[k], masks[j], y_all, arms[x],
                                               weight, sl.start, stabilized, x,
                                               pi_row=pi_rows.get(k)))

    for msr in measures:
        for j in labels:
            for k in labels:
                p1 = grid[(j, k, 1)].prob
                p0 = grid[(j, k, 0)].prob
                t, ok = _measure_transform(msr, p1, p0)
                if not ok:
                    effect_rows[(msr, (j, k))] = None
                    continue
                sl = push(t, f"t[{msr},{j},{k}]")
                effect_rows[(msr, (j, k))] = sl.start
                components.append(_EffectRow(msr, sl.start, prob_rows[(j, k, 1)],
                                             prob_rows[(j, k, 0)]))

    theta = np.concatenate(theta_parts)
    return EstimatingSystem(theta=theta, components=components, n=n,
                            prob_rows=prob_rows, effect_rows=effect_rows,
                            labels=labels, block_names=block_names)


def _cap_of(grid, j, k) -> Optional[float]:
    d = grid[(j, k, 1)].weights_summary
    return None if d is None else d.truncated_at


def _se_from_sigma(M: np.ndarray) -> np.ndarray:
    d = np.diag(M)
    out = np.full(len(d), np.nan)
    ok = np.isfinite(d) & (d >= 0)
    out[ok] = np.sqrt(d[ok])
    return out


def sandwich_cov(ds: IpdDataset, method: str,
                 outcome_formula: Optional[ModelFormula] = None,
                 ps_formula: Optional[ModelFormula] = None,
                 measures: Sequence[str] = MEASURES,
                 ps_mode: Optional[str] = None,
                 truncation: Optional[float] = None,
                 expit_weight: bool = False,
                 overrides: Optional[Mapping] = None,
                 grid: Optional[FittedGrid] = None) -> CovarianceResult:
    """Sandwich covariance of all K^2 transformed effects, per measure.

    Pass the analysis's `grid` to reuse its fits; see `build_system`."""
    system = build_system(ds, method, outcome_formula, ps_formula, measures,
                          ps_mode, truncation, expit_weight, overrides, grid)
    S = system.sandwich()
    labels = system.labels
    K = len(labels)
    order = [(j, k) for j in labels for k in labels]
    sigma, se = {}, {}
    for msr in measures:
        rows = [system.effect_rows[(msr, jk)] for jk in order]
        M = np.full((K * K, K * K), np.nan)
        have = [i for i, r in enumerate(rows) if r is not None]
        idx = [rows[i] for i in have]
        M[np.ix_(have, have)] = S[np.ix_(idx, idx)]
        sigma[msr] = M
        se[msr] = _se_from_sigma(M)
    return CovarianceResult(sigma=sigma, se=se, method="sandwich", labels=labels,
                            system=system)


def bootstrap_cov(ds: IpdDataset, method: str,
                  outcome_formula: Optional[ModelFormula] = None,
                  ps_formula: Optional[ModelFormula] = None,
                  measures: Sequence[str] = MEASURES,
                  B: int = 200,
                  seed=0,
                  ps_mode: Optional[str] = None,
                  truncation: Optional[float] = None,
                  expit_weight: bool = False,
                  overrides: Optional[Mapping] = None,
                  _indices=None) -> CovarianceResult:
    """Stratified bootstrap: each trial resampled to its own size, the whole
    grid recomputed per replicate, covariance taken across replicates.
    Replicates where a cell is undefined are excluded for that cell
    (pairwise-complete covariance) and counted."""
    if B < 2:
        raise ValueError("need at least two bootstrap replicates")
    labels = ds.studies
    K = len(labels)
    order = [(j, k) for j in labels for k in labels]

    draws = {msr: np.full((B, K * K), np.nan) for msr in measures}
    for b in range(B):
        rng = np.random.default_rng(np.random.SeedSequence(_entropy(seed) + [b]))
        if _indices is not None:
            idx = _indices(b, rng, ds.study_rows)
        else:
            idx = np.concatenate([rows[rng.integers(0, len(rows), size=len(rows))]
                                  for rows in ds.study_rows])
        try:
            ds_b = ds.subset(np.asarray(idx))
            grid = standardized_grid(ds_b, method, outcome_formula, ps_formula,
                                     ps_mode, truncation, expit_weight, overrides)
        except (CasemixError, np.linalg.LinAlgError):
            continue                    # whole-replicate failure: excluded everywhere
        for c, (j, k) in enumerate(order):
            p1, p0 = grid[(j, k, 1)].prob, grid[(j, k, 0)].prob
            for msr in measures:
                t, ok = _measure_transform(msr, p1, p0)
                if ok:
                    draws[msr][b, c] = t

    sigma, se, excluded = {}, {}, {}
    for msr in measures:
        D = draws[msr]
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
