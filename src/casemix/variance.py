"""Joint covariance of all transformed effects: stacked sandwich and bootstrap.

Both start from the analysis's `FittedGrid`. The sandwich treats the grid as
one M-estimator: outcome-model scores, membership-model scores, arm
proportions (unstabilized IPW divides by them) and one moment equation per
standardized probability. Sigma_p = A^-1 B A^-T / n with A the bread
(Jacobian of the averaged estimating function, assembled analytically) and B
the meat. Every model's score is one logit score, indicator minus fitted
probability times the design; an outcome model is its one-category case.
Each measure's covariance is then D Sigma_p D^T by the delta method, with D
from `transport.effect_transform`. Cells whose effect measure is undefined
(e.g. an out-of-bounds unstabilized probability feeding an odds ratio) get
NaN rows rather than silent drops.

Every component of the stacked system acts on one trial's rows only, so
psi is zero outside the trial blocks: trial t's rows touch only the columns
C_t its components write. The meat sums the blocks' Gram matrices one trial
at a time, in O(max n_t |C_t| + m^2) memory, never the n x m psi. Every
design comes from the grid (`FittedGrid.design`), and so do each trial's rows
and arm arrays (`FittedGrid.rows`, `FittedGrid.arms`); IPW weights come from
`transport.transport_weight`, the one function the grid also uses, once per
cell for both arms, so the sandwich sees the grid's weights bit for bit.

Weight truncation caps are held fixed at their estimated values inside the
sandwich; capped subjects (weight strictly above the cap) contribute no
weight derivative, and a weight exactly at the cap counts as uncapped, as in
the grid.

A bootstrap replicate is a multinomial reweighting of the rows (Efron &
Tibshirani 1993), so the bootstrap never builds a replicate's dataset or
grid: it turns each draw into per-row counts, refits the grid's models on
the grid's own designs, on the rows each grid fit read and in their order,
and computes the cells with `transport.CountCells`,
the kernel the grid runs as its one replicate of unit counts, for a block
of replicates at a time.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._special import expit
from .errors import (
    CasemixError,
    SeparationWarning,
    SingularBread,
    TooManyFailedReplicates,
)
from .glm import (
    LOGISTIC_SEPARATION,
    MULTINOMIAL_SEPARATION,
    FittedMultinomial,
    fit_counts,
    multinomial_information,
    nonref_softmax,
)
from .transport import (
    IPW_STABILIZED,
    MEASURES,
    OCR,
    CountCells,
    FittedGrid,
    _cell_order,
    _integer,
    effect_transform,
    membership_columns,
    membership_eta,
    transport_weight,
)

COND_LIMIT = 1e12


class _LogitScore:
    """Score of a logit fit on one trial's rows: the trial's indicator of
    each non-reference category, times `y`, minus the fitted probabilities,
    times the design X, in one block per category. `col` is the trial's
    category (None for the reference). A membership fit has y = 1; an outcome
    fit is the one-category case, col 0 and y its outcomes."""

    def __init__(self, trial, rows, X, sl, col, y=1.0):
        self.trial, self.rows, self.cols = trial, rows, range(sl.start, sl.stop)
        self.X, self.sl, self.col, self.y = X, sl, col, y

    def _probs(self, theta):
        eta = membership_eta(self.X, theta[self.sl].reshape(-1, self.X.shape[1]))
        return nonref_softmax(eta)[0]

    def add_psi(self, theta, P, pos):
        R = -self._probs(theta)
        if self.col is not None:
            R[:, self.col] += self.y
        cols = pos[self.sl].reshape(-1, self.X.shape[1])   # C x p, category-major
        for c in range(self.X.shape[1]):
            P[:, cols[:, c]] = R * self.X[:, c, None]

    def add_bread(self, theta, A, n):
        A[self.sl, self.sl] += multinomial_information(self.X, self._probs(theta)) / n


class _Centering:
    """Adds x - theta[cols] on one trial's rows: an arm proportion, or, with no
    x, the target trial's -p term of both unstabilized IPW probabilities of a
    cell, after the cell's own term when both act on the same trial."""

    def __init__(self, trial, rows, cols, x=None):
        self.trial, self.rows, self.cols = trial, rows, cols
        self.x = 0.0 if x is None else x[:, None]

    def add_psi(self, theta, P, pos):
        P[:, pos[self.cols]] += self.x - theta[self.cols]

    def add_bread(self, theta, A, n):
        A[self.cols, self.cols] += len(self.rows) / n


class _OcrProb:
    def __init__(self, trial_j, rows_j, Xx, beta_sl, row):
        self.trial, self.rows, self.cols = trial_j, rows_j, (row,)
        self.Xx, self.beta_sl, self.row = Xx, beta_sl, row

    def add_psi(self, theta, P, pos):
        P[:, pos[self.row]] = expit(self.Xx @ theta[self.beta_sl]) - theta[self.row]

    def add_bread(self, theta, A, n):
        mu = expit(self.Xx @ theta[self.beta_sl])
        A[self.row, self.beta_sl] += -(self.Xx.T @ (mu * (1 - mu))) / n
        A[self.row, self.row] += len(self.rows) / n


class _IpwCell:
    """Both IPW probability moments (theta indices `cols`, arm 0 then 1) of a
    cell on source trial k's rows, from the trial's arm indicators `arms` and
    arm outcomes `arm_y` (rows x arm, the grid's `arms`); unstabilized, with
    the arm proportion at `pi_row`, a `_Centering` completes them. `weight` is
    None on the diagonal or (Z, membership slice, j_col, k_col, expit_weight,
    cap) for `transport_weight`, which runs once for both arms. For a 0/1 arm,
    arm_y - arm p is arm (y - p) exactly."""

    def __init__(self, trial_k, rows_k, arms, arm_y, cols, pi_row, weight):
        self.trial, self.rows, self.cols = trial_k, rows_k, cols
        self.arms, self.arm_y, self.pi_row, self.weight = arms, arm_y, pi_row, weight

    def _pi_x(self, theta, x):
        pi = theta[self.pi_row]
        return pi if x == 1 else 1.0 - pi

    def _w(self, theta):
        """Weights on trial k's rows and dw/deta (None on the diagonal)."""
        if self.weight is None:
            return np.ones(len(self.rows)), None
        Z, sl, j_col, k_col, expit_weight, cap = self.weight
        eta = membership_eta(Z, theta[sl].reshape(-1, Z.shape[1]))
        return transport_weight(eta, j_col, k_col, expit_weight, cap)

    def add_psi(self, theta, P, pos):
        w = self._w(theta)[0]
        for x, (arm, arm_y, row) in enumerate(zip(self.arms.T, self.arm_y.T, self.cols)):
            if self.pi_row is None:
                P[:, pos[row]] = w * (arm_y - arm * theta[row])
            else:
                P[:, pos[row]] = arm_y * w / self._pi_x(theta, x)

    def add_bread(self, theta, A, n):
        w, dw = self._w(theta)
        for x, (arm, arm_y, row) in enumerate(zip(self.arms.T, self.arm_y.T, self.cols)):
            if self.pi_row is None:
                coeff = arm_y - arm * theta[row]
                A[row, row] += (arm * w).sum() / n
            else:
                pix = self._pi_x(theta, x)
                coeff = arm_y / pix
                dpi = 1.0 if x == 1 else -1.0
                A[row, self.pi_row] += dpi * (arm_y * w).sum() / (pix * pix * n)
            if dw is not None:          # d/dgamma of sum(coeff * w)
                Z, sl = self.weight[:2]
                A[row, sl] += -(Z.T @ (coeff[:, None] * dw)).T.ravel() / n


class _TrialBlock:
    """The components acting on one trial, its rows and the columns C_t they
    write, with their positions in the trial's n_t x |C_t| block of psi."""

    def __init__(self, components, m):
        self.components, self.rows = components, components[0].rows
        self.cols = np.unique(np.concatenate([c.cols for c in components]))
        self.pos = np.full(m, -1)
        self.pos[self.cols] = np.arange(len(self.cols))

    def psi(self, theta) -> np.ndarray:
        P = np.zeros((len(self.rows), len(self.cols)))
        for c in self.components:
            c.add_psi(theta, P, self.pos)
        return P


@dataclass
class EstimatingSystem:
    """Stacked estimating equations evaluated around their joint solution."""

    theta: np.ndarray
    components: list
    n: int
    prob_rows: dict                     # (j,k,x) -> theta index
    bread_condition: Optional[float] = None     # set by `sandwich`

    def __post_init__(self):
        self._blocks = [_TrialBlock([c for c in self.components if c.trial == t], self.m)
                        for t in dict.fromkeys(c.trial for c in self.components)]

    @property
    def m(self) -> int:
        return len(self.theta)

    def psi(self, theta: Optional[np.ndarray] = None) -> np.ndarray:
        """The n x m psi, assembled from the trial blocks."""
        theta = self.theta if theta is None else theta
        out = np.zeros((self.n, self.m))
        for blk in self._blocks:
            out[np.ix_(blk.rows, blk.cols)] = blk.psi(theta)
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
        """psi'psi / n, summed over the trial blocks: O(max n_t |C_t| + m^2) memory."""
        B = np.zeros((self.m, self.m))
        for blk in self._blocks:
            P = blk.psi(self.theta)
            B[np.ix_(blk.cols, blk.cols)] += P.T @ P
            del P                       # one block alive at a time
        return B / self.n

    def sandwich(self) -> np.ndarray:
        A = self.bread()
        cond = self.bread_condition = float(np.linalg.cond(A))
        if not np.isfinite(cond) or cond >= COND_LIMIT:
            raise SingularBread(
                f"bread matrix condition number {cond:.3g} exceeds {COND_LIMIT:g}",
                condition_number=cond)
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
    failures: Optional[dict] = None     # bootstrap: exception name -> replicates it excluded
    bread_condition: Optional[float] = None     # sandwich: condition number of the bread

    def cell_order(self):
        return _cell_order(self.labels)


def build_system(grid: FittedGrid) -> EstimatingSystem:
    """Assemble the stacked system of `grid` at its fitted solution: the
    grid's fits are the model blocks of theta, its probabilities the rest.
    Each component acts on its own trial's rows only, with the design the
    grid evaluated there (`FittedGrid.design`) and the grid's per-trial rows
    and arm arrays."""
    ds, method, ps_formula = grid.ds, grid.settings.method, grid.settings.ps_formula
    labels, rows = ds.studies, grid.rows
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
            components.append(_LogitScore(k, rows[k], grid.design(form, k, fit.kept),
                                          fit_slices[(k, form)], 0, ds.outcome[rows[k]]))
        for c, (j, k) in enumerate(_cell_order(labels)):
            form = grid.outcome_formula_for(j, k)
            kept = grid.outcome_fits[(k, form)].kept
            for x in (0, 1):
                prob_rows[(j, k, x)] = row = push(grid.probs[c, x]).start
                components.append(_OcrProb(j, rows[j], grid.design(form, j, kept, x),
                                           fit_slices[(k, form)], row))
    else:
        stabilized = method == IPW_STABILIZED
        gamma: dict = {}                # id of a membership fit -> its theta slice
        for fit in grid.membership_fits.values():
            gamma[id(fit)] = sl = push(fit.coef.ravel())
            for lab in (labels[s] for s in fit.categories):
                col = membership_columns(fit, ds, lab, lab)[1]
                components.append(_LogitScore(
                    lab, rows[lab], grid.design(ps_formula, lab, fit.kept), sl, col))

        treated = {k: grid.arms[k][0][:, 1] for k in labels}
        pi_rows = {} if stabilized else {k: push(np.mean(treated[k])).start for k in labels}
        components += [_Centering(k, rows[k], [r], treated[k]) for k, r in pi_rows.items()]

        for c, (j, k) in enumerate(_cell_order(labels)):
            weight = None
            if j != k:
                fit = grid.membership_fit(j, k)
                kept, j_col, k_col = membership_columns(fit, ds, j, k)
                weight = (grid.design(ps_formula, k, kept), gamma[id(fit)], j_col, k_col,
                          grid.settings.expit_weight, grid.diagnostics[(j, k)].truncated_at)
            cols = [push(p).start for p in grid.probs[c]]     # arm 0, then arm 1
            prob_rows.update({(j, k, 0): cols[0], (j, k, 1): cols[1]})
            components.append(_IpwCell(k, rows[k], *grid.arms[k], cols, pi_rows.get(k),
                                       weight))
            if not stabilized:
                components.append(_Centering(j, rows[j], cols))

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
    jacobians = {msr.lower(): effect_transform(msr, grid.probs[:, 1], grid.probs[:, 0])[1:]
                 for msr in measures}
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
    return CovarianceResult(sigma=sigma, se=se, method="sandwich", labels=labels,
                            bread_condition=system.bread_condition)


# replicates x rows x categories of one replicate block (128 KB per array):
# smaller blocks pay more per-block overhead, larger ones gain no speed and
# raise peak memory
_BLOCK_CELLS = 1 << 14


def bootstrap_cov(grid: FittedGrid, measures: Sequence[str] = MEASURES, B: int = 200,
                  seed=0, _indices=None) -> CovarianceResult:
    """Stratified bootstrap: each trial resampled to its own size, the grid
    recomputed per replicate with `grid.settings`, covariance taken across
    replicates. A replicate is the parent's rows weighted by how often its
    draw holds them (`_CountReplicates`). A replicate whose draw or refit
    fails is excluded everywhere and counted by reason in `failures`;
    replicates where a cell is undefined are excluded for that cell
    (pairwise-complete covariance) and counted in `excluded`."""
    if B < 2:
        raise ValueError("need at least two bootstrap replicates")
    for msr in measures:                # unknown measures fail before any replicate
        effect_transform(msr, 0.5, 0.5)
    ds = grid.ds
    labels = ds.studies
    K = len(labels)
    order = _cell_order(labels)
    replicates = _CountReplicates(grid)
    entropy = _entropy(seed)

    probs = np.full((B, K * K, 2), np.nan)  # [replicate, cell, arm]
    failures: Counter = Counter()
    counts = np.empty((min(B, replicates.block), ds.n))
    for start in range(0, B, replicates.block):
        drawn = []
        for b in range(start, min(B, start + replicates.block)):
            rng = np.random.default_rng(np.random.SeedSequence(entropy + [b]))
            if _indices is not None:
                idx = np.asarray(_indices(b, rng, ds.study_rows))
            else:
                idx = np.concatenate([rows[rng.integers(0, len(rows), size=len(rows))]
                                      for rows in ds.study_rows])
            try:
                ds.subset(idx)          # an empty trial or a lost arm fails the replicate
            except CasemixError as e:
                failures[type(e).__name__] += 1
                continue
            counts[len(drawn)] = np.bincount(idx, minlength=ds.n)
            drawn.append(b)
        if drawn:
            probs[drawn] = replicates.probs(counts[:len(drawn)], failures)

    sigma, se, excluded = {}, {}, {}
    for msr in measures:
        msr = msr.lower()
        D = effect_transform(msr, probs[..., 1], probs[..., 0])[0]
        n_valid = np.isfinite(D).sum(axis=0)
        excluded[msr] = (B - n_valid).astype(int)
        if np.any(n_valid < B / 2):
            worst = order[int(np.argmin(n_valid))]
            raise TooManyFailedReplicates(
                f"{msr.upper()}{worst}: {B - int(n_valid.min())} of {B} bootstrap "
                "replicates undefined")
        sigma[msr] = _pairwise_cov(D)
        se[msr] = _se_from_sigma(sigma[msr])
    return CovarianceResult(sigma=sigma, se=se, method="bootstrap", labels=labels,
                            excluded=excluded, replicates=B,
                            failures=dict(sorted(failures.items())))


def _pairwise_cov(D: np.ndarray) -> np.ndarray:
    """Covariance of D's columns, each pair over the rows where both are finite;
    NaN where fewer than two are. The columns are first centred at their own
    means, so the masked sums carry no large common offset."""
    V = np.isfinite(D)
    Vf = V.astype(float)
    n = Vf.sum(axis=0)
    Dz = np.where(V, D, 0.0)
    Dc = np.where(V, Dz - Dz.sum(axis=0) / np.maximum(n, 1.0), 0.0)
    N = Vf.T @ Vf                       # rows where both are finite
    S = Dc.T @ Vf                       # S[a, b]: sum of column a over those rows
    with np.errstate(divide="ignore", invalid="ignore"):
        M = (Dc.T @ Dc - S * S.T / N) / (N - 1.0)
    M[N < 2] = np.nan
    return np.triu(M) + np.triu(M, 1).T


class _CountReplicates(CountCells):
    """The models and cells of a grid, recomputed for a block of bootstrap
    replicates given as per-row counts on the grid's dataset: each model
    refitted for every live replicate at once (`glm.fit_counts`) on the
    design the grid holds, the cells `CountCells`' count-weighted sums. A
    replicate that fails a step (as the step would raise on the resampled
    rows) is counted by reason and its cells discarded. A block holds at most
    `_BLOCK_CELLS` replicate x row x category cells, or one replicate: its
    size is fixed by the data's shape."""

    def __init__(self, grid: FittedGrid):
        super().__init__(grid)
        C = max([len(fit.categories) - 1 for fit in grid.membership_fits.values()], default=1)
        self.block = max(1, _BLOCK_CELLS // (grid.ds.n * C))

    def probs(self, counts: np.ndarray, failures: Counter) -> np.ndarray:
        """[replicate, cell, arm] probabilities of the replicates with these
        counts (replicates x rows, as floats); NaN for a replicate that fails,
        counted by reason in `failures`."""
        self.failures = failures
        out = self.cells({lab: counts[:, rows] for lab, rows in self.grid.rows.items()})
        out[~self.alive] = np.nan
        return out

    def _fail(self, b, error, message=None) -> None:
        self.alive[b] = False
        self.failures[error.__name__] += 1

    def _summarize(self, j, k, w, caps) -> None:
        """A replicate's weights are not summarized."""

    def _coef(self, fit, labels) -> np.ndarray:
        """`fit` refitted for the live replicates on its design of trials
        `labels`, the grid fit's trials in its order, so a replicate reads the
        grid fit's rows in their order; each replicate's Newton loop starts
        at `fit`'s coefficients. A replicate whose fit fails leaves the block,
        one that separates warns. A replicate that has left holds zeros."""
        ds, rows = self.grid.ds, np.concatenate([self.grid.rows[lab] for lab in labels])
        if isinstance(fit, FittedMultinomial):
            nonref = [s for s in fit.categories if s != fit.reference]
            Y = (ds.study_idx[rows][:, None] == np.array(nonref)).astype(float)
            message = MULTINOMIAL_SEPARATION
        else:
            Y, message = ds.outcome[rows].astype(float)[:, None], LOGISTIC_SEPARATION
        X = np.vstack([self.grid.design(fit.formula, lab, fit.kept) for lab in labels])
        live = np.flatnonzero(self.alive)
        fits = fit_counts(X, Y, np.hstack([self.counts[lab] for lab in labels])[live],
                          start=fit.coef)
        coef = np.zeros((len(self.alive),) + fits.coef.shape[1:])
        coef[live] = fits.coef
        for b, error, separated in zip(live, fits.failure, fits.separated):
            if error is not None:
                self._fail(b, error)
            elif separated:
                warnings.warn(message, SeparationWarning, stacklevel=2)
        coef[~self.alive] = 0.0
        return coef


def _entropy(seed) -> list:
    """A seed, a non-negative integer or a sequence of them, as a
    SeedSequence's entropy."""
    seeds = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    if not all(_integer(s) and s >= 0 for s in seeds):
        raise ValueError("seed must be a non-negative integer or a sequence of them, "
                         f"not {seed!r}")
    return [int(s) for s in seeds]


def attach_covariance(matrix, result: CovarianceResult) -> None:
    """Fill an EffectMatrix's sigma and per-cell SEs from a covariance result."""
    msr = matrix.measure
    if msr not in result.sigma:
        raise ValueError(f"covariance result lacks measure {msr!r}")
    matrix.sigma = result.sigma[msr]
    matrix.covariance_method = result.method
    for se, jk in zip(result.se[msr], matrix.cell_order()):
        matrix.cells[jk].se_transformed = None if np.isnan(se) else float(se)
