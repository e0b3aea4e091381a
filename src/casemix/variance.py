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
model, design and linear-predictor column comes from the grid's records
(`FittedGrid.models`, `FittedGrid.cells`), and so do each trial's rows and
arm arrays (`FittedGrid.rows`, `FittedGrid.arms`); IPW weights come from
`transport.transport_weight`, the one function the grid also uses, once per
cell for both arms, so the sandwich sees the grid's weights bit for bit.

Weight truncation caps are held fixed at their estimated values inside the
sandwich; capped subjects (weight strictly above the cap) contribute no
weight derivative, and a weight exactly at the cap counts as uncapped, as in
the grid.

A bootstrap replicate is a multinomial reweighting of the rows (Efron &
Tibshirani 1993), so the bootstrap never builds a replicate's dataset or
grid: it turns each draw into per-row counts, refits each of the grid's
`models` on its own designs, on the rows its grid fit read and in their
order, and computes the cells with `transport.CountCells`,
the kernel the grid runs as its one replicate of unit counts, for a block
of replicates at a time. The blocks are the fewest of equal size (give or
take one) under `_BLOCK_CELLS`, and each block's and each trial's counts are
views of one count array whose columns run in trial order. A replication
study draws its replicates once (`draw_replicates`) and every analysis of
the dataset reads those draws; a lone call draws one block at a time.
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
    FittedLogistic,
    fit_counts,
    multinomial_information,
    nonref_softmax,
)
from .ipd import IpdDataset
from .transport import (
    IPW_STABILIZED,
    MEASURES,
    OCR,
    CountCells,
    FittedGrid,
    _cell_order,
    _check_count,
    _integer,
    effect_transform,
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
    grid's `models` are the model blocks of theta, in their order, its
    probabilities the rest. Each component acts on its own trial's rows
    only, with the design the grid's records hold there (`FittedGrid.models`
    and `FittedGrid.cells`) and the grid's per-trial rows and arm arrays."""
    ds, method, rows = grid.ds, grid.settings.method, grid.rows
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
    slices = []                         # per model: its theta slice
    for model in grid.models:           # one logit score per model and trial
        slices.append(push(model.fit.coef.ravel()))
        components += [_LogitScore(t, rows[t], Z, slices[-1], col, model.response(ds, rows[t]))
                       for t, Z, col in zip(model.trials, model.designs, model.cols)]

    if method == OCR:
        for c, cell in enumerate(grid.cells):
            for x in (0, 1):
                prob_rows[(cell.j, cell.k, x)] = row = push(grid.probs[c, x]).start
                components.append(_OcrProb(cell.j, rows[cell.j], cell.designs[x],
                                           slices[cell.model], row))
    else:
        stabilized = method == IPW_STABILIZED
        treated = {k: grid.arms[k][0][:, 1] for k in ds.studies}
        pi_rows = {} if stabilized else {k: push(np.mean(treated[k])).start for k in ds.studies}
        components += [_Centering(k, rows[k], [r], treated[k]) for k, r in pi_rows.items()]

        for c, cell in enumerate(grid.cells):
            j, k = cell.j, cell.k
            weight = None
            if cell.model is not None:
                weight = (cell.designs[0], slices[cell.model], cell.j_col, cell.k_col,
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


# replicates x rows x categories of one replicate block (256 KiB per array).
# Measured on simulate-boot (n = 1,500, K = 2, B = 50) against blocks of up to
# 10 (1 << 14, 128 KiB): three blocks of 17 take 10% less CPU time, two of 25
# 17% and one of 50 22%, while the op's peak RSS of 42.1 MiB rises by 0.6, 1.9
# and 4.1 MiB. This is the largest bound that keeps that rise within 3%.
_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class Draws:
    """The B draws of a stratified bootstrap of `ds` from seed `entropy`,
    made once and shared by every analysis of the dataset: replicate b's
    per-row counts, columns in trial order (each trial's rows ascending, as
    the grid reads them), and the name of the error its validation raised
    (None for a valid draw; a failed draw's counts are 0)."""

    ds: IpdDataset
    entropy: tuple
    counts: np.ndarray                  # B x n, floats
    failure: tuple                      # per replicate: None or an error name


def draw_replicates(ds: IpdDataset, B: int, seed=0, _indices=None) -> Draws:
    """All B draws of `bootstrap_cov(grid, B=B, seed=seed)` on a grid of `ds`,
    for callers that bootstrap several analyses of one dataset."""
    _check_count("B", B, 2, "need at least two bootstrap replicates")
    entropy = _entropy(seed)
    return Draws(ds, tuple(entropy), *_draw(ds, entropy, range(B), _indices))


def _draw(ds: IpdDataset, entropy: list, replicates: range, _indices=None) -> tuple:
    """Counts (replicates x rows, columns in trial order) and failures of
    the draws `replicates`: each trial resampled to its own size from the
    replicate's own stream, and validated through `ds.subset`, where an empty
    trial or a lost arm fails it."""
    order = np.concatenate(ds.study_rows)
    counts = np.zeros((len(replicates), ds.n))
    failure = []
    for i, b in enumerate(replicates):
        rng = np.random.default_rng(np.random.SeedSequence(entropy + [b]))
        if _indices is not None:
            idx = np.asarray(_indices(b, rng, ds.study_rows))
        else:
            idx = np.concatenate([rows[rng.integers(0, len(rows), size=len(rows))]
                                  for rows in ds.study_rows])
        try:
            ds.subset(idx)
        except CasemixError as e:
            failure.append(type(e).__name__)
            continue
        failure.append(None)
        counts[i] = np.bincount(idx, minlength=ds.n)[order]
    return counts, tuple(failure)


def bootstrap_cov(grid: FittedGrid, measures: Sequence[str] = MEASURES, B: int = 200,
                  seed=0, _indices=None, draws: Optional[Draws] = None) -> CovarianceResult:
    """Stratified bootstrap: each trial resampled to its own size, the grid
    recomputed per replicate with `grid.settings`, covariance taken across
    replicates. A replicate is the parent's rows weighted by how often its
    draw holds them (`_CountReplicates`). A replicate whose draw or refit
    fails is excluded everywhere and counted by reason in `failures`;
    replicates where a cell is undefined are excluded for that cell
    (pairwise-complete covariance) and counted in `excluded`.

    `draws`, from `draw_replicates(grid.ds, B, seed)`, hands in the draws
    that several analyses of one dataset share; without it each block of
    replicates is drawn in turn, so no B x n array is built. Either way the
    replicates are refitted in the fewest equal blocks that `_BLOCK_CELLS`
    allows."""
    _check_count("B", B, 2, "need at least two bootstrap replicates")
    for msr in measures:                # unknown measures fail before any replicate
        effect_transform(msr, 0.5, 0.5)
    ds = grid.ds
    labels = ds.studies
    K = len(labels)
    order = _cell_order(labels)
    entropy = _entropy(seed)
    if draws is not None and (draws.ds is not ds or list(draws.entropy) != entropy
                              or len(draws.failure) != B or _indices is not None):
        raise ValueError("draws must be draw_replicates(grid.ds, B, seed)")
    replicates = _CountReplicates(grid)

    probs = np.full((B, K * K, 2), np.nan)  # [replicate, cell, arm]
    failures: Counter = Counter()
    for start, stop in replicates.blocks(B):
        if draws is None:
            counts, failure = _draw(ds, entropy, range(start, stop), _indices)
        else:
            counts, failure = draws.counts[start:stop], draws.failure[start:stop]
        failures.update(f for f in failure if f is not None)
        valid = np.array([f is None for f in failure])
        if valid.all():
            probs[start:stop] = replicates.probs(counts, failures)
        elif valid.any():
            probs[start + np.flatnonzero(valid)] = replicates.probs(counts[valid], failures)

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
    replicates given as per-row counts on the grid's dataset, columns in
    trial order: each of the grid's `models` refitted for every live
    replicate at once (`glm.fit_counts`) on the designs the model holds, the
    cells `CountCells'` count-weighted sums. A replicate that fails a step
    (as the step would raise on the resampled rows) is counted by reason and
    its cells discarded. `blocks` splits B replicates into the fewest equal
    blocks of at most `_BLOCK_CELLS` replicate x row x category cells, or of
    one replicate: their sizes are fixed by the data's shape. Each trial's
    counts are views of the block's, and so are each model's while every
    replicate lives and the model's trials are adjacent. Each model's joined
    design, response and count columns are gathered once, for every block."""

    def __init__(self, grid: FittedGrid):
        super().__init__(grid)
        C = max(np.atleast_2d(model.fit.coef).shape[0] for model in grid.models)
        self.block = max(1, _BLOCK_CELLS // (grid.ds.n * C))
        ends = np.cumsum([0] + [len(rows) for rows in grid.rows.values()])
        self._columns = {lab: slice(a, b) for lab, a, b in zip(grid.rows, ends, ends[1:])}
        self._refits = [self._gather(model) for model in grid.models]

    def _gather(self, model) -> tuple:
        """The joined design (the model's trials' blocks in fit order), the
        response (rows x C, each trial's response at its column) and the
        count columns (one slice when the trials are adjacent) of a model."""
        rows, spans = self.grid.rows, [self._columns[t] for t in model.trials]
        X = model.designs[0] if len(model.designs) == 1 else np.concatenate(model.designs)
        Y = np.zeros((len(X), np.atleast_2d(model.fit.coef).shape[0]))
        ends = np.cumsum([0] + [len(rows[t]) for t in model.trials])
        for t, a, b, col in zip(model.trials, ends, ends[1:], model.cols):
            if col is not None:
                Y[a:b, col] = model.response(self.grid.ds, rows[t])
        if spans[-1].stop - spans[0].start == len(X):   # adjacent trials: one view
            spans = [slice(spans[0].start, spans[-1].stop)]
        return X, Y, spans

    def blocks(self, B: int) -> list:
        """(start, stop) of each replicate block: the fewest blocks of at
        most `block` replicates, their sizes differing by at most one."""
        n_blocks = -(-B // self.block)
        return [(B * i // n_blocks, B * (i + 1) // n_blocks) for i in range(n_blocks)]

    def probs(self, counts: np.ndarray, failures: Counter) -> np.ndarray:
        """[replicate, cell, arm] probabilities of the replicates with these
        counts (replicates x rows in trial order, as floats); NaN for a
        replicate that fails, counted by reason in `failures`."""
        self.failures, self.block_counts = failures, counts
        out = self.cells({lab: counts[:, cols] for lab, cols in self._columns.items()})
        out[~self.alive] = np.nan
        return out

    def _fail(self, b, error, message=None) -> None:
        self.alive[b] = False
        self.failures[error.__name__] += 1

    def _summarize(self, j, k, w, caps) -> None:
        """A replicate's weights are not summarized."""

    def _coef(self, m: int) -> np.ndarray:
        """The grid's model `m` refitted for the live replicates on its
        joined design, the grid fit's rows in their order; each replicate's
        Newton loop starts at the grid fit's coefficients. A replicate whose
        fit fails leaves the block, one that separates warns. A replicate
        that has left holds zeros."""
        fit, (X, Y, spans) = self.grid.models[m].fit, self._refits[m]
        W = (self.block_counts[:, spans[0]] if len(spans) == 1
             else np.hstack([self.block_counts[:, span] for span in spans]))
        live = np.flatnonzero(self.alive)
        fits = fit_counts(X, Y, W if len(live) == len(W) else W[live], start=fit.coef)
        coef = np.zeros((len(self.alive),) + fits.coef.shape[1:])
        coef[live] = fits.coef
        message = (LOGISTIC_SEPARATION if isinstance(fit, FittedLogistic)
                   else MULTINOMIAL_SEPARATION)
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
