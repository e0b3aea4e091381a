"""Standardize each trial's arm-specific risks onto every trial's case mix.

Two routes to the same estimand P{Y(x_k)=1 | S=j}:

* outcome regression (OCR): fit the outcome model on trial k, average its
  predictions at treat=x over trial j's subjects;
* inverse probability weighting (IPW): reweight trial k's arm-x outcomes by
  the membership density ratio P(S=j|L)/P(S=k|L).

The analysis settings (method, models, weight options) are one frozen
`GridSettings`, which checks itself when it is built. `standardized_grid`
is the only call that takes the data and the settings: it fits each model
once, computes every cell from those fits and returns them all in a
`FittedGrid`, which keeps the settings and owns every design the cells and
the sandwich (`variance.build_system`) evaluate.

Every membership model is a multinomial logit over a set of trials, its
lowest-numbered trial the reference: all K trials, or the two trials of a
cell in pairwise mode, the two-category case. One function,
`transport_weight`, turns a membership fit into weights: it takes the fit's
non-reference linear predictors on trial k's rows (formed by
`membership_eta`) and returns the weights and their derivative. The grid
calls it at the fitted coefficients; the sandwich calls it at theta, on the
same design, so both see bit-identical weights. `expit_weight=True` instead
uses the membership probability itself as the weight; that variant is kept
for comparison only and does not recover the estimand.

Truncation caps weights at a percentile of the cell's weights. A weight
exactly at the cap counts as uncapped, in the grid and in the sandwich alike.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from ._special import chi2_sf, expit
from .errors import DivisionByZero, InvalidFormula, PositivityWarning, UndefinedMeasure
from .formula import ModelFormula
from .glm import (
    FittedLogistic,
    FittedMultinomial,
    fit_logistic,
    fit_multinomial,
    keep_columns,
    nonref_softmax,
)
from .ipd import IpdDataset, arm_counts

OCR = "ocr"
IPW = "ipw"
IPW_STABILIZED = "ipw-stabilized"
METHODS = (OCR, IPW, IPW_STABILIZED)

MEASURES = ("rr", "or", "rd")

POSITIVITY_THRESHOLD = 200.0


@dataclass(frozen=True)
class GridSettings:
    """The settings of one standardized grid, checked once when built.

    `overrides` maps (target_j, source_k) label pairs to replacement outcome
    formulas for those cells (OCR only); it is kept as a read-only copy.
    `truncation` is a percentile in (0, 100]: each off-diagonal cell's
    weights above that percentile of the cell's weights are reset to it
    (IPW only; 100 is the identity). `ps_mode` is "pairwise" (one
    membership model per pair of trials) or "multinomial" (one over all
    trials, also when None); at two trials both are the same fit. An OCR
    grid ignores the IPW-only settings, but they must still be valid.
    """

    method: str
    outcome_formula: Optional[ModelFormula] = None
    ps_formula: Optional[ModelFormula] = None
    ps_mode: Optional[str] = None
    truncation: Optional[float] = None
    expit_weight: bool = False
    overrides: Optional[Mapping] = None
    positivity_threshold: float = POSITIVITY_THRESHOLD

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == OCR:
            if self.outcome_formula is None:
                raise ValueError("OCR needs an outcome formula")
        elif self.ps_formula is None:
            raise ValueError("IPW needs a membership formula")
        elif self.ps_formula.requires_treat:
            raise InvalidFormula("membership models cannot reference treat")
        if self.ps_mode and self.ps_mode not in ("pairwise", "multinomial"):
            raise ValueError(f"unknown propensity mode {self.ps_mode!r}")
        if self.truncation is not None and not (0 < self.truncation <= 100):
            raise ValueError("truncation percentile must be in (0, 100]")
        object.__setattr__(self, "expit_weight", bool(self.expit_weight))
        object.__setattr__(self, "overrides", MappingProxyType(dict(self.overrides or {})))

    def describe(self) -> dict:
        """The settings as JSON values; `ps_mode` and the positivity threshold
        only when they are set to other than the defaults."""
        d = {"method": self.method}
        if self.outcome_formula is not None:
            d["outcome_formula"] = self.outcome_formula.text()
        if self.ps_formula is not None:
            d["ps_formula"] = self.ps_formula.text()
        if self.overrides:
            d["overrides"] = {f"({j},{k})": f.text() for (j, k), f in self.overrides.items()}
        if self.truncation is not None:
            d["truncation"] = self.truncation
        if self.expit_weight:
            d["expit_weight"] = True
        if self.ps_mode:
            d["ps_mode"] = self.ps_mode
        if self.positivity_threshold != POSITIVITY_THRESHOLD:
            d["positivity_threshold"] = self.positivity_threshold
        return d


@dataclass(frozen=True)
class WeightDiagnostics:
    max: float
    p95: float
    ess: float
    n_over_threshold: int
    threshold: float = POSITIVITY_THRESHOLD
    truncated_at: Optional[float] = None

    @classmethod
    def of(cls, w: np.ndarray, threshold: float = POSITIVITY_THRESHOLD,
           truncated_at: Optional[float] = None) -> "WeightDiagnostics":
        sw = float(np.sum(w))
        sw2 = float(np.sum(w * w))
        return cls(max=float(np.max(w)), p95=float(np.percentile(w, 95)),
                   ess=sw * sw / sw2 if sw2 > 0 else 0.0,
                   n_over_threshold=int(np.sum(w > threshold)),
                   threshold=threshold, truncated_at=truncated_at)

    @classmethod
    def unit(cls, n: int, threshold: float = POSITIVITY_THRESHOLD) -> "WeightDiagnostics":
        """`of(np.ones(n), threshold)` in closed form: n unit weights."""
        s = float(n)
        return cls(max=1.0, p95=1.0, ess=s * s / s,
                   n_over_threshold=n if 1.0 > threshold else 0, threshold=threshold)


@dataclass
class StandardizedEstimate:
    source_k: str
    target_j: str
    arm_x: int
    prob: float
    method: str
    weights_summary: Optional[WeightDiagnostics] = None
    out_of_bounds: bool = False


@dataclass
class EffectEstimate:
    measure: str
    j: str
    k: str
    point: float
    transformed_point: float
    se_transformed: Optional[float] = None
    prob1: Optional[float] = None
    prob0: Optional[float] = None
    defined: bool = True
    note: str = ""


@dataclass
class EffectMatrix:
    measure: str
    labels: tuple                      # study labels; row j = target, column k = source
    cells: dict                        # (j_label, k_label) -> EffectEstimate
    method: str
    sigma: Optional[np.ndarray] = None  # K^2 x K^2 over transformed points, cell-major
    covariance_method: Optional[str] = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def K(self) -> int:
        return len(self.labels)

    def cell_order(self) -> list:
        return [(j, k) for j in self.labels for k in self.labels]

    def cell_index(self, j, k) -> int:
        return self.labels.index(j) * self.K + self.labels.index(k)

    def transformed_vector(self) -> np.ndarray:
        return np.array([self.cells[jk].transformed_point for jk in self.cell_order()])

    def point_vector(self) -> np.ndarray:
        return np.array([self.cells[jk].point for jk in self.cell_order()])


def membership_eta(Z: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """n x C non-reference linear predictors of a membership model with
    retained-column design `Z` and C x p coefficients, in one product."""
    return Z @ coef.T


def transport_weight(eta: np.ndarray, j_col: Optional[int], k_col: Optional[int],
                     expit_weight: bool = False, cap: Optional[float] = None) -> tuple:
    """Transport weights of trial k's rows toward population j and dw/deta.

    `eta` holds the membership model's non-reference linear predictors on
    trial k's rows; `j_col`/`k_col` are the columns of the target and source
    trial, None for the reference trial (whose predictor is 0). The weight is
    the density ratio P(S=j|L)/P(S=k|L) = exp(eta_j - eta_k), or the literal
    softmax probability P(S=j|L) when `expit_weight`. Weights above `cap` are
    reset to it and lose their derivative; one exactly at the cap keeps both.
    """
    if expit_weight:
        P, lse = nonref_softmax(eta.copy())
        w = np.exp(-lse) if j_col is None else P[:, j_col]
        dw = -w[:, None] * P
        if j_col is not None:
            dw[:, j_col] += w
    else:
        w = np.exp((0.0 if j_col is None else eta[:, j_col])
                   - (0.0 if k_col is None else eta[:, k_col]))
        dw = np.zeros_like(eta)
        if j_col is not None:
            dw[:, j_col] += w
        if k_col is not None:
            dw[:, k_col] -= w
    if cap is not None:
        dw[w > cap] = 0.0
        w = np.minimum(w, cap)
    return w, dw


def membership_columns(fit: FittedMultinomial, ds: IpdDataset, j, k) -> tuple:
    """(C x p coefficients, retained design columns, eta column of j, eta
    column of k) of a membership fit; a column is None for the reference."""
    nonref = [c for c in fit.categories if c != fit.reference]

    def col(label):
        s = ds.study_number(label)
        return None if s == fit.reference else nonref.index(s)

    return fit.coef, fit.kept, col(j), col(k)


def _cell_weights(grid: "FittedGrid", j, k) -> tuple:
    """Transport weights of trial k's rows toward population j, capped at the
    grid's truncation percentile, and their diagnostics; warns when any
    weight exceeds the positivity threshold."""
    settings = grid.settings
    coef, kept, j_col, k_col = membership_columns(grid.membership_fit(j, k), grid.ds, j, k)
    Z = grid.design(settings.ps_formula, k, kept)
    w = transport_weight(membership_eta(Z, coef), j_col, k_col, settings.expit_weight)[0]
    truncated_at = None
    if settings.truncation is not None:
        truncated_at = float(np.percentile(w, settings.truncation))
        w = np.minimum(w, truncated_at)
    diag = WeightDiagnostics.of(w, threshold=settings.positivity_threshold,
                                truncated_at=truncated_at)
    if diag.n_over_threshold > 0:
        warn_positivity(diag.n_over_threshold, diag.max, diag.threshold)
    return w, diag


def warn_positivity(n_over: int, w_max: float, threshold: float) -> None:
    """The `PositivityWarning` of a cell with `n_over` weights above the
    threshold, the largest `w_max`."""
    warnings.warn(f"{n_over} transport weight(s) exceed {threshold:g} "
                  f"(max {w_max:.3g}): possible positivity violation",
                  PositivityWarning, stacklevel=3)


def _ipw_prob(k, x: int, w: np.ndarray, y: np.ndarray, arm: np.ndarray,
              pi_x: Optional[float], n_j: int) -> tuple:
    """Probability of arm x of trial k reweighted by `w` (on trial k's rows,
    with outcomes `y` and arm indicator `arm`), and whether it left [0, 1].

    Stabilized when `pi_x` is None: the ratio of weighted sums, a convex
    combination of outcomes, always in [0, 1]. Unstabilized:
    sum(arm w y) / (pi_x n_j), with pi_x the arm's share of trial k and n_j
    the target trial's size; it can leave [0, 1] under positivity failure and
    is flagged, never clamped.
    """
    if pi_x is None:
        den = float(np.sum(arm * w))
        if den == 0.0:
            raise DivisionByZero(
                f"no weight mass in arm {x} of study {k!r}: positivity failure")
        return float(np.sum(arm * w * y) / den), False
    p = float(np.sum(arm * w * y) / (pi_x * n_j))
    return p, not (0.0 <= p <= 1.0)


def effect_transform(measure: str, p1, p0) -> tuple:
    """Transformed effect t(p1, p0) of one measure and its partial derivatives
    (dt/dp1, dt/dp0), elementwise over arrays; all three are NaN where the
    measure is undefined. RD is p1 - p0, RR is log(p1/p0) and OR is the log
    odds ratio: the scale of every point, covariance and test.
    """
    measure = measure.lower()
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    p1, p0 = np.asarray(p1, dtype=float), np.asarray(p0, dtype=float)
    if measure == "rd":
        return p1 - p0, np.ones_like(p1), -np.ones_like(p0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if measure == "rr":
            ok = (p1 > 0) & (p0 > 0)
            t, d1, d0 = np.log(p1 / p0), 1.0 / p1, -1.0 / p0
        else:
            ok = (0 < p1) & (p1 < 1) & (0 < p0) & (p0 < 1)
            t = np.log((p1 / (1 - p1)) / (p0 / (1 - p0)))
            d1, d0 = 1.0 / (p1 * (1 - p1)), -1.0 / (p0 * (1 - p0))
    return tuple(np.where(ok, v, np.nan) for v in (t, d1, d0))


def effect(p1: StandardizedEstimate, p0: StandardizedEstimate, measure: str) -> EffectEstimate:
    """Combine the two arm probabilities of one (j,k) cell into an effect measure."""
    a, b = p1.prob, p0.prob
    t = float(effect_transform(measure, a, b)[0])
    measure = measure.lower()
    if (p1.source_k, p1.target_j, p1.method) != (p0.source_k, p0.target_j, p0.method):
        raise ValueError("arm estimates come from different cells")
    if p1.arm_x != 1 or p0.arm_x != 0:
        raise ValueError("expected the treat=1 estimate first and treat=0 second")
    j, k = p1.target_j, p1.source_k
    if np.isnan(t):
        raise UndefinedMeasure(f"{measure.upper()}({j},{k}) undefined: "
                               f"probabilities ({a:.4g}, {b:.4g})")
    if measure == "rd":
        point = t
    elif measure == "rr":
        point = a / b
    else:
        point = (a / (1 - a)) / (b / (1 - b))
    return EffectEstimate(measure=measure, j=j, k=k, point=float(point),
                          transformed_point=t, prob1=a, prob0=b)


def _undefined_cell(measure, j, k, p1, p0, msg) -> EffectEstimate:
    return EffectEstimate(measure=measure, j=j, k=k, point=float("nan"),
                          transformed_point=float("nan"), prob1=p1, prob0=p0,
                          defined=False, note=msg)


class FittedGrid(dict):
    """The standardized probabilities keyed (target_j, source_k, arm_x), with
    the dataset, the fitted models and designs they came from and the
    `settings` they were built with. `standardized_grid` builds it.

    Everything downstream (effect matrices, sandwich, bootstrap) reads the
    grid, so the points and their covariance come from one set of fits and
    one set of designs: `design` builds each retained-column design once,
    and the sandwich evaluates the very arrays the cells were computed from.
    Bootstrap replicates refit its models on these designs with this very
    `settings` object.
    """

    def __init__(self, ds: IpdDataset, settings: GridSettings):
        super().__init__()
        self.ds, self.settings = ds, settings
        self.outcome_fits: dict = {}    # (k, formula) -> FittedLogistic
        self.membership_fits: dict = {}  # trial numbers, ascending -> FittedMultinomial
        self._designs: dict = {}        # (formula, label, x, kept) -> design

    def outcome_formula_for(self, j, k) -> ModelFormula:
        return self.settings.overrides.get((j, k), self.settings.outcome_formula)

    def membership_fit(self, j, k) -> FittedMultinomial:
        """The membership fit behind off-diagonal cell (j, k), fitted on first
        use: the multinomial logit over all trials, or over j and k alone in
        pairwise mode, its lowest-numbered trial the reference."""
        ds = self.ds
        if self.settings.ps_mode == "pairwise":
            trials = tuple(sorted((ds.study_number(j), ds.study_number(k))))
        else:
            trials = tuple(range(ds.K))
        if trials not in self.membership_fits:
            form = self.settings.ps_formula
            rows = np.isin(ds.study_idx, trials)
            self.membership_fits[trials] = fit_multinomial(
                form.design_matrix(ds.covariate_columns(rows)), ds.study_idx[rows],
                reference=trials[0], column_names=form.column_names(), formula=form)
        return self.membership_fits[trials]

    def design(self, form: ModelFormula, label, kept, x: Optional[int] = None) -> np.ndarray:
        """Design of `form` on trial `label`'s rows at treat=x (the observed
        treat if None), retained columns `kept` only; built once per grid."""
        key = (form, label, x, tuple(kept))
        if key not in self._designs:
            m = self.ds.mask(label)
            treat = self.ds.treat[m] if x is None else np.full(int(m.sum()), float(x))
            self._designs[key] = keep_columns(
                form.design_matrix(self.ds.covariate_columns(m), treat=treat), kept)
        return self._designs[key]

    def _outcome_fit(self, k, form: ModelFormula) -> FittedLogistic:
        """The outcome model `form` fitted on trial k, fitted on first use; its
        retained-column design is kept as the observed-treat `design`."""
        if (k, form) not in self.outcome_fits:
            ds, m = self.ds, self.ds.mask(k)
            X = form.design_matrix(ds.covariate_columns(m), treat=ds.treat[m])
            fit = fit_logistic(X, ds.outcome[m].astype(float),
                               column_names=form.column_names(), formula=form)
            self._designs[(form, k, None, tuple(fit.kept))] = keep_columns(X, fit.kept)
            self.outcome_fits[(k, form)] = fit
        return self.outcome_fits[(k, form)]


def standardized_grid(ds: IpdDataset, settings: GridSettings) -> FittedGrid:
    """All K^2 x 2 standardized probabilities of `ds` under `settings`,
    sharing model fits and designs across cells."""
    if ds.K < 2:
        raise ValueError("transport needs at least two studies")
    labels = ds.studies
    out = FittedGrid(ds, settings)
    method = settings.method
    if method == OCR:
        for j in labels:
            for k in labels:
                form = out.outcome_formula_for(j, k)
                fit = out._outcome_fit(k, form)
                for x in (0, 1):
                    p = float(np.mean(expit(out.design(form, j, fit.kept, x) @ fit.coef)))
                    out[(j, k, x)] = StandardizedEstimate(source_k=str(k), target_j=str(j),
                                                          arm_x=x, prob=p, method=OCR)
        return out

    # per source trial: outcomes, arm indicators and arm shares pi_x
    source = {}
    for k in labels:
        mk = ds.mask(k)
        yk, xk = ds.outcome[mk].astype(float), ds.treat[mk]
        n_t, n_c = arm_counts(ds, k)
        source[k] = (yk, [(xk == x).astype(float) for x in (0, 1)],
                     [n_c / (n_t + n_c), n_t / (n_t + n_c)] if method == IPW else [None, None])
    for j in labels:
        n_j = len(source[j][0])
        for k in labels:
            yk, arms, pis = source[k]
            if j == k:
                # self-transport: the membership model of a trial vs itself is
                # degenerate, so the weights are 1 and the cell is the crude contrast
                w = np.ones(len(yk))
                diag = WeightDiagnostics.unit(len(yk), threshold=settings.positivity_threshold)
            else:
                w, diag = _cell_weights(out, j, k)
            for x in (0, 1):
                p, oob = _ipw_prob(k, x, w, yk, arms[x], pis[x], n_j)
                out[(j, k, x)] = StandardizedEstimate(
                    source_k=str(k), target_j=str(j), arm_x=x, prob=p, method=method,
                    weights_summary=diag, out_of_bounds=oob)
    return out


def effect_matrix(grid: FittedGrid, measure: str = "rr",
                  collect_errors: bool = False) -> EffectMatrix:
    """The K x K grid of effect estimates (target row j, source column k)."""
    labels = grid.ds.studies
    cells = {}
    diagnostics = {}
    for j in labels:
        for k in labels:
            p1, p0 = grid[(j, k, 1)], grid[(j, k, 0)]
            if p1.weights_summary is not None:
                diagnostics[(j, k)] = p1.weights_summary
            try:
                cells[(j, k)] = effect(p1, p0, measure)
            except UndefinedMeasure as e:
                if not collect_errors:
                    raise
                cells[(j, k)] = _undefined_cell(measure, j, k, p1.prob, p0.prob, str(e))
    return EffectMatrix(measure=measure.lower(), labels=labels, cells=cells,
                        method=grid.settings.method, diagnostics=diagnostics)


@dataclass(frozen=True)
class CommonControlReport:
    statistic: float
    df: int
    p_value: float
    alpha: float
    reject: bool


def common_control_check(ds: IpdDataset, control_formula: ModelFormula,
                         alpha: float = 0.05) -> CommonControlReport:
    """Likelihood-ratio check that control-arm outcomes are exchangeable across
    trials given L: compares the control-arm outcome model with and without
    study indicators and study-by-covariate interactions. Both fits read one
    array: the second model's design, written in place, whose first columns
    are the first model's."""
    if ds.K < 2:
        raise ValueError("common-control check needs at least two studies")
    if control_formula.requires_treat:
        raise ValueError("the control-arm model cannot reference treat")
    m = ds.treat == 0
    covs = ds.covariate_columns(m)
    y = ds.outcome[m].astype(float)
    names_a = control_formula.column_names()
    cov_mains = control_formula.covariate_names()
    p_a = len(names_a)
    X_b = np.empty((len(y), p_a + (ds.K - 1) * (1 + len(cov_mains))))
    X_b[:, :p_a] = control_formula.design_matrix(covs)
    fit_a = fit_logistic(X_b[:, :p_a], y, column_names=names_a, formula=control_formula)

    names_b = list(names_a)
    sidx = ds.study_idx[m]
    col = p_a
    for s in range(1, ds.K):
        d = np.equal(sidx, s, out=X_b[:, col])
        names_b.append(f"study[{ds.study_labels[s]}]")
        for i, name in enumerate(cov_mains, start=col + 1):
            np.multiply(d, covs[name], out=X_b[:, i])
            names_b.append(f"study[{ds.study_labels[s]}]:{name}")
        col += 1 + len(cov_mains)
    fit_b = fit_logistic(X_b, y, column_names=names_b)

    stat = max(0.0, fit_a.deviance - fit_b.deviance)
    df = len(fit_b.column_names) - len(fit_a.column_names)
    if df <= 0:
        raise ValueError("no study terms could be added (aliased design)")
    p = chi2_sf(df, stat)
    return CommonControlReport(statistic=float(stat), df=int(df), p_value=p,
                               alpha=alpha, reject=bool(p < alpha))
