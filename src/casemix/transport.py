"""Standardize each trial's arm-specific risks onto every trial's case mix.

Two routes to the same estimand P{Y(x_k)=1 | S=j}:

* outcome regression (OCR): fit the outcome model on trial k, average its
  predictions at treat=x over trial j's subjects;
* inverse probability weighting (IPW): reweight trial k's arm-x outcomes by
  the membership density ratio P(S=j|L)/P(S=k|L).

The density ratio from a pairwise logistic fit is the *odds* of the fitted
membership probability, exp of the linear predictor. `expit_weight=True`
instead uses the membership probability itself as the weight; that variant is
kept for comparison only and does not recover the estimand.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np
from scipy.stats import chi2

from .errors import (
    DivisionByZero,
    EmptyArm,
    EmptyTarget,
    PositivityWarning,
    UndefinedMeasure,
)
from .formula import ModelFormula
from .glm import FittedLogistic, FittedMultinomial, fit_logistic, fit_multinomial
from .ipd import IpdDataset, arm_counts

OCR = "ocr"
IPW = "ipw"
IPW_STABILIZED = "ipw-stabilized"
METHODS = (OCR, IPW, IPW_STABILIZED)

MEASURES = ("rr", "or", "rd")

POSITIVITY_THRESHOLD = 200.0


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


def _outcome_fit(ds: IpdDataset, k, formula: ModelFormula) -> FittedLogistic:
    m = ds.mask(k)
    X = formula.design_matrix(ds.covariate_columns(m), treat=ds.treat[m])
    return fit_logistic(X, ds.outcome[m].astype(float),
                        column_names=formula.column_names(), formula=formula)


def _target_design(ds: IpdDataset, j, x: int, formula: ModelFormula) -> np.ndarray:
    m = ds.mask(j)
    return formula.design_matrix(ds.covariate_columns(m), treat=np.full(int(m.sum()), float(x)))


def ocr_standardized_prob(ds: IpdDataset, k, j, x: int,
                          outcome_formula: ModelFormula,
                          _fit: Optional[FittedLogistic] = None) -> StandardizedEstimate:
    """Fit the outcome model on trial k, average predictions over trial j at treat=x."""
    if not ds.mask(j).any():
        raise EmptyTarget(f"study {j!r} has no subjects")
    fit = _fit if _fit is not None else _outcome_fit(ds, k, outcome_formula)
    p = float(np.mean(fit.predict(_target_design(ds, j, x, outcome_formula))))
    return StandardizedEstimate(source_k=str(k), target_j=str(j), arm_x=int(x),
                                prob=p, method=OCR)


def density_ratio_weights(ds: IpdDataset, j, k, ps_formula: ModelFormula,
                          mode: str = "pairwise",
                          truncation: Optional[float] = None,
                          expit_weight: bool = False,
                          positivity_threshold: float = POSITIVITY_THRESHOLD,
                          _fit=None):
    """Weights P̂(S=j|L)/P̂(S=k|L) for every subject of trial k, plus diagnostics.

    `truncation` is a percentile in (0, 100]; weights above that percentile of
    the weight distribution are reset to it. Percentile 100 is the identity.
    `_fit` reuses a membership fit: the multinomial fit, or in pairwise mode
    (label fitted as 1, fit) for the pair {j, k}.
    """
    if ps_formula.requires_treat:
        raise ValueError("membership models cannot reference treat")
    if mode not in ("pairwise", "multinomial"):
        raise ValueError(f"unknown propensity mode {mode!r}")
    mk = ds.mask(k)
    Xk = ps_formula.design_matrix(ds.covariate_columns(mk))
    if mode == "pairwise":
        fitted_for, fit = _fit if _fit is not None else (j, _pair_fit(ds, j, k, ps_formula))
        lp = fit.linear_predictor(Xk)
        w = _pairwise_weight(lp if fitted_for == j else -lp, expit_weight)
    else:
        fit = _fit if _fit is not None else _multinomial_fit(ds, ps_formula)
        P = fit.predict(Xk)
        cj = fit.category_index(ds.study_number(j))
        ck = fit.category_index(ds.study_number(k))
        w = P[:, cj] if expit_weight else P[:, cj] / P[:, ck]
    truncated_at = None
    if truncation is not None:
        if not (0 < truncation <= 100):
            raise ValueError("truncation percentile must be in (0, 100]")
        cap = float(np.percentile(w, truncation))
        truncated_at = cap
        w = np.minimum(w, cap)
    diag = WeightDiagnostics.of(w, threshold=positivity_threshold,
                                truncated_at=truncated_at)
    if diag.n_over_threshold > 0:
        warnings.warn(
            f"{diag.n_over_threshold} transport weight(s) exceed {positivity_threshold:g} "
            f"(max {diag.max:.3g}): possible positivity violation",
            PositivityWarning, stacklevel=2)
    return w, diag


def _pair_fit(ds: IpdDataset, j, k, ps_formula: ModelFormula) -> FittedLogistic:
    """Membership model of trial j (response 1) against trial k, on their rows."""
    pool = ds.mask(j) | ds.mask(k)
    Xp = ps_formula.design_matrix(ds.covariate_columns(pool))
    return fit_logistic(Xp, (ds.study_idx[pool] == ds.study_number(j)).astype(float),
                        column_names=ps_formula.column_names(), formula=ps_formula)


def _multinomial_fit(ds: IpdDataset, ps_formula: ModelFormula) -> FittedMultinomial:
    """Membership model of all trials, trial 0 the reference, on all rows."""
    return fit_multinomial(ps_formula.design_matrix(ds.covariate_columns()), ds.study_idx,
                           reference=0, column_names=ps_formula.column_names(),
                           formula=ps_formula)


def _pairwise_weight(lp: np.ndarray, expit_weight: bool) -> np.ndarray:
    if expit_weight:
        return 1.0 / (1.0 + np.exp(-lp))
    return np.exp(lp)


def ipw_standardized_prob(ds: IpdDataset, k, j, x: int, ps_formula: ModelFormula,
                          stabilized: bool = False,
                          truncation: Optional[float] = None,
                          ps_mode: str = "pairwise",
                          expit_weight: bool = False,
                          positivity_threshold: float = POSITIVITY_THRESHOLD,
                          _weights=None) -> StandardizedEstimate:
    """Reweight trial k's arm-x outcomes to trial j's case mix.

    Unstabilized: sum(I(S=k) Y I(X=x) w) / (P̂(X=x|S=k) * n_j). Can leave [0,1]
    under positivity failure; flagged, never clamped. Stabilized: ratio of
    weighted sums, a convex combination of outcomes, always in [0,1].
    """
    mk = ds.mask(k)
    xk = ds.treat[mk]
    if not np.any(xk == x):
        raise EmptyArm(f"study {k!r} has no subjects with treat={x}")
    same = ds.study_number(j) == ds.study_number(k)
    if _weights is not None:
        w, diag = _weights
    elif same:
        # self-transport: the membership model of a trial vs itself is
        # degenerate, so the weights are 1 and the cell is the crude contrast
        w = np.ones(int(mk.sum()))
        diag = WeightDiagnostics.of(w, threshold=positivity_threshold)
    else:
        w, diag = density_ratio_weights(ds, j, k, ps_formula, mode=ps_mode,
                                        truncation=truncation,
                                        expit_weight=expit_weight,
                                        positivity_threshold=positivity_threshold)
    yk = ds.outcome[mk].astype(float)
    arm = (xk == x).astype(float)
    if stabilized:
        den = float(np.sum(arm * w))
        if den == 0.0:
            raise DivisionByZero(
                f"no weight mass in arm {x} of study {k!r}: positivity failure")
        p = float(np.sum(arm * w * yk) / den)
        oob = False
        method = IPW_STABILIZED
    else:
        n_t, n_c = arm_counts(ds, k)
        pi_x = (n_t if x == 1 else n_c) / (n_t + n_c)
        p = float(np.sum(arm * w * yk) / (pi_x * int(ds.mask(j).sum())))
        oob = not (0.0 <= p <= 1.0)
        method = IPW
    return StandardizedEstimate(source_k=str(k), target_j=str(j), arm_x=int(x),
                                prob=p, method=method, weights_summary=diag,
                                out_of_bounds=oob)


def effect(p1: StandardizedEstimate, p0: StandardizedEstimate, measure: str) -> EffectEstimate:
    """Combine the two arm probabilities of one (j,k) cell into an effect measure."""
    measure = measure.lower()
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    if (p1.source_k, p1.target_j, p1.method) != (p0.source_k, p0.target_j, p0.method):
        raise ValueError("arm estimates come from different cells")
    if p1.arm_x != 1 or p0.arm_x != 0:
        raise ValueError("expected the treat=1 estimate first and treat=0 second")
    a, b = p1.prob, p0.prob
    j, k = p1.target_j, p1.source_k
    if measure == "rd":
        point = a - b
        t = point
    elif measure == "rr":
        if b <= 0 or a < 0:
            raise UndefinedMeasure(f"RR({j},{k}) undefined: probabilities ({a:.4g}, {b:.4g})")
        point = a / b
        t = float(np.log(point)) if point > 0 else float("-inf")
        if point <= 0:
            raise UndefinedMeasure(f"RR({j},{k}) undefined: zero ratio")
    else:
        if not (0 < a < 1 and 0 < b < 1):
            raise UndefinedMeasure(f"OR({j},{k}) undefined: probabilities ({a:.4g}, {b:.4g})")
        point = (a / (1 - a)) / (b / (1 - b))
        t = float(np.log(point))
    return EffectEstimate(measure=measure, j=j, k=k, point=float(point),
                          transformed_point=float(t), prob1=a, prob0=b)


def _undefined_cell(measure, j, k, p1, p0, msg) -> EffectEstimate:
    return EffectEstimate(measure=measure, j=j, k=k, point=float("nan"),
                          transformed_point=float("nan"), prob1=p1, prob0=p0,
                          defined=False, note=msg)


class FittedGrid(dict):
    """The standardized probabilities keyed (target_j, source_k, arm_x), with
    the fitted models they came from and the settings they were built with.

    The sandwich reads its model coefficients from here instead of refitting,
    so the points and their covariance come from one set of fits.
    """

    def __init__(self, ds: IpdDataset, method, outcome_formula, ps_formula, ps_mode,
                 truncation, expit_weight, overrides):
        super().__init__()
        self.ds, self.method = ds, method
        self.outcome_formula, self.ps_formula = outcome_formula, ps_formula
        self.ps_mode = ps_mode or ("pairwise" if ds.K == 2 else "multinomial")
        self.truncation, self.expit_weight = truncation, bool(expit_weight)
        self.overrides = dict(overrides or {})
        self.outcome_fits: dict = {}    # (k, formula) -> FittedLogistic
        self.pair_fits: dict = {}       # frozenset{j, k} -> (label fitted as 1, FittedLogistic)
        self.multinomial_fit: Optional[FittedMultinomial] = None

    def outcome_formula_for(self, j, k) -> ModelFormula:
        return self.overrides.get((j, k), self.outcome_formula)

    def _settings(self) -> tuple:
        if self.method == OCR:
            return (OCR, self.outcome_formula, self.overrides)
        return (self.method, self.ps_formula, self.ps_mode, self.truncation,
                self.expit_weight)

    def require(self, ds: IpdDataset, method, outcome_formula=None, ps_formula=None,
                ps_mode=None, truncation=None, expit_weight=False, overrides=None) -> None:
        """Raise ValueError unless this grid was built on `ds` with these settings."""
        asked = FittedGrid(ds, method, outcome_formula, ps_formula, ps_mode,
                           truncation, expit_weight, overrides)
        if ds is not self.ds or asked._settings() != self._settings():
            raise ValueError(f"grid was built with {self._settings()!r} on its own "
                             f"dataset; asked for {asked._settings()!r}")


def standardized_grid(ds: IpdDataset, method: str,
                      outcome_formula: Optional[ModelFormula] = None,
                      ps_formula: Optional[ModelFormula] = None,
                      ps_mode: Optional[str] = None,
                      truncation: Optional[float] = None,
                      expit_weight: bool = False,
                      overrides: Optional[Mapping] = None,
                      positivity_threshold: float = POSITIVITY_THRESHOLD) -> FittedGrid:
    """All K^2 x 2 standardized probabilities, sharing model fits across cells.

    `overrides` maps (target_j, source_k) label pairs to replacement outcome
    formulas for those cells (OCR only).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if ds.K < 2:
        raise ValueError("transport needs at least two studies")
    labels = ds.studies
    out = FittedGrid(ds, method, outcome_formula, ps_formula, ps_mode, truncation,
                     expit_weight, overrides)
    if method == OCR:
        if outcome_formula is None:
            raise ValueError("OCR needs an outcome formula")
        fits = out.outcome_fits
        for j in labels:
            for k in labels:
                form = out.outcome_formula_for(j, k)
                if (k, form) not in fits:
                    fits[(k, form)] = _outcome_fit(ds, k, form)
                for x in (0, 1):
                    out[(j, k, x)] = ocr_standardized_prob(ds, k, j, x, form,
                                                           _fit=fits[(k, form)])
    else:
        if ps_formula is None:
            raise ValueError("IPW needs a membership formula")
        stabilized = method == IPW_STABILIZED
        if out.ps_mode == "multinomial":
            out.multinomial_fit = _multinomial_fit(ds, ps_formula)
        for j in labels:
            for k in labels:
                weights = None
                if j != k:
                    fit = out.multinomial_fit
                    if out.ps_mode == "pairwise":
                        key = frozenset((j, k))
                        if key not in out.pair_fits:
                            out.pair_fits[key] = (j, _pair_fit(ds, j, k, ps_formula))
                        fit = out.pair_fits[key]
                    weights = density_ratio_weights(
                        ds, j, k, ps_formula, mode=out.ps_mode, truncation=truncation,
                        expit_weight=expit_weight,
                        positivity_threshold=positivity_threshold, _fit=fit)
                for x in (0, 1):
                    out[(j, k, x)] = ipw_standardized_prob(
                        ds, k, j, x, ps_formula, stabilized=stabilized,
                        truncation=truncation, ps_mode=out.ps_mode,
                        expit_weight=expit_weight,
                        positivity_threshold=positivity_threshold,
                        _weights=weights)
    return out


def effect_matrix(ds: IpdDataset, method: str,
                  outcome_formula: Optional[ModelFormula] = None,
                  ps_formula: Optional[ModelFormula] = None,
                  measure: str = "rr",
                  ps_mode: Optional[str] = None,
                  truncation: Optional[float] = None,
                  expit_weight: bool = False,
                  overrides: Optional[Mapping] = None,
                  collect_errors: bool = False,
                  positivity_threshold: float = POSITIVITY_THRESHOLD,
                  _grid: Optional[FittedGrid] = None) -> EffectMatrix:
    """The K x K grid of effect estimates (target row j, source column k)."""
    grid = _grid
    if grid is None:
        grid = standardized_grid(ds, method, outcome_formula, ps_formula, ps_mode,
                                 truncation, expit_weight, overrides,
                                 positivity_threshold)
    labels = ds.studies
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
                        method=method, diagnostics=diagnostics)


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
    study indicators and study-by-covariate interactions."""
    if ds.K < 2:
        raise ValueError("common-control check needs at least two studies")
    if control_formula.requires_treat:
        raise ValueError("the control-arm model cannot reference treat")
    m = ds.treat == 0
    covs = ds.covariate_columns(m)
    y = ds.outcome[m].astype(float)
    X_a = control_formula.design_matrix(covs)
    names_a = control_formula.column_names()
    fit_a = fit_logistic(X_a, y, column_names=names_a, formula=control_formula)

    cov_mains = control_formula.covariate_names()
    cols = [X_a]
    names_b = list(names_a)
    sidx = ds.study_idx[m]
    for s in range(1, ds.K):
        d = (sidx == s).astype(float)
        cols.append(d[:, None])
        names_b.append(f"study[{ds.study_labels[s]}]")
        for name in cov_mains:
            cols.append((d * covs[name])[:, None])
            names_b.append(f"study[{ds.study_labels[s]}]:{name}")
    X_b = np.hstack(cols)
    fit_b = fit_logistic(X_b, y, column_names=names_b)

    stat = max(0.0, fit_a.deviance - fit_b.deviance)
    df = len(fit_b.column_names) - len(fit_a.column_names)
    if df <= 0:
        raise ValueError("no study terms could be added (aliased design)")
    p = float(chi2.sf(stat, df))
    return CommonControlReport(statistic=float(stat), df=int(df), p_value=p,
                               alpha=alpha, reject=bool(p < alpha))
