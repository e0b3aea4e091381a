"""Standardize each trial's arm-specific risks onto every trial's case mix.

Two routes to the same estimand P{Y(x_k)=1 | S=j}:

* outcome regression (OCR): fit the outcome model on trial k, average its
  predictions at treat=x over trial j's subjects;
* inverse probability weighting (IPW): reweight trial k's arm-x outcomes by
  the membership density ratio P(S=j|L)/P(S=k|L).

The analysis settings (method, models, weight options) are one frozen
`GridSettings`, which checks itself when it is built. `standardized_grid`
is the only call that takes the data and the settings: it fits each model
once, on its trials' rows taken trial by trial, computes every cell from
those fits and returns them all in a `FittedGrid`. The grid keeps the
settings and two records that say once which fit, designs and columns
serve each cell: `models`, each fit with its trials, its per-trial design
blocks and each trial's linear-predictor column, and `cells`, each cell's
model and the designs and columns it evaluates. The cells, the sandwich
(`variance.build_system`) and the bootstrap read only these, and the
per-trial layer: each trial's rows and its arm indicators and arm outcomes.
No number therefore depends on how the trials' rows interleave.
The grid also keeps the kernel's read-only [cell, arm] probability array,
`FittedGrid.probs`, and each IPW cell's weight summary,
`FittedGrid.diagnostics`: `effect_matrix` computes every cell's effect from
that array in one call per measure, and the sandwich and replication studies
read the same two attributes. `grid[(j, k, x)]` is one cell's probability at
one arm, with its weight summary and out-of-bounds flag.

The cell arithmetic is written once, in `CountCells`: each cell as a sum
over the grid's designs weighted by per-row counts, for a block of bootstrap
replicates at once. The grid is its one replicate whose counts are all 1.

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

Truncation caps weights at a percentile of the cell's weights (of each
replicate's draw). A weight exactly at the cap counts as uncapped, in the
grid and in the sandwich alike.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from ._special import chi2_sf, expit
from .errors import DivisionByZero, InvalidFormula, PositivityWarning, UndefinedMeasure
from .formula import ModelFormula
from .glm import (
    FittedLogistic,
    fit_logistic,
    fit_multinomial,
    keep_columns,
    nonref_softmax,
)
from .ipd import IpdDataset

OCR = "ocr"
IPW = "ipw"
IPW_STABILIZED = "ipw-stabilized"
METHODS = (OCR, IPW, IPW_STABILIZED)

MEASURES = ("rr", "or", "rd")
LOG_MEASURES = ("rr", "or")     # transformed by a log; RD is its own scale

POSITIVITY_THRESHOLD = 200.0


def _real(value) -> bool:
    """A real number, not a bool (which Python counts as one)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(value) -> bool:
    """An integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(name: str, value, least: int, need: str = "") -> None:
    """Raise ValueError, naming `name` after the reason `need` when given,
    unless `value` is an integer (not a bool) of at least `least`."""
    if not (_integer(value) and value >= least):
        raise ValueError(f"{need + ': ' if need else ''}{name} must be an integer of "
                         f"at least {least}, not {value!r}")


@dataclass(frozen=True)
class GridSettings:
    """The settings of one standardized grid, checked once when built.

    `overrides` maps (target_j, source_k) label pairs to replacement outcome
    formulas for those cells (OCR only); it is kept as a read-only copy.
    `truncation` is a percentile in (0, 100]: each off-diagonal cell's
    weights above that percentile of the cell's weights are reset to it
    (IPW only; 100 is the identity). `ps_mode` is "pairwise" (one
    membership model per pair of trials) or "multinomial" (one over all
    trials, also when None); at two trials both are the same fit.
    `positivity_threshold` is a number above 0 and `expit_weight` a bool (0
    and 1 count as one); a bool is not a number here. An OCR grid ignores the
    IPW-only settings, but they must still be valid.
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
        if self.truncation is not None and not (_real(self.truncation)
                                                and 0 < self.truncation <= 100):
            raise ValueError("truncation percentile must be in (0, 100]")
        if not (_real(self.positivity_threshold) and self.positivity_threshold > 0):
            raise ValueError("positivity_threshold must be a number above 0")
        if self.expit_weight not in (False, True):
            raise ValueError("expit_weight must be a bool or 0/1")
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


@dataclass
class StandardizedEstimate:
    """One cell's probability at one arm: `grid[(j, k, x)]`."""
    prob: float
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
        return _cell_order(self.labels)

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


def _cell_order(labels) -> list:
    return [(j, k) for j in labels for k in labels]


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


def natural_effect(measure: str, p1, p0):
    """The effect of arm risks p1 and p0 on its natural scale: the risk ratio,
    the odds ratio or the risk difference."""
    if measure == "rr":
        return p1 / p0
    if measure == "or":
        return (p1 / (1 - p1)) / (p0 / (1 - p0))
    return p1 - p0


def to_natural(measure: str, t):
    """A scalar transformed effect t back on the natural scale: exp(t) for a
    log measure, t for RD. `math.exp`, as numpy's exp can round a scalar
    differently."""
    return math.exp(t) if measure.lower() in LOG_MEASURES else t


@dataclass(frozen=True)
class GridModel:
    """One fitted model of a grid: `fit`, on the trials `trials` (labels, in
    fit order), with `designs`, each trial's block of the fit's design at the
    observed treat (retained columns), and `cols`, each trial's column of the
    linear predictor: 0 for an outcome model, the trial's category for a
    membership model, None for its reference."""

    fit: object
    trials: tuple
    designs: tuple
    cols: tuple

    def response(self, ds: IpdDataset, rows: np.ndarray):
        """The response on a trial's `rows` at the trial's column: the outcomes
        for an outcome model, 1 (the trial's indicator) for a membership model."""
        return ds.outcome[rows] if isinstance(self.fit, FittedLogistic) else 1.0


@dataclass(frozen=True)
class GridCell:
    """Cell (j, k) of a grid: `model`, the position in `FittedGrid.models` of
    the model that standardizes source k onto target j (None on an IPW grid's
    diagonal, whose weights are 1), and the designs the cell evaluates: for
    OCR, the treat=0 and treat=1 designs on trial j's rows; for IPW, the
    membership block of trial k's rows, with `j_col` and `k_col` the columns
    of j and k."""

    j: str
    k: str
    model: Optional[int]
    designs: tuple = ()
    j_col: Optional[int] = None
    k_col: Optional[int] = None


class FittedGrid(dict):
    """The standardized probabilities keyed (target_j, source_k, arm_x), with
    the dataset, the fitted models and designs they came from and the
    `settings` they were built with. `standardized_grid` builds it.

    `probs` is the kernel's read-only [cell, arm] array of every probability,
    cells in row-major (j, k) order and arms 0 and 1; `diagnostics` maps each
    cell (j, k) of an IPW grid to the summary of its weights (unit weights on
    the diagonal) and is empty for OCR. The effect matrices, the sandwich and
    replication studies read these two; `grid[(j, k, x)]` holds the same
    probability and summary for one cell and arm.

    Which model, design and columns serve each cell is decided once, here,
    in two lists: `models`, one `GridModel` per fit in the order the cells
    first use it, and `cells`, one `GridCell` per (j, k) in row-major order.
    The cell kernel (`CountCells`), the sandwich (`variance.build_system`)
    and the bootstrap read only these, so the points and their covariance
    come from one set of fits and one set of designs. `_fit` fits every
    model on its trials' rows taken trial by trial, in trial-number order,
    and builds the design once: each trial's block of it is the model's
    design there, held once per trial, formula and retained columns. An OCR
    cell's treat=x designs are built once per target trial, formula and
    retained columns. Bootstrap replicates refit the models on these
    designs, on the same rows in the same order, with this very `settings`
    object. The per-trial layer is built once: each trial's `rows`, and its
    `arms` on first use.
    """

    def __init__(self, ds: IpdDataset, settings: GridSettings):
        super().__init__()
        self.ds, self.settings = ds, settings
        self.rows = dict(zip(ds.studies, ds.study_rows))    # trial label -> its rows
        self.models: list = []          # GridModel, in the order the cells first use them
        self.cells: list = []           # GridCell per (j, k), row-major
        self.probs: Optional[np.ndarray] = None     # [cell, arm], set by standardized_grid
        self.diagnostics: dict = {}     # (j, k) -> WeightDiagnostics, IPW only
        designs: dict = {}              # (formula, label, x, kept) -> design
        fitted: dict = {}               # (formula, trials) -> position in `models`
        for j, k in _cell_order(ds.studies):
            if settings.method == OCR:
                form, trials = settings.overrides.get((j, k), settings.outcome_formula), (k,)
            elif j == k:
                self.cells.append(GridCell(j, k, None))
                continue
            else:               # all trials, or j and k alone, in trial-number order
                form = settings.ps_formula
                trials = (tuple(sorted((j, k), key=ds.study_number))
                          if settings.ps_mode == "pairwise" else ds.studies)
            m = fitted.setdefault((form, trials), len(self.models))
            if m == len(self.models):   # the model's first cell: fit it
                self.models.append(self._fit(form, trials, designs))
            model = self.models[m]
            if settings.method == OCR:
                self.cells.append(GridCell(j, k, m, tuple(
                    self._design(designs, form, j, model.fit.kept, x) for x in (0, 1))))
            else:
                i, ik = model.trials.index(j), model.trials.index(k)
                self.cells.append(GridCell(j, k, m, (model.designs[ik],),
                                           model.cols[i], model.cols[ik]))

    @property
    def out_of_bounds(self) -> np.ndarray:
        """[cell, arm] flags of the probabilities outside [0, 1], which only
        unstabilized IPW gives: flagged, never clamped."""
        return (self.settings.method == IPW) & ~((0.0 <= self.probs) & (self.probs <= 1.0))

    def _fit(self, form: ModelFormula, trials: tuple, designs: dict) -> GridModel:
        """`form` fitted on trials `trials`' rows at the observed treat, taken
        trial by trial: the outcome model of an OCR grid, otherwise the
        multinomial membership logit, its first trial the reference. The
        design is built once: each trial's block of its retained columns (a
        row view) goes into `designs` as the trial's observed-treat design,
        unless an earlier fit already holds that design. When one does (a
        pair fit at K > 2), the new blocks are copied, so the joined design
        is freed and the grid holds each trial's rows once."""
        ds = self.ds
        masks = [ds.mask(lab) for lab in trials]
        X = [form.design_matrix(ds.covariate_columns(m), treat=ds.treat[m]) for m in masks]
        X = X[0] if len(X) == 1 else np.concatenate(X)  # no block outlives the join
        if self.settings.method == OCR:
            fitter, response, cols = fit_logistic, ds.outcome, (0,)
        else:                           # categories in trial order, the first the reference
            fitter = partial(fit_multinomial, reference=ds.study_number(trials[0]))
            response, cols = ds.study_idx, (None, *range(len(trials) - 1))
        fit = fitter(X, np.concatenate([response[m] for m in masks]),
                     column_names=form.column_names(), formula=form)
        ends = np.cumsum([len(self.rows[lab]) for lab in trials])[:-1]
        keys = [(form, lab, None, tuple(fit.kept)) for lab in trials]
        held = any(key in designs for key in keys)
        for key, Z in zip(keys, np.split(keep_columns(X, fit.kept), ends)):
            if key not in designs:
                designs[key] = Z.copy() if held else Z
        return GridModel(fit, trials, tuple(designs[key] for key in keys), cols)

    def _design(self, designs: dict, form: ModelFormula, label, kept, x: int) -> np.ndarray:
        """Design of `form` on trial `label`'s rows at treat=x, retained columns
        `kept` only, built once per grid and held in `designs`."""
        key = (form, label, x, tuple(kept))
        if key not in designs:
            m = self.ds.mask(label)
            designs[key] = keep_columns(form.design_matrix(
                self.ds.covariate_columns(m), treat=np.full(int(m.sum()), float(x))), kept)
        return designs[key]

    @cached_property
    def arms(self) -> dict:
        """Per trial label: its arm indicators and arm outcomes (rows x arm),
        built on first use; only IPW cells and their sandwich read them."""
        ds, out = self.ds, {}
        for lab, rows in self.rows.items():
            a = np.array([ds.treat[rows] == x for x in (0, 1)], dtype=float)
            out[lab] = a.T, (a * ds.outcome[rows]).T
        return out


class CountCells:
    """The cells of a grid for a block of replicates, each given as per-row
    counts on the grid's dataset: the one copy of the cell arithmetic.

    A bootstrap replicate is a multinomial reweighting of the rows (Efron &
    Tibshirani 1993), so each cell is a count-weighted sum over the grid's
    designs. An OCR cell is the mean of expit(X beta) over trial j's rows at
    treat=x. An IPW cell reweights trial k's arm-x outcomes by the transport
    weights w: sum(arm w y) / sum(arm w) stabilized, a convex combination of
    outcomes; unstabilized sum(arm w y) / (pi_x n_j), with pi_x the arm's
    share of trial k and n_j the size of trial j, which can leave [0, 1] under
    positivity failure. On the diagonal the weights are 1: the membership
    model of a trial against itself is degenerate, so the cell is the crude
    rate. Truncation caps each replicate's weights at the percentile of its
    own draw, and each replicate whose draw holds weights above the
    positivity threshold warns. The kernel reads the grid's `cells` in
    order, and each cell's model's coefficients at its first cell; a
    replicate that failed a step takes no further one.

    The hooks are the grid's: `standardized_grid` runs the kernel as the one
    replicate whose counts are all 1, at the grid's own fits; a failed step
    raises, and each cell's weights are summarized as `WeightDiagnostics`.
    `variance._CountReplicates` overrides them to refit the models per
    replicate, count failures by reason and keep no summaries.
    """

    def __init__(self, grid: FittedGrid):
        self.grid = grid
        self.diagnostics: dict = {}     # (j, k) -> WeightDiagnostics of the cell's weights

    def cells(self, counts: dict) -> np.ndarray:
        """[replicate, cell, arm] probabilities, cells in row-major (j, k)
        order, of the replicates whose counts are `counts` (trial label ->
        replicates x the trial's rows, as floats); `alive` then flags the
        replicates that failed no step."""
        self.counts = counts
        self.sizes = {lab: W.sum(axis=1) for lab, W in counts.items()}
        self.alive = np.ones(len(next(iter(counts.values()))), bool)
        out = np.full((len(self.alive), len(self.grid.cells), 2), np.nan)
        coef: dict = {}                 # model position -> replicates x C x p coefficients
        for c, cell in enumerate(self.grid.cells):
            if cell.model is not None and cell.model not in coef:
                coef[cell.model] = self._coef(cell.model)
            if self.grid.settings.method == OCR:
                for x, X in enumerate(cell.designs):
                    mu = expit(coef[cell.model][:, 0] @ X.T)
                    out[:, c, x] = (np.einsum("an,an->a", self.counts[cell.j], mu)
                                    / self.sizes[cell.j])
            else:
                self._cell(out, c, cell, None if cell.model is None
                           else self._weights(coef[cell.model], cell))
        return out

    def _coef(self, m: int) -> np.ndarray:
        """Coefficients (replicates x C x p) of the grid's model `m`."""
        return np.atleast_2d(self.grid.models[m].fit.coef)[None]

    def _fail(self, b: int, error: type, message: str) -> None:
        """Replicate b fails a step: the grid raises the step's error."""
        raise error(message)

    def _summarize(self, j, k, w: np.ndarray, caps: Optional[np.ndarray]) -> None:
        """Cell (j, k)'s capped weights `w` and caps (None untruncated)."""
        self.diagnostics[(j, k)] = WeightDiagnostics.of(
            w[0], threshold=self.grid.settings.positivity_threshold,
            truncated_at=None if caps is None else float(caps[0]))

    def _weights(self, gamma, cell: GridCell) -> np.ndarray:
        """Transport weights (replicates x trial k's rows) of an off-diagonal
        cell at each replicate's membership coefficients `gamma`, capped."""
        settings = self.grid.settings
        A, C, p = gamma.shape
        # rows x (replicate, category): one replicate's eta is the grid's own product
        eta = membership_eta(cell.designs[0], gamma.reshape(A * C, p)).reshape(-1, A, C)
        w = transport_weight(eta.transpose(1, 0, 2).reshape(-1, C), cell.j_col, cell.k_col,
                             settings.expit_weight)[0].reshape(A, -1)
        counts, caps = self.counts[cell.k], None
        if settings.truncation is not None:     # a draw of every row once is the rows
            caps = np.array([np.percentile(wa if (ca == 1.0).all()
                                           else np.repeat(wa, ca.astype(np.intp)),
                                           settings.truncation) for wa, ca in zip(w, counts)])
            np.minimum(w, caps[:, None], out=w)
        threshold = settings.positivity_threshold
        for a in np.flatnonzero((w.max(axis=1) > threshold) & self.alive):
            n_over = int(counts[a] @ (w[a] > threshold))
            if n_over:                  # a row over it may be one the draw left out
                warnings.warn(f"{n_over} transport weight(s) exceed {threshold:g} (max "
                              f"{w[a][counts[a] > 0].max():.3g}): possible positivity violation",
                              PositivityWarning, stacklevel=3)
        self._summarize(cell.j, cell.k, w, caps)
        return w

    def _cell(self, out, c, cell: GridCell, w) -> None:
        """Both arm probabilities of IPW cell `c`, from trial k's weights `w`
        (None on the diagonal: all 1)."""
        j, k = cell.j, cell.k
        arms, arm_y = self.grid.arms[k]
        Wk = self.counts[k]
        Ww = Wk if w is None else Wk * w
        if self.grid.settings.method == IPW_STABILIZED:
            den = Ww @ arms
            for a in np.flatnonzero((den == 0.0).any(axis=1) & self.alive):
                self._fail(a, DivisionByZero,
                           f"no weight mass in arm {int(np.argmax(den[a] == 0.0))} of study "
                           f"{k!r}: positivity failure")
        else:                           # pi_x n_j
            den = (Wk @ arms) / self.sizes[k][:, None] * self.sizes[j][:, None]
        np.divide(Ww @ arm_y, den, out=out[:, c], where=den != 0.0)


def standardized_grid(ds: IpdDataset, settings: GridSettings) -> FittedGrid:
    """All K^2 x 2 standardized probabilities of `ds` under `settings`,
    sharing model fits and designs across cells: the one replicate of
    `CountCells` whose counts are all 1, at the grid's own fits."""
    if ds.K < 2:
        raise ValueError("transport needs at least two studies")
    out = FittedGrid(ds, settings)
    kernel = CountCells(out)
    out.probs = kernel.cells({lab: np.broadcast_to(1.0, (1, len(r)))
                              for lab, r in out.rows.items()})[0]
    out.probs.flags.writeable = False
    order = _cell_order(ds.studies)
    if settings.method != OCR:
        out.diagnostics = {(j, k): kernel.diagnostics.get((j, k)) or WeightDiagnostics.of(
            np.ones(len(out.rows[k])), threshold=settings.positivity_threshold) for j, k in order}
    oob = out.out_of_bounds
    for c, (j, k) in enumerate(order):
        for x in (0, 1):
            out[(j, k, x)] = StandardizedEstimate(
                prob=float(out.probs[c, x]), weights_summary=out.diagnostics.get((j, k)),
                out_of_bounds=bool(oob[c, x]))
    return out


def effect_matrix(grid: FittedGrid, measure: str = "rr",
                  collect_errors: bool = False) -> EffectMatrix:
    """The K x K grid of effect estimates (target row j, source column k),
    every cell from the grid's probability array at once. A cell whose
    measure is undefined raises `UndefinedMeasure`, or with `collect_errors`
    is kept with NaN points, `defined` False and the error's text as `note`."""
    p0, p1 = grid.probs.T
    t = effect_transform(measure, p1, p0)[0]
    measure = measure.lower()
    with np.errstate(divide="ignore", invalid="ignore"):
        point = np.where(np.isnan(t), np.nan, natural_effect(measure, p1, p0))
    cells = {}
    for c, (j, k) in enumerate(_cell_order(grid.ds.studies)):
        a, b = float(p1[c]), float(p0[c])
        note = ""
        if np.isnan(t[c]):
            note = f"{measure.upper()}({j},{k}) undefined: probabilities ({a:.4g}, {b:.4g})"
            if not collect_errors:
                raise UndefinedMeasure(note)
        cells[(j, k)] = EffectEstimate(measure=measure, j=j, k=k, point=float(point[c]),
                                       transformed_point=float(t[c]), prob1=a, prob0=b,
                                       defined=not note, note=note)
    return EffectMatrix(measure=measure, labels=grid.ds.studies, cells=cells,
                        method=grid.settings.method, diagnostics=dict(grid.diagnostics))


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
