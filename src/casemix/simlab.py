"""Simulation engine: data generators, plug-in truths, and replication studies.

Five built-in two-trial generators exercise the transport machinery in
qualitatively different regimes (effect modification with differing case mix,
compensating sources, positivity violations, identical case mix, covariate-
support extrapolation), plus a configurable generic design with K trials and
several covariates. Normal laws are parameterized as (mean, sd) throughout.

A replication study draws independent datasets, runs every requested analysis
on each, and aggregates bias, variance calibration (Monte-Carlo variance vs.
mean sandwich and bootstrap estimates) and heterogeneity-test rejection rates.
Replication r draws its data and bootstrap from streams keyed by (seed, r)
alone, so a study of fewer reps reproduces the leading reps of a longer one.
"""

from __future__ import annotations

import csv
import itertools
import json
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import het
from ._special import expit
from .errors import CasemixError
from .formula import parse
from .ipd import IpdDataset
from .transport import (IPW, IPW_STABILIZED, MEASURES, OCR, GridSettings, _cell_order,
                        _check_count, _integer, _real, effect_matrix, effect_transform,
                        natural_effect, standardized_grid)
from .variance import (_entropy, attach_covariance, bootstrap_cov, draw_replicates,
                       sandwich_cov)

GENERIC = "generic"

# Two-trial presets. Pooled-covariate settings draw one L pool and assign
# membership by logit P(S=2|L); split settings halve n_total and draw L per
# trial. All normal parameters are (mean, sd).
_POOL_L = {1: (0.0, 1.0), 2: (0.0, 1.0), 3: (-0.125, 3.5)}
_MEMBERSHIP = {1: (0.5, 0.5, 0.05), 2: (0.5, 0.5, 0.0), 3: (0.5, 0.5, 0.3)}
_TRIAL_L = {4: ((0.0, 0.35), (0.0, 0.35)), 5: ((0.0, 0.5), (-1.5, 0.2))}

S2_SHIFT_INTERCEPT = "intercept"
S2_SHIFT_TREATMENT = "treatment"


@dataclass(frozen=True)
class SettingConfig:
    preset: object                      # 1..5 or GENERIC
    n_total: int = 1500
    allocation: float = 0.5
    # preset 2 only: where the 0.75 trial-2 shift enters the linear predictor.
    # "intercept" adds 0.75*I(S=2); "treatment" adds 0.75*X*I(S=2), which keeps
    # the two trials' control risks identical.
    s2_shift: str = S2_SHIFT_INTERCEPT
    # generic design
    trials: int = 2
    covariates: tuple = ()              # per covariate: ("normal", mean, sd) or
                                        # ("choice", (values...), (probs...))
    membership: tuple = ()              # (K-1) rows of multinomial coefs vs trial 1:
                                        # (intercept, coef per covariate)
    outcome: Optional[Mapping] = None   # term -> coef; terms "1","x","l<i>",
                                        # "x:l<i>","l<i>^2","l<i>^3"

    def __post_init__(self):
        if self.preset == GENERIC:
            if not self.covariates or self.outcome is None:
                raise ValueError("generic config needs covariates and outcome coefficients")
            if self.trials < 2:
                raise ValueError("need at least two trials")
            if len(self.membership) != self.trials - 1:
                raise ValueError("membership needs one coefficient row per non-reference trial")
            width = 1 + len(self.covariates)
            if any(len(row) != width for row in self.membership):
                raise ValueError(f"membership rows must have length {width}")
        elif not _integer(self.preset) or self.preset not in (1, 2, 3, 4, 5):
            raise ValueError(f"unknown preset {self.preset!r}")
        if not (_real(self.allocation) and 0 < self.allocation < 1):
            raise ValueError(f"allocation must be a number in (0, 1), not {self.allocation!r}")
        if not _integer(self.n_total):
            raise ValueError(f"n_total must be an integer, not {self.n_total!r}")
        if self.n_total < 2:
            raise ValueError("n_total too small")
        if self.s2_shift not in (S2_SHIFT_INTERCEPT, S2_SHIFT_TREATMENT):
            raise ValueError(f"unknown s2_shift {self.s2_shift!r}")

    @property
    def K(self) -> int:
        return self.trials if self.preset == GENERIC else 2

    @property
    def labels(self) -> tuple:
        # datasets carry study labels as strings
        return tuple(str(t) for t in range(1, self.K + 1))

    def to_dict(self) -> dict:
        d = {"preset": self.preset, "n_total": self.n_total,
             "allocation": self.allocation, "normal_params": "mean,sd"}
        if self.preset == 2:
            d["s2_shift"] = self.s2_shift
        if self.preset == GENERIC:
            d.update(trials=self.trials, covariates=list(self.covariates),
                     membership=[list(r) for r in self.membership],
                     outcome=dict(self.outcome))
        return d


def preset_config(preset, n_total: Optional[int] = None, **kw) -> SettingConfig:
    if n_total is None:
        n_total = 3000 if preset == GENERIC else 1500
    return SettingConfig(preset=preset, n_total=n_total, **kw)


def _preset_lp(cfg: SettingConfig, x, l, s):
    """True outcome-model linear predictor; s may be the per-subject trial
    array (generation) or the source trial number (standardization)."""
    p = cfg.preset
    if p == 1:
        return -0.25 - 1.5 * l * x + l + 0.15 * x
    if p == 2:
        base = -1.0 - 1.55 * l * x + l + 0.1 * x
        in2 = np.asarray(s == 2, dtype=float)
        if cfg.s2_shift == S2_SHIFT_TREATMENT:
            return base + 0.75 * x * in2
        return base + 0.75 * in2
    if p == 3:
        return 0.15 + 0.5 * x - 0.5 * x * l - 0.15 * l
    if p == 4:
        in2 = np.asarray(s == 2, dtype=float)
        return -0.5 + l * x + l - 0.3 * x + 0.75 * x * in2
    if p == 5:
        return 1.0 - 0.75 * x + l + 2 * l ** 2 + 2 * l ** 3
    raise ValueError(f"unknown preset {p!r}")


def _generic_lp(cfg: SettingConfig, x, L: np.ndarray):
    lp = np.zeros(L.shape[0])
    for term, coef in cfg.outcome.items():
        t = term.lower().replace(" ", "")
        if t == "1":
            lp += coef
        elif t == "x":
            lp += coef * x
        else:
            with_x = t.startswith("x:")
            name = t[2:] if with_x else t
            if "^" in name:
                name, deg = name.split("^")
                deg = int(deg)
            else:
                deg = 1
            idx = int(name[1:]) - 1
            if not name.startswith("l") or not 0 <= idx < len(cfg.covariates):
                raise ValueError(f"unknown outcome term {term!r}")
            col = L[:, idx] ** deg
            lp += coef * (x * col if with_x else col)
    return lp


def _draw_covariates_and_trials(cfg: SettingConfig, rng) -> tuple:
    """(L, S): covariate matrix (n x m) and trial labels, sorted by trial."""
    n = cfg.n_total
    if cfg.preset == GENERIC:
        cols = []
        for law in cfg.covariates:
            if law[0] == "normal":
                cols.append(rng.normal(law[1], law[2], n))
            elif law[0] == "choice":
                values, probs = np.asarray(law[1], float), np.asarray(law[2], float)
                cols.append(values[rng.choice(len(values), size=n, p=probs)])
            else:
                raise ValueError(f"unknown covariate law {law[0]!r}")
        L = np.column_stack(cols)
        G = np.column_stack([np.ones(n)] + cols)
        eta = np.column_stack([np.zeros(n)] + [G @ np.asarray(row, float)
                                               for row in cfg.membership])
        eta -= eta.max(axis=1, keepdims=True)
        P = np.exp(eta)
        P /= P.sum(axis=1, keepdims=True)
        u = rng.random(n)
        S = 1 + (u[:, None] >= np.cumsum(P, axis=1)).sum(axis=1)
    elif cfg.preset in _POOL_L:
        mu, sd = _POOL_L[cfg.preset]
        l = rng.normal(mu, sd, n)
        c0, c1, c2 = _MEMBERSHIP[cfg.preset]
        p2 = expit(c0 + c1 * l + c2 * l * l)
        S = np.where(rng.random(n) < p2, 2, 1)
        L = l[:, None]
    else:
        laws = _TRIAL_L[cfg.preset]
        n1 = n // 2
        sizes = (n1, n - n1)
        S = np.concatenate([np.full(sz, t + 1) for t, sz in enumerate(sizes)])
        L = np.concatenate([rng.normal(m, s, sz)
                            for (m, s), sz in zip(laws, sizes)])[:, None]
    order = np.argsort(S, kind="stable")
    return L[order], S[order]


def _covariate_names(cfg: SettingConfig) -> list:
    if cfg.preset == GENERIC:
        return [f"L{i + 1}" for i in range(len(cfg.covariates))]
    return ["L"]


def generate_setting(cfg: SettingConfig, seed) -> IpdDataset:
    """One dataset from the setting's law. Draw order is fixed (covariates,
    membership, allocation, outcome), so a seed pins the dataset bytes."""
    rng = np.random.default_rng(np.random.SeedSequence(_entropy(seed)))
    L, S = _draw_covariates_and_trials(cfg, rng)
    n = cfg.n_total
    X = (rng.random(n) < cfg.allocation).astype(int)
    if cfg.preset == GENERIC:
        lp = _generic_lp(cfg, X, L)
    else:
        lp = _preset_lp(cfg, X, L[:, 0], S)
    Y = (rng.random(n) < expit(lp)).astype(int)
    return IpdDataset.from_arrays(_covariate_names(cfg), cfg.labels, S - 1, X, Y, L)


@dataclass
class OracleTruth:
    probs: dict                         # (j,k,x) -> float
    rr: dict
    or_: dict
    rd: dict
    runs: int
    labels: tuple

    def effect(self, measure: str) -> dict:
        return {"rr": self.rr, "or": self.or_, "rd": self.rd}[measure]

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "labels": list(self.labels),
            "probs": {f"({j},{k},{x})": v for (j, k, x), v in self.probs.items()},
            "rr": {f"({j},{k})": v for (j, k), v in self.rr.items()},
            "or": {f"({j},{k})": v for (j, k), v in self.or_.items()},
            "rd": {f"({j},{k})": v for (j, k), v in self.rd.items()},
        }


def true_values_oracle(cfg: SettingConfig, runs: int = 5000, seed=0) -> OracleTruth:
    """Plug-in truths: per run, draw covariates and trial labels, average the
    true outcome model over each target population, then average across runs.
    Effects are derived from the averaged probabilities. The draw's rows are
    sorted by trial, so each target population is one slice of the rows the
    model is evaluated on."""
    _check_count("runs", runs, 1, "need at least one oracle run")
    labels = cfg.labels
    trials = np.array([int(j) for j in labels])
    sums = {(j, k, x): 0.0 for j in labels for k in labels for x in (0, 1)}
    for r in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence(_entropy(seed) + [0, r]))
        L, S = _draw_covariates_and_trials(cfg, rng)
        bounds = list(zip(labels, np.searchsorted(S, trials, "left"),
                          np.searchsorted(S, trials, "right")))
        for k in labels:
            for x in (0, 1):
                if cfg.preset == GENERIC:
                    p = expit(_generic_lp(cfg, float(x), L))
                else:
                    p = expit(_preset_lp(cfg, float(x), L[:, 0], int(k)))
                for j, lo, hi in bounds:
                    sums[(j, k, x)] += float(np.mean(p[lo:hi]))
    probs = {key: v / runs for key, v in sums.items()}
    effects = {m: {(j, k): natural_effect(m, probs[(j, k, 1)], probs[(j, k, 0)])
                   for j in labels for k in labels} for m in MEASURES}
    return OracleTruth(probs=probs, rr=effects["rr"], or_=effects["or"], rd=effects["rd"],
                       runs=runs, labels=labels)


@dataclass
class Analysis:
    """One estimator variant: a name and the grid settings it runs with
    (a method plus its possibly misspecified models)."""
    name: str
    settings: GridSettings

    def describe(self) -> dict:
        return {"name": self.name, **self.settings.describe()}


_OUTCOME_CORRECT = {
    1: "y ~ 1 + treat + L + treat:L",
    2: "y ~ 1 + treat + L + treat:L",
    3: "y ~ 1 + treat + L + treat:L",
    4: "y ~ 1 + treat + L + treat:L",
    5: "y ~ 1 + treat + L + L^2 + L^3",
}
_PS_CORRECT = {
    1: "study ~ 1 + L + L^2",
    2: "study ~ 1 + L",
    3: "study ~ 1 + L + L^2",
    4: "study ~ 1 + L",
    5: "study ~ 1 + L",
}


def analysis_preset(name: str, setting_preset) -> Analysis:
    """Named estimator variants: OCR1/2/3 and IPW1/2/3, plus stabilized IPW
    variants with an S suffix (IPW1S, ...)."""
    if setting_preset == GENERIC:
        raise ValueError("generic settings need explicit Analysis objects")
    base = name.upper().strip()
    stabilized = base.startswith("IPW") and base.endswith("S")
    key = base[:-1] if stabilized else base

    if key == "OCR1":
        return Analysis(base, GridSettings(OCR, outcome_formula=parse(
            _OUTCOME_CORRECT[setting_preset])))
    if key == "OCR2":
        full = parse(_OUTCOME_CORRECT[setting_preset])
        inter = [t for t in full.terms if type(t).__name__ == "Interaction"]
        if not inter:
            raise ValueError(f"OCR2 undefined for setting {setting_preset}: "
                             "no interaction to drop")
        return Analysis(base, GridSettings(OCR, outcome_formula=full.without(inter[0])))
    if key == "OCR3":
        if setting_preset != 5:
            raise ValueError("OCR3 is specific to setting 5")
        full = parse(_OUTCOME_CORRECT[5])
        reduced = parse("y ~ 1 + treat + L + L^2")
        return Analysis(base, GridSettings(OCR, outcome_formula=full,
                                           overrides={("2", "1"): reduced}))
    if key in ("IPW1", "IPW2", "IPW3"):
        method = IPW_STABILIZED if stabilized else IPW
        if key == "IPW1":
            text = _PS_CORRECT[setting_preset]
        elif key == "IPW2":
            text = "study ~ 1 + L"
        else:
            text = "study ~ 0 + L"
        return Analysis(base, GridSettings(method, ps_formula=parse(text)))
    raise ValueError(f"unknown analysis preset {name!r}")


def _resolve_analyses(analyses, cfg: SettingConfig) -> list:
    out = [a if isinstance(a, Analysis) else analysis_preset(a, cfg.preset) for a in analyses]
    names = [a.name for a in out]
    if len(set(names)) != len(names):
        raise ValueError("analysis names must be unique")
    return out


class _Raw:
    """Per-replication slots for one analysis, indexed by replication."""

    def __init__(self, reps: int, K: int, n_measures: int, n_tests: int):
        self.probs = np.full((reps, K * K, 2), np.nan)
        self.eff_log = np.full((reps, n_measures, K * K), np.nan)
        self.eff_nat = np.full((reps, n_measures, K * K), np.nan)
        # the covariance method's axis: 0 sandwich, 1 bootstrap
        self.var = np.full((reps, 2, n_measures, K * K), np.nan)
        self.pval = np.full((reps, 2, n_measures, n_tests), np.nan)
        self.feas = np.zeros((reps, 2, n_measures, n_tests), dtype=bool)
        self.ran = np.zeros((reps, 2, n_measures, n_tests), dtype=bool)
        self.oob = np.zeros(reps, dtype=int)
        self.failed = np.zeros(reps, dtype=bool)


TABLES = (("tables2.csv", "probability_bias"), ("tables3.csv", "effect_bias"),
          ("table4.csv", "variance"), ("table5.csv", "rejection"))


def _axis(name: str, values) -> list:
    return [{name: v} for v in values]


def _summary(draws: np.ndarray, truth: Optional[float] = None) -> dict:
    """One cell's finite replication draws: their mean and count, and given
    the cell's truth, the bias and the relative bias in percent. The mean is
    NaN without a finite draw, and the relative bias NaN at a zero truth."""
    finite = draws[np.isfinite(draws)]
    mean = float(finite.mean()) if finite.size else float("nan")
    if truth is None:
        return {"mean": mean, "n_defined": int(finite.size)}
    return {"truth": truth, "mean": mean, "bias": mean - truth,
            "rb_pct": 100.0 * (mean - truth) / truth if truth != 0 else float("nan"),
            "n_defined": int(finite.size)}


@dataclass
class SimulationReport:
    """A replication study's per-replication draws and the four tables
    summarized from them. Each table row is one cell of one analysis at one
    level (an arm, a measure, or a covariance method, measure and test),
    walked by `_walk`; the bias and variance rows summarize the cell's
    finite draws with `_summary`."""
    config: dict
    analyses: list                      # Analysis.describe() dicts
    reps: int
    seed: object
    bootstrap_b: int
    alpha: float
    measures: tuple
    labels: tuple
    truth: OracleTruth
    test_names: list
    raw: dict = field(repr=False, default_factory=dict)
    failures: dict = field(default_factory=dict)

    def cell_order(self) -> list:
        return _cell_order(self.labels)

    def _walk(self, *axes):
        """(raw, indices, head) for each analysis and each combination of
        the `axes`, the last varying fastest. An axis is a list of column
        dicts; `indices` holds one position per axis, and `head` the row's
        leading columns: the analysis's name, then each axis's columns."""
        for d in self.analyses:
            for pos in itertools.product(*(range(len(a)) for a in axes)):
                head = {"analysis": d["name"]}
                for a, i in zip(axes, pos):
                    head.update(a[i])
                yield self.raw[d["name"]], pos, head

    def _cells(self) -> list:
        return [{"target_j": j, "source_k": k} for j, k in self.cell_order()]

    def probability_bias_rows(self) -> list:
        order = self.cell_order()
        return [{**head, **_summary(raw.probs[:, c, x], self.truth.probs[(*order[c], x)])}
                for raw, (c, x), head in self._walk(self._cells(), _axis("arm_x", (0, 1)))]

    def effect_bias_rows(self) -> list:
        order = self.cell_order()
        return [{**head, **_summary(raw.eff_nat[:, mi, c],
                                    self.truth.effect(self.measures[mi])[order[c]])}
                for raw, (mi, c), head in self._walk(_axis("measure", self.measures),
                                                     self._cells())]

    def variance_rows(self) -> list:
        rows = []
        for raw, (mi, c), head in self._walk(_axis("measure", self.measures), self._cells()):
            pts = raw.eff_log[:, mi, c]
            pts = pts[np.isfinite(pts)]
            rows.append({**head, "mcv": float(pts.var(ddof=1)) if pts.size > 1 else float("nan"),
                         "mev": _summary(raw.var[:, 0, mi, c])["mean"],
                         "btv": _summary(raw.var[:, 1, mi, c])["mean"],
                         "n_defined": int(pts.size)})
        return rows

    def rejection_rows(self) -> list:
        methods = ["sandwich"] + (["bootstrap"] if self.bootstrap_b > 0 else [])
        rows = []
        for raw, (vi, mi, ti), head in self._walk(_axis("variance", methods),
                                                  _axis("measure", self.measures),
                                                  _axis("test", self.test_names)):
            n_ran = int(raw.ran[:, vi, mi, ti].sum())
            feas = raw.feas[:, vi, mi, ti]
            n_feas = int(feas.sum())
            n_rej = int((raw.pval[:, vi, mi, ti][feas] < self.alpha).sum()) if n_feas else 0
            rows.append({**head, "n_ran": n_ran, "n_feasible": n_feas,
                         "n_infeasible": n_ran - n_feas, "n_reject": n_rej,
                         "reject_pct": 100.0 * n_rej / n_feas if n_feas else float("nan")})
        return rows

    def rejection_rate(self, analysis: str, test: str, measure: str = "rr",
                       variance: str = "sandwich") -> float:
        for row in self.rejection_rows():
            if (row["analysis"] == analysis and row["test"] == test
                    and row["measure"] == measure and row["variance"] == variance):
                return row["reject_pct"] / 100.0
        raise KeyError((analysis, test, measure, variance))

    def failure_counts(self) -> dict:
        return {name: int(raw.failed.sum()) for name, raw in self.raw.items()}

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "analyses": self.analyses,
            "reps": self.reps,
            "seed": self.seed,
            "bootstrap_b": self.bootstrap_b,
            "alpha": self.alpha,
            "measures": list(self.measures),
            "truth": self.truth.to_dict(),
            "failure_counts": self.failure_counts(),
            "failures": {k: v[:50] for k, v in self.failures.items()},
            "out_of_bounds_reps": {name: int((raw.oob > 0).sum())
                                   for name, raw in self.raw.items()},
            "probability_bias": self.probability_bias_rows(),
            "effect_bias": self.effect_bias_rows(),
            "variance": self.variance_rows(),
            "rejection": self.rejection_rows(),
        }

    def write_tables(self, outdir) -> list:
        """CSV per table plus the JSON bundle, every table built once;
        every file embeds the resolved run configuration."""
        import os
        os.makedirs(outdir, exist_ok=True)
        header = {"config": self.config, "seed": self.seed, "reps": self.reps,
                  "bootstrap_b": self.bootstrap_b}
        report = self.to_json_dict()
        written = []
        for fname, table in TABLES:
            path = os.path.join(outdir, fname)
            write_csv(path, report[table], header)
            written.append(path)
        path = os.path.join(outdir, "report.json")
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1)
        written.append(path)
        return written


def write_csv(path, rows, meta: dict) -> None:
    """CSV with a leading `# {json}` metadata comment naming the run that
    produced it; floats are repr'd so files round-trip exactly."""
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        if not rows:
            return
        w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        w.writeheader()
        for row in rows:
            w.writerow({k: (repr(v) if isinstance(v, float) else v)
                        for k, v in row.items()})


def run_study(cfg: SettingConfig, analyses: Sequence[Union[str, Analysis]],
              reps: int = 1000, seed=0, bootstrap_b: int = 50,
              truth: Optional[OracleTruth] = None,
              oracle_runs: int = 5000, alpha: float = 0.05,
              measures: Sequence[str] = ("rr", "or")) -> SimulationReport:
    """Replication study of one setting.

    Per replication and analysis: the full standardized grid, effect matrices
    for each measure, the sandwich covariance, a stratified bootstrap when
    bootstrap_b > 0, and all heterogeneity tests under each covariance. The
    replication's bootstrap draws are made once and read by every analysis.
    Failures are recorded per (replication, analysis) and never dropped
    silently; quantities computed before the failure are kept.
    """
    _check_count("reps", reps, 1)
    if truth is None:
        _check_count("oracle_runs", oracle_runs, 1, "need at least one oracle run")
    if not (_integer(bootstrap_b) and (bootstrap_b == 0 or bootstrap_b >= 2)):
        raise ValueError(f"bootstrap_b must be 0 or an integer of at least 2, "
                         f"not {bootstrap_b!r}")
    if not (_real(alpha) and 0 < alpha < 1):
        raise ValueError(f"alpha must be a number in (0, 1), not {alpha!r}")
    entropy = _entropy(seed)
    analyses = _resolve_analyses(analyses, cfg)
    if not analyses:
        raise ValueError("analyses: need at least one analysis")
    measures = tuple(measures)
    for msr in measures:                # unknown measures fail before the oracle
        effect_transform(msr, 0.5, 0.5)
    if truth is None:
        truth = true_values_oracle(cfg, runs=oracle_runs, seed=seed)
    labels = cfg.labels
    K = len(labels)
    test_names = ([f"beyond[{j}]" for j in labels]
                  + [f"casemix[{k}]" for k in labels] + ["conventional"])
    raws = {a.name: _Raw(reps, K, len(measures), len(test_names)) for a in analyses}
    failures = {a.name: [] for a in analyses}

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r in range(reps):
            ds = generate_setting(cfg, entropy + [1, r])
            # every analysis's bootstrap reads the replication's one set of draws
            draws = (draw_replicates(ds, bootstrap_b, entropy + [2, r]) if bootstrap_b > 0
                     else None)
            for an in analyses:
                raw = raws[an.name]
                try:
                    grid = standardized_grid(ds, an.settings)
                    raw.probs[r] = grid.probs
                    raw.oob[r] = np.count_nonzero(grid.out_of_bounds)
                    matrices = {}
                    for mi, msr in enumerate(measures):
                        m = effect_matrix(grid, msr, collect_errors=True)
                        matrices[msr] = m
                        raw.eff_log[r, mi] = m.transformed_vector()
                        raw.eff_nat[r, mi] = m.point_vector()
                    sres = sandwich_cov(grid, measures)
                    _record_tests(raw, r, 0, measures, matrices, sres)
                    if bootstrap_b > 0:
                        bres = bootstrap_cov(grid, measures, B=bootstrap_b,
                                             seed=entropy + [2, r], draws=draws)
                        _record_tests(raw, r, 1, measures, matrices, bres)
                except (CasemixError, np.linalg.LinAlgError) as e:
                    # a failed fit, grid or covariance fails this replication
                    # only; any other error is a programming error and propagates
                    raw.failed[r] = True
                    failures[an.name].append((r, f"{type(e).__name__}: {e}"))

    return SimulationReport(
        config=cfg.to_dict(), analyses=[a.describe() for a in analyses],
        reps=reps, seed=seed, bootstrap_b=bootstrap_b, alpha=alpha,
        measures=measures, labels=labels, truth=truth, test_names=test_names,
        raw=raws, failures=failures)


def _record_tests(raw: _Raw, r: int, vi: int, measures, matrices, covres) -> None:
    for mi, msr in enumerate(measures):
        raw.var[r, vi, mi] = np.diag(covres.sigma[msr])
        attach_covariance(matrices[msr], covres)
        for ti, res in enumerate(het.all_tests(matrices[msr])):
            raw.ran[r, vi, mi, ti] = True
            raw.feas[r, vi, mi, ti] = res.feasible
            if res.feasible:
                raw.pval[r, vi, mi, ti] = res.p_value
