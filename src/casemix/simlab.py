"""Simulation engine: data generators, plug-in truths, and replication studies.

Five built-in two-trial generators exercise the transport machinery in
qualitatively different regimes (effect modification with differing case mix,
compensating sources, positivity violations, identical case mix, covariate-
support extrapolation), plus a configurable generic design with K trials and
several covariates. Normal laws are parameterized as (mean, sd) throughout.

A replication study draws independent datasets, runs every requested analysis
on each, and aggregates bias, variance calibration (Monte-Carlo variance vs.
mean sandwich and bootstrap estimates) and heterogeneity-test rejection rates.
Per-replication RNG streams are preallocated from the master seed, so reports
are byte-identical for any worker count.
"""

from __future__ import annotations

import csv
import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence, Union

import numpy as np
from scipy.special import expit

from . import het
from .errors import CasemixError
from .formula import ModelFormula, parse
from .ipd import IpdDataset
from .transport import IPW, IPW_STABILIZED, OCR, effect_matrix, standardized_grid
from .variance import _entropy, attach_covariance, bootstrap_cov, sandwich_cov

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
        elif self.preset not in (1, 2, 3, 4, 5):
            raise ValueError(f"unknown preset {self.preset!r}")
        if not 0 < self.allocation < 1:
            raise ValueError("allocation must be in (0,1)")
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


def true_values_oracle(cfg: SettingConfig, runs: int = 5000,
                       n: Optional[int] = None, seed=0) -> OracleTruth:
    """Plug-in truths: per run, draw covariates and trial labels, average the
    true outcome model over each target population, then average across runs.
    Effects are derived from the averaged probabilities."""
    if runs < 1:
        raise ValueError("need at least one oracle run")
    if n is not None and n != cfg.n_total:
        cfg = replace(cfg, n_total=n)
    labels = cfg.labels
    sums = {(j, k, x): 0.0 for j in labels for k in labels for x in (0, 1)}
    for r in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence(_entropy(seed) + [0, r]))
        L, S = _draw_covariates_and_trials(cfg, rng)
        for j in labels:
            m = S == int(j)
            Lj = L[m]
            for k in labels:
                for x in (0, 1):
                    if cfg.preset == GENERIC:
                        p = expit(_generic_lp(cfg, float(x), Lj))
                    else:
                        p = expit(_preset_lp(cfg, float(x), Lj[:, 0], int(k)))
                    sums[(j, k, x)] += float(np.mean(p))
    probs = {key: v / runs for key, v in sums.items()}
    rr, orr, rd = {}, {}, {}
    for j in labels:
        for k in labels:
            p1, p0 = probs[(j, k, 1)], probs[(j, k, 0)]
            rr[(j, k)] = p1 / p0
            orr[(j, k)] = (p1 / (1 - p1)) / (p0 / (1 - p0))
            rd[(j, k)] = p1 - p0
    return OracleTruth(probs=probs, rr=rr, or_=orr, rd=rd, runs=runs, labels=labels)


@dataclass
class Analysis:
    """One estimator variant: a method plus its (possibly misspecified) models."""
    name: str
    method: str
    outcome_formula: Optional[ModelFormula] = None
    ps_formula: Optional[ModelFormula] = None
    overrides: Optional[dict] = None    # (j,k) -> outcome formula
    truncation: Optional[float] = None
    expit_weight: bool = False
    ps_mode: Optional[str] = None

    def describe(self) -> dict:
        d = {"name": self.name, "method": self.method}
        if self.outcome_formula is not None:
            d["outcome_formula"] = self.outcome_formula.text()
        if self.ps_formula is not None:
            d["ps_formula"] = self.ps_formula.text()
        if self.overrides:
            d["overrides"] = {f"({j},{k})": f.text()
                              for (j, k), f in self.overrides.items()}
        if self.truncation is not None:
            d["truncation"] = self.truncation
        if self.expit_weight:
            d["expit_weight"] = True
        return d


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
        return Analysis(base, OCR, outcome_formula=parse(_OUTCOME_CORRECT[setting_preset]))
    if key == "OCR2":
        full = parse(_OUTCOME_CORRECT[setting_preset])
        inter = [t for t in full.terms if type(t).__name__ == "Interaction"]
        if not inter:
            raise ValueError(f"OCR2 undefined for setting {setting_preset}: "
                             "no interaction to drop")
        return Analysis(base, OCR, outcome_formula=full.without(inter[0]))
    if key == "OCR3":
        if setting_preset != 5:
            raise ValueError("OCR3 is specific to setting 5")
        full = parse(_OUTCOME_CORRECT[5])
        reduced = parse("y ~ 1 + treat + L + L^2")
        return Analysis(base, OCR, outcome_formula=full,
                        overrides={("2", "1"): reduced})
    if key in ("IPW1", "IPW2", "IPW3"):
        method = IPW_STABILIZED if stabilized else IPW
        if key == "IPW1":
            text = _PS_CORRECT[setting_preset]
        elif key == "IPW2":
            text = "study ~ 1 + L"
        else:
            text = "study ~ 0 + L"
        return Analysis(base, method, ps_formula=parse(text))
    raise ValueError(f"unknown analysis preset {name!r}")


def _resolve_analyses(analyses, cfg: SettingConfig) -> list:
    out = []
    for a in analyses:
        out.append(a if isinstance(a, Analysis) else analysis_preset(a, cfg.preset))
    names = [a.name for a in out]
    if len(set(names)) != len(names):
        raise ValueError("analysis names must be unique")
    return out


class _Raw:
    """Per-replication slots for one analysis; aggregation reads them in
    replication order regardless of which worker filled them."""

    def __init__(self, reps: int, K: int, n_measures: int, n_tests: int):
        self.probs = np.full((reps, K * K, 2), np.nan)
        self.eff_log = np.full((reps, n_measures, K * K), np.nan)
        self.eff_nat = np.full((reps, n_measures, K * K), np.nan)
        self.var_snd = np.full((reps, n_measures, K * K), np.nan)
        self.var_boot = np.full((reps, n_measures, K * K), np.nan)
        self.pval = np.full((reps, 2, n_measures, n_tests), np.nan)  # 0 snd, 1 boot
        self.feas = np.zeros((reps, 2, n_measures, n_tests), dtype=bool)
        self.ran = np.zeros((reps, 2, n_measures, n_tests), dtype=bool)
        self.oob = np.zeros(reps, dtype=int)
        self.n_over = np.zeros(reps, dtype=int)
        self.boot_excluded = np.zeros(reps, dtype=int)
        self.failed = np.zeros(reps, dtype=bool)


@dataclass
class SimulationReport:
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
        return [(j, k) for j in self.labels for k in self.labels]

    def _mean(self, a: np.ndarray) -> float:
        a = a[np.isfinite(a)]
        return float(a.mean()) if a.size else float("nan")

    def probability_bias_rows(self) -> list:
        rows = []
        for d in self.analyses:
            raw = self.raw[d["name"]]
            for c, (j, k) in enumerate(self.cell_order()):
                for x in (0, 1):
                    tru = self.truth.probs[(j, k, x)]
                    mean = self._mean(raw.probs[:, c, x])
                    rows.append({
                        "analysis": d["name"], "target_j": j, "source_k": k,
                        "arm_x": x, "truth": tru, "mean": mean,
                        "bias": mean - tru, "rb_pct": 100.0 * (mean - tru) / tru,
                        "n_defined": int(np.isfinite(raw.probs[:, c, x]).sum()),
                    })
        return rows

    def effect_bias_rows(self) -> list:
        rows = []
        for d in self.analyses:
            raw = self.raw[d["name"]]
            for mi, msr in enumerate(self.measures):
                tr = self.truth.effect(msr)
                for c, (j, k) in enumerate(self.cell_order()):
                    tru = tr[(j, k)]
                    mean = self._mean(raw.eff_nat[:, mi, c])
                    rows.append({
                        "analysis": d["name"], "measure": msr,
                        "target_j": j, "source_k": k,
                        "truth": tru, "mean": mean, "bias": mean - tru,
                        "rb_pct": 100.0 * (mean - tru) / tru,
                        "n_defined": int(np.isfinite(raw.eff_nat[:, mi, c]).sum()),
                    })
        return rows

    def variance_rows(self) -> list:
        rows = []
        for d in self.analyses:
            raw = self.raw[d["name"]]
            for mi, msr in enumerate(self.measures):
                for c, (j, k) in enumerate(self.cell_order()):
                    pts = raw.eff_log[:, mi, c]
                    pts = pts[np.isfinite(pts)]
                    mcv = float(pts.var(ddof=1)) if pts.size > 1 else float("nan")
                    rows.append({
                        "analysis": d["name"], "measure": msr,
                        "target_j": j, "source_k": k,
                        "mcv": mcv,
                        "mev": self._mean(raw.var_snd[:, mi, c]),
                        "btv": self._mean(raw.var_boot[:, mi, c]),
                        "n_defined": int(pts.size),
                    })
        return rows

    def rejection_rows(self) -> list:
        rows = []
        methods = ["sandwich"] + (["bootstrap"] if self.bootstrap_b > 0 else [])
        for d in self.analyses:
            raw = self.raw[d["name"]]
            for vi, vm in enumerate(methods):
                for mi, msr in enumerate(self.measures):
                    for ti, test in enumerate(self.test_names):
                        ran = raw.ran[:, vi, mi, ti]
                        feas = raw.feas[:, vi, mi, ti]
                        p = raw.pval[:, vi, mi, ti]
                        n_feas = int(feas.sum())
                        n_rej = int((p[feas] < self.alpha).sum()) if n_feas else 0
                        rows.append({
                            "analysis": d["name"], "variance": vm, "measure": msr,
                            "test": test, "n_ran": int(ran.sum()),
                            "n_feasible": n_feas,
                            "n_infeasible": int(ran.sum()) - n_feas,
                            "n_reject": n_rej,
                            "reject_pct": 100.0 * n_rej / n_feas if n_feas else float("nan"),
                        })
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
        """CSV per aggregate plus the JSON bundle; every file embeds the
        resolved run configuration."""
        import os
        os.makedirs(outdir, exist_ok=True)
        header = {"config": self.config, "seed": self.seed, "reps": self.reps,
                  "bootstrap_b": self.bootstrap_b}
        written = []
        for fname, rows in (("tables2.csv", self.probability_bias_rows()),
                            ("tables3.csv", self.effect_bias_rows()),
                            ("table4.csv", self.variance_rows()),
                            ("table5.csv", self.rejection_rows())):
            path = os.path.join(outdir, fname)
            write_csv(path, rows, header)
            written.append(path)
        path = os.path.join(outdir, "report.json")
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
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
              workers: int = 1, truth: Optional[OracleTruth] = None,
              oracle_runs: int = 5000, alpha: float = 0.05,
              measures: Sequence[str] = ("rr", "or")) -> SimulationReport:
    """Replication study of one setting.

    Per replication and analysis: the full standardized grid, effect matrices
    for each measure, the sandwich covariance, a stratified bootstrap when
    bootstrap_b > 0, and all heterogeneity tests under each covariance.
    Failures are recorded per (replication, analysis) and never dropped
    silently; quantities computed before the failure are kept.
    """
    if reps < 1:
        raise ValueError("need at least one replication")
    analyses = _resolve_analyses(analyses, cfg)
    measures = tuple(measures)
    if truth is None:
        truth = true_values_oracle(cfg, runs=oracle_runs, seed=seed)
    labels = cfg.labels
    K = len(labels)
    test_names = ([f"beyond[{j}]" for j in labels]
                  + [f"casemix[{k}]" for k in labels] + ["conventional"])
    raws = {a.name: _Raw(reps, K, len(measures), len(test_names)) for a in analyses}
    failures = {a.name: [] for a in analyses}

    def one_rep(r: int) -> None:
        ds = generate_setting(cfg, _entropy(seed) + [1, r])
        order = [(j, k) for j in labels for k in labels]
        for an in analyses:
            raw = raws[an.name]
            try:
                grid = standardized_grid(
                    ds, an.method, outcome_formula=an.outcome_formula,
                    ps_formula=an.ps_formula, ps_mode=an.ps_mode,
                    truncation=an.truncation, expit_weight=an.expit_weight,
                    overrides=an.overrides)
                for c, (j, k) in enumerate(order):
                    for x in (0, 1):
                        est = grid[(j, k, x)]
                        raw.probs[r, c, x] = est.prob
                        raw.oob[r] += int(est.out_of_bounds)
                        if x == 1 and est.weights_summary is not None:
                            raw.n_over[r] += est.weights_summary.n_over_threshold
                matrices = {}
                for mi, msr in enumerate(measures):
                    m = effect_matrix(ds, an.method, measure=msr, collect_errors=True,
                                      _grid=grid)
                    matrices[msr] = m
                    raw.eff_log[r, mi] = m.transformed_vector()
                    raw.eff_nat[r, mi] = m.point_vector()
                sres = sandwich_cov(ds, an.method, outcome_formula=an.outcome_formula,
                                    ps_formula=an.ps_formula, measures=measures,
                                    ps_mode=an.ps_mode, truncation=an.truncation,
                                    expit_weight=an.expit_weight,
                                    overrides=an.overrides, grid=grid)
                _record_tests(raw, r, 0, measures, matrices, sres, raw.var_snd)
                if bootstrap_b > 0:
                    bres = bootstrap_cov(ds, an.method,
                                         outcome_formula=an.outcome_formula,
                                         ps_formula=an.ps_formula, measures=measures,
                                         B=bootstrap_b, seed=_entropy(seed) + [2, r],
                                         ps_mode=an.ps_mode, truncation=an.truncation,
                                         expit_weight=an.expit_weight,
                                         overrides=an.overrides)
                    raw.boot_excluded[r] = max(int(v.max()) for v in bres.excluded.values())
                    _record_tests(raw, r, 1, measures, matrices, bres, raw.var_boot)
            except Exception as e:             # one bad replication must not kill the study
                raw.failed[r] = True
                failures[an.name].append((r, f"{type(e).__name__}: {e}"))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if workers and workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as ex:
                list(ex.map(one_rep, range(reps)))
        else:
            for r in range(reps):
                one_rep(r)

    return SimulationReport(
        config=cfg.to_dict(), analyses=[a.describe() for a in analyses],
        reps=reps, seed=seed, bootstrap_b=bootstrap_b, alpha=alpha,
        measures=measures, labels=labels, truth=truth, test_names=test_names,
        raw=raws, failures=failures)


def _record_tests(raw: _Raw, r: int, vi: int, measures, matrices, covres,
                  var_slot: np.ndarray) -> None:
    for mi, msr in enumerate(measures):
        var_slot[r, mi] = np.diag(covres.sigma[msr])
        attach_covariance(matrices[msr], covres)
        for ti, res in enumerate(het.all_tests(matrices[msr])):
            raw.ran[r, vi, mi, ti] = True
            raw.feas[r, vi, mi, ti] = res.feasible
            if res.feasible:
                raw.pval[r, vi, mi, ti] = res.p_value
