"""Command-line entry point.

Three subcommands: `simulate` runs a replication study of a built-in or
configured setting, `analyze` runs the full pipeline on an IPD CSV
(standardize, covariance, pool, test), and `transport` reports one
standardized probability for debugging. Runs are reproducible: the seed is
part of the interface, and every output file embeds the resolved
configuration. A JSON config file can supply any option; explicit flags win.

Exit codes: 0 success, 1 configuration or data error, 2 statistical failure
threshold breached (simulate: more than 10% of replications failed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import het, meta
from .errors import CasemixError
from .formula import Intercept, ModelFormula, parse as parse_formula
from .glm import backward_eliminate
from .ipd import load_ipd
from .simlab import (
    GENERIC,
    SettingConfig,
    preset_config,
    run_study,
    write_csv,
)
from .transport import (
    IPW,
    IPW_STABILIZED,
    OCR,
    POSITIVITY_THRESHOLD,
    common_control_check,
    effect_matrix,
    standardized_grid,
)
from .variance import attach_covariance, bootstrap_cov, build_system, sandwich_cov

METHODS = {"ocr": OCR, "ipw": IPW, "ipw-stabilized": IPW_STABILIZED}
FAILURE_RATE_LIMIT = 0.10


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except (CasemixError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="casemix",
        description="Standardize trial effects across populations, pool them, "
                    "and decompose heterogeneity.")
    sub = p.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="run a replication study of a setting")
    sim.add_argument("--preset", help="1..5 or 'generic'")
    sim.add_argument("--config", help="JSON file with any option (flags win)")
    sim.add_argument("--analyses", help="comma list, e.g. OCR1,IPW1")
    sim.add_argument("--reps", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--bootstrap-b", type=int, dest="bootstrap_b")
    sim.add_argument("--workers", type=int)
    sim.add_argument("--n-total", type=int, dest="n_total")
    sim.add_argument("--oracle-runs", type=int, dest="oracle_runs")
    sim.add_argument("--alpha", type=float)
    sim.add_argument("--s2-shift", dest="s2_shift",
                     choices=["intercept", "treatment"])
    sim.add_argument("--out")
    sim.set_defaults(func=cmd_simulate)

    ana = _add_model_args(sub.add_parser("analyze", help="full pipeline on an IPD CSV"),
                          "IPD CSV: study,treat,outcome,<covariates>")
    ana.add_argument("--measure", choices=["rr", "or", "rd"])
    ana.add_argument("--variance", choices=["sandwich", "bootstrap"])
    ana.add_argument("--bootstrap-b", type=int, dest="bootstrap_b")
    ana.add_argument("--seed", type=int)
    ana.add_argument("--eliminate", help="comma list of candidate terms for "
                                         "backward elimination, e.g. treat:L,L^2")
    ana.add_argument("--alpha", type=float)
    ana.add_argument("--tau2-method", dest="tau2_method", choices=["dl", "reml"])
    ana.add_argument("--out")
    ana.set_defaults(func=cmd_analyze)

    tra = _add_model_args(sub.add_parser("transport", help="one standardized probability"),
                          "IPD CSV")
    tra.add_argument("--target", help="target population label j")
    tra.add_argument("--source", help="source trial label k")
    tra.add_argument("--arm", type=int, choices=[0, 1], help="treatment arm x")
    tra.add_argument("--out", help="optional JSON report path")
    tra.set_defaults(func=cmd_transport)
    return p


def _add_model_args(parser: argparse.ArgumentParser, input_help: str):
    """The input and model options that `analyze` and `transport` share."""
    parser.add_argument("input", help=input_help)
    parser.add_argument("--config", help="JSON file with any option (flags win)")
    parser.add_argument("--method", choices=sorted(METHODS))
    parser.add_argument("--outcome-formula", dest="outcome_formula")
    parser.add_argument("--ps-formula", dest="ps_formula")
    parser.add_argument("--ps-mode", dest="ps_mode", choices=["pairwise", "multinomial"])
    parser.add_argument("--expit-weight", dest="expit_weight", action="store_const", const=True)
    parser.add_argument("--truncate-percentile", type=float, dest="truncate_percentile")
    parser.add_argument("--positivity-threshold", type=float, dest="positivity_threshold")
    return parser


def _resolve(args, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    cli = {k: v for k, v in vars(args).items()
           if v is not None and k not in ("func", "command", "config")}
    conf = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            conf = json.load(fh)
        known = set(defaults) | set(cli) | {
            "preset", "seed", "input", "trials", "covariates", "membership",
            "outcome", "n_total", "s2_shift",
        }
        unknown = set(conf) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return {**defaults, **conf, **cli}


def _setting_from(cfg: dict) -> SettingConfig:
    preset = cfg.get("preset")
    if preset is None:
        raise ValueError("a preset is required (--preset or config)")
    if str(preset).lower() == GENERIC:
        return SettingConfig(
            preset=GENERIC,
            n_total=cfg.get("n_total") or 3000,
            trials=int(cfg.get("trials", 5)),
            covariates=tuple(tuple(c) for c in cfg.get("covariates", ())),
            membership=tuple(tuple(r) for r in cfg.get("membership", ())),
            outcome=cfg.get("outcome"))
    kw = {}
    if cfg.get("n_total"):
        kw["n_total"] = int(cfg["n_total"])
    if cfg.get("s2_shift"):
        kw["s2_shift"] = cfg["s2_shift"]
    return preset_config(int(preset), **kw)


def cmd_simulate(args) -> int:
    cfg = _resolve(args, defaults={
        "analyses": "OCR1,IPW1", "reps": 1000, "bootstrap_b": 50, "workers": 1,
        "oracle_runs": 5000, "alpha": 0.05, "out": "casemix-out",
    })
    if cfg.get("seed") is None:
        raise ValueError("simulate requires an explicit --seed")
    setting = _setting_from(cfg)
    analyses = [a.strip() for a in str(cfg["analyses"]).split(",") if a.strip()]
    report = run_study(setting, analyses, reps=int(cfg["reps"]),
                       seed=int(cfg["seed"]), bootstrap_b=int(cfg["bootstrap_b"]),
                       workers=int(cfg["workers"]),
                       oracle_runs=int(cfg["oracle_runs"]),
                       alpha=float(cfg["alpha"]))
    written = report.write_tables(cfg["out"])
    for path in written:
        print(path)
    failed = report.failure_counts()
    for name, count in sorted(failed.items()):
        if count:
            print(f"{name}: {count}/{report.reps} replications failed")
    if any(c > FAILURE_RATE_LIMIT * report.reps for c in failed.values()):
        print("failure rate above 10%", file=sys.stderr)
        return 2
    return 0


def _formulas_from(cfg: dict) -> tuple:
    method = METHODS.get(cfg.get("method") or "")
    if method is None:
        raise ValueError("--method is required (ocr, ipw, or ipw-stabilized)")
    outcome = ps = None
    if method == OCR:
        if not cfg.get("outcome_formula"):
            raise ValueError("OCR needs --outcome-formula")
        outcome = parse_formula(cfg["outcome_formula"])
    else:
        if not cfg.get("ps_formula"):
            raise ValueError("IPW needs --ps-formula")
        ps = parse_formula(cfg["ps_formula"])
    return method, outcome, ps


def _candidate_terms(spec: str) -> list:
    return [parse_formula("y ~ 0 + " + tok.strip()).terms[0]
            for tok in spec.split(",") if tok.strip()]


def _without_terms(formula, candidates):
    """Base model for elimination: the given formula minus the candidates."""
    drop = {t.label() for t in candidates}
    kept = [t for t in formula.terms
            if isinstance(t, Intercept) or t.label() not in drop]
    return ModelFormula(kept, response=formula.response)


def cmd_analyze(args) -> int:
    cfg = _resolve(args, defaults={
        "measure": "rr", "variance": "sandwich", "bootstrap_b": 200, "seed": 0,
        "truncate_percentile": 95.0, "positivity_threshold": POSITIVITY_THRESHOLD,
        "expit_weight": False, "alpha": 0.05, "tau2_method": "dl",
        "out": "casemix-out", "ps_mode": None, "eliminate": None,
        "outcome_formula": None, "ps_formula": None, "method": None,
        "input": None,
    })
    method, outcome_formula, ps_formula = _formulas_from(cfg)
    ds = load_ipd(cfg["input"])
    alpha = float(cfg["alpha"])
    truncation = cfg["truncate_percentile"]
    threshold = float(cfg["positivity_threshold"])

    # control-arm exchangeability: intercept + all covariate mains
    control = parse_formula("y ~ 1 + " + " + ".join(ds.schema.names))
    control_report = common_control_check(ds, control, alpha=alpha)

    eliminated_to = None
    if cfg.get("eliminate"):
        candidates = _candidate_terms(cfg["eliminate"])
        if method == OCR:
            base = _without_terms(outcome_formula, candidates)
            outcome_formula = backward_eliminate(ds, base, candidates,
                                                 alpha=alpha, target="outcome-model")
            eliminated_to = outcome_formula.text()
        else:
            base = _without_terms(ps_formula, candidates)
            ps_formula = backward_eliminate(ds, base, candidates,
                                            alpha=alpha, target="membership-model")
            eliminated_to = ps_formula.text()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        grid = standardized_grid(ds, method, outcome_formula=outcome_formula,
                                 ps_formula=ps_formula, ps_mode=cfg["ps_mode"],
                                 truncation=truncation,
                                 expit_weight=bool(cfg["expit_weight"]),
                                 positivity_threshold=threshold)
        matrix = effect_matrix(ds, method, measure=cfg["measure"],
                               collect_errors=True, _grid=grid)
        if cfg["variance"] == "sandwich":
            covres = sandwich_cov(ds, method, outcome_formula=outcome_formula,
                                  ps_formula=ps_formula,
                                  measures=(cfg["measure"],),
                                  ps_mode=cfg["ps_mode"], truncation=truncation,
                                  expit_weight=bool(cfg["expit_weight"]), grid=grid)
        else:
            covres = bootstrap_cov(ds, method, outcome_formula=outcome_formula,
                                   ps_formula=ps_formula,
                                   measures=(cfg["measure"],),
                                   B=int(cfg["bootstrap_b"]),
                                   seed=int(cfg["seed"]),
                                   ps_mode=cfg["ps_mode"], truncation=truncation,
                                   expit_weight=bool(cfg["expit_weight"]))
    attach_covariance(matrix, covres)
    warned = sorted({str(w.message) for w in caught})

    pooled = meta.pool_matrix(matrix, tau2_method=cfg["tau2_method"])
    tests = het.all_tests(matrix)

    outdir = cfg["out"]
    os.makedirs(outdir, exist_ok=True)
    meta_header = {k: v for k, v in cfg.items() if k != "func"}
    written = []

    effects_rows = []
    for (j, k) in matrix.cell_order():
        cell = matrix.cells[(j, k)]
        se = cell.se_transformed
        lo = hi = float("nan")
        if se is not None and cell.defined:
            lo = cell.transformed_point - meta.Z975 * se
            hi = cell.transformed_point + meta.Z975 * se
            if matrix.measure in ("rr", "or"):
                lo, hi = math.exp(lo), math.exp(hi)
        effects_rows.append({
            "target_j": j, "source_k": k, "measure": matrix.measure,
            "prob1": cell.prob1, "prob0": cell.prob0,
            "point": cell.point, "transformed": cell.transformed_point,
            "se_transformed": float("nan") if se is None else se,
            "ci_lower": lo, "ci_upper": hi,
            "defined": cell.defined, "note": cell.note,
        })
    path = os.path.join(outdir, "effects.csv")
    write_csv(path, effects_rows, meta_header)
    written.append(path)

    for j, summary in pooled.items():
        rows = meta.forest_rows(summary)
        if matrix.measure in ("rr", "or"):
            for row in rows:
                row["point_natural"] = math.exp(row["point"])
                row["ci_lower_natural"] = math.exp(row["ci_lower"])
                row["ci_upper_natural"] = math.exp(row["ci_upper"])
        path = os.path.join(outdir, f"forest_{j}.csv")
        write_csv(path, rows, meta_header)
        written.append(path)

    path = os.path.join(outdir, "het_tests.csv")
    write_csv(path, het.report_records(tests), meta_header)
    written.append(path)

    diagnostics = {
        "config": meta_header,
        "common_control": asdict(control_report),
        "eliminated_to": eliminated_to,
        "weights": {f"({j},{k})": asdict(d)
                    for (j, k), d in matrix.diagnostics.items()},
        "positivity_flag": any(d.n_over_threshold > 0
                               for d in matrix.diagnostics.values()),
        "warnings": warned,
        "undefined_cells": [f"({j},{k})" for (j, k) in matrix.cell_order()
                            if not matrix.cells[(j, k)].defined],
        "pooled": {
            j: {"estimate": s.estimate, "se": s.se,
                "ci": [s.ci_lower, s.ci_upper],
                "point_natural": s.point_natural(),
                "ci_natural": list(s.ci_natural()),
                "tau2": s.tau2, "i2": s.i2, "q": s.q, "k_used": s.k_used,
                "dropped": s.dropped}
            for j, s in pooled.items()
        },
    }
    if covres.method == "bootstrap":
        diagnostics["bootstrap_excluded"] = {
            msr: [int(v) for v in counts]
            for msr, counts in covres.excluded.items()}
        diagnostics["bootstrap_replicates"] = covres.replicates
    path = os.path.join(outdir, "diagnostics.json")
    with open(path, "w") as fh:
        json.dump(diagnostics, fh, indent=1)
    written.append(path)

    for pth in written:
        print(pth)
    if diagnostics["positivity_flag"]:
        print(f"warning: transport weights exceed {threshold:g}; "
              "possible positivity violation (see diagnostics.json)")
    return 0


def cmd_transport(args) -> int:
    cfg = _resolve(args, defaults={
        "expit_weight": False, "positivity_threshold": POSITIVITY_THRESHOLD,
        "truncate_percentile": None, "ps_mode": None, "out": None,
        "outcome_formula": None, "ps_formula": None, "method": None,
        "target": None, "source": None, "arm": None, "input": None,
    })
    for key in ("target", "source"):
        if cfg.get(key) is None:
            raise ValueError(f"--{key} is required")
    if cfg.get("arm") is None:
        raise ValueError("--arm is required")
    method, outcome_formula, ps_formula = _formulas_from(cfg)
    ds = load_ipd(cfg["input"])
    j, k, x = str(cfg["target"]), str(cfg["source"]), int(cfg["arm"])
    ds.study_number(j)
    ds.study_number(k)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid = standardized_grid(ds, method, outcome_formula=outcome_formula,
                                 ps_formula=ps_formula, ps_mode=cfg["ps_mode"],
                                 truncation=cfg["truncate_percentile"],
                                 expit_weight=bool(cfg["expit_weight"]),
                                 positivity_threshold=float(cfg["positivity_threshold"]))
        est = grid[(j, k, x)]
        se = float("nan")
        se_note = ""
        try:
            system = build_system(ds, method, outcome_formula=outcome_formula,
                                  ps_formula=ps_formula, measures=(),
                                  ps_mode=cfg["ps_mode"],
                                  truncation=cfg["truncate_percentile"],
                                  expit_weight=bool(cfg["expit_weight"]), grid=grid)
            sigma = system.sandwich()
            row = system.prob_rows[(j, k, x)]
            v = sigma[row, row]
            se = float(np.sqrt(v)) if v >= 0 else float("nan")
        except CasemixError as e:
            se_note = f" (no sandwich SE: {e})"

    print(f"P(Y({x}_{k})=1 | S={j}) = {est.prob:.6f}  se={se:.6f}{se_note}")
    if est.out_of_bounds:
        print("estimate is outside [0,1]")
    if est.weights_summary is not None:
        d = est.weights_summary
        print(f"weights: max={d.max:.4g} p95={d.p95:.4g} ess={d.ess:.1f} "
              f"over_threshold={d.n_over_threshold}"
              + (f" truncated_at={d.truncated_at:.4g}"
                 if d.truncated_at is not None else ""))
    if cfg.get("out"):
        report = {
            "config": {key: v for key, v in cfg.items() if key != "func"},
            "estimate": est.prob, "se": se, "out_of_bounds": est.out_of_bounds,
            "weights": None if est.weights_summary is None
                       else asdict(est.weights_summary),
        }
        with open(cfg["out"], "w") as fh:
            json.dump(report, fh, indent=1)
        print(cfg["out"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
