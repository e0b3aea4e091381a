"""Command-line entry point.

Three subcommands: `simulate` runs a replication study of one of the
built-in settings 1..5, `analyze` runs the full pipeline on an IPD CSV
(standardize, covariance, pool, test), and `transport` reports one cell of
the grid `analyze` computes from the same options. Runs are reproducible: the
seed is part of the interface, and every output file embeds the resolved
configuration. A JSON config file can supply any option of its command and
nothing else. Its values are parsed as their flags are: each key becomes the
flag's `--flag=value` token ahead of the command line, so explicit flags win,
and a switch such as `expit_weight` takes `true` or `false`. A generic setting
runs through `casemix.simlab.run_study` with explicit `Analysis` objects.

Exit codes: 0 success, 1 configuration or data error (a bad config key or
value names the key), 2 statistical failure threshold breached (simulate: more
than 10% of replications failed). A usage error in the flags themselves also
exits 2, as argparse does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np

from . import het, meta
from .errors import CasemixError
from .formula import Intercept, ModelFormula, parse as parse_formula
from .glm import backward_eliminate
from .ipd import load_ipd
from .simlab import SettingConfig, preset_config, run_study, write_csv
from .transport import (
    LOG_MEASURES,
    MEASURES,
    METHODS,
    OCR,
    POSITIVITY_THRESHOLD,
    GridSettings,
    common_control_check,
    effect_matrix,
    standardized_grid,
    to_natural,
)
from .variance import attach_covariance, bootstrap_cov, build_system, sandwich_cov

FAILURE_RATE_LIMIT = 0.10
PRESETS = {str(p): p for p in range(1, 6)}      # the built-in settings by --preset label


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    try:
        if args.config:         # the file's flags go ahead of the command line's, which win
            at = argv.index(args.command) + 1
            conf = _config_argv(commands[args.command], args.config)
            args = parser.parse_args([*argv[:at], *conf, *argv[at:]])
        # the command's resolved options, as every output file records them
        return args.func({k: v for k, v in vars(args).items()
                          if k not in ("func", "command", "config")})
    except (CasemixError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _build_parser() -> tuple:
    """The top-level parser and each subcommand's parser by name. Each
    option's type, choices and default are stated here once, for flags and
    config files alike."""
    p = argparse.ArgumentParser(
        prog="casemix",
        description="Standardize trial effects across populations, pool them, "
                    "and decompose heterogeneity.")
    sub = p.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="run a replication study of a setting")
    sim.add_argument("--preset", choices=PRESETS,
                     help="built-in setting 1..5; a generic setting runs through "
                          "casemix.simlab.run_study with explicit Analysis objects")
    sim.add_argument("--config", help="JSON file with any option (flags win)")
    sim.add_argument("--analyses", default="OCR1,IPW1", help="comma list, e.g. OCR1,IPW1")
    sim.add_argument("--reps", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--bootstrap-b", type=int)
    sim.add_argument("--n-total", type=int)
    sim.add_argument("--oracle-runs", type=int)
    sim.add_argument("--alpha", type=float)
    sim.add_argument("--s2-shift", choices=["intercept", "treatment"])
    sim.add_argument("--out", default="casemix-out")
    sim.set_defaults(func=cmd_simulate)

    ana = _add_model_args(sub.add_parser("analyze", help="full pipeline on an IPD CSV"),
                          "IPD CSV: study,treat,outcome,<covariates>")
    ana.add_argument("--measure", choices=MEASURES, default="rr")
    ana.add_argument("--variance", choices=["sandwich", "bootstrap"], default="sandwich")
    ana.add_argument("--bootstrap-b", type=int, default=200)
    ana.add_argument("--seed", type=int, default=0)
    ana.add_argument("--eliminate", help="comma list of candidate terms for "
                                         "backward elimination, e.g. treat:L,L^2")
    ana.add_argument("--alpha", type=float, default=0.05)
    ana.add_argument("--tau2-method", choices=["dl", "reml"], default="dl")
    ana.add_argument("--out", default="casemix-out")
    ana.set_defaults(func=cmd_analyze)

    tra = _add_model_args(sub.add_parser("transport", help="one standardized probability"),
                          "IPD CSV")
    tra.add_argument("--target", help="target population label j")
    tra.add_argument("--source", help="source trial label k")
    tra.add_argument("--arm", type=int, choices=[0, 1], help="treatment arm x")
    tra.add_argument("--out", help="optional JSON report path")
    tra.set_defaults(func=cmd_transport)
    return p, sub.choices


def _add_model_args(parser: argparse.ArgumentParser, input_help: str):
    """The input and model options that `analyze` and `transport` share."""
    parser.add_argument("input", help=input_help)
    parser.add_argument("--config", help="JSON file with any option (flags win)")
    parser.add_argument("--method", choices=METHODS)
    parser.add_argument("--outcome-formula")
    parser.add_argument("--ps-formula")
    parser.add_argument("--ps-mode", choices=["pairwise", "multinomial"],
                        help="membership logit over all trials (multinomial, the "
                             "default) or one per pair of trials; the same fit at K=2")
    parser.add_argument("--expit-weight", action="store_true")
    parser.add_argument("--truncate-percentile", type=float, default=95.0)
    parser.add_argument("--positivity-threshold", type=float, default=POSITIVITY_THRESHOLD)
    return parser


def _config_argv(parser: argparse.ArgumentParser, path: str) -> list:
    """A JSON config file as `--flag=value` tokens of the command's own flags.
    Each value meets its option's action, type and choices here, so an error
    names its key: a switch takes a JSON boolean, any other option a string
    or a number."""
    with open(path) as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise ValueError(f"config file {path} must hold one JSON object")
    options = {a.dest: a for a in parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    unknown = set(conf) - set(options)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    argv = []
    for key, value in conf.items():
        action = options[key]
        flag = action.option_strings[0]
        if action.nargs == 0 and isinstance(value, bool):
            argv += [flag] * value
        elif action.nargs != 0 and type(value) in (str, int, float) and _parses(action, value):
            argv.append(f"{flag}={value}")
        else:
            raise ValueError(f"config key {key!r}: {json.dumps(value)} is not a valid "
                             f"{flag} value")
    return argv


def _parses(action: argparse.Action, value) -> bool:
    """Whether `value` as text passes the option's type and choices."""
    try:
        parsed = (action.type or str)(str(value))
    except ValueError:
        return False
    return action.choices is None or parsed in action.choices


def _setting_from(cfg: dict) -> SettingConfig:
    if cfg["preset"] is None:
        raise ValueError("a preset is required (--preset or config)")
    kw = {"s2_shift": cfg["s2_shift"]} if cfg["s2_shift"] else {}
    return preset_config(PRESETS[cfg["preset"]], n_total=cfg["n_total"], **kw)


def cmd_simulate(cfg: dict) -> int:
    if cfg["seed"] is None:
        raise ValueError("simulate requires an explicit --seed")
    setting = _setting_from(cfg)
    analyses = [a.strip() for a in cfg["analyses"].split(",") if a.strip()]
    # run_study's signature states and records the defaults of these four
    report = run_study(setting, analyses, seed=cfg["seed"], **{
        k: cfg[k] for k in ("reps", "bootstrap_b", "oracle_runs", "alpha") if cfg[k] is not None})
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


def _settings_from(cfg: dict) -> GridSettings:
    """The grid settings of `analyze` or `transport`, checked before any data
    is read; only the formula the method uses is parsed."""
    method = cfg["method"]
    if method is None:
        raise ValueError(f"--method is required ({', '.join(METHODS)})")
    key = "outcome_formula" if method == OCR else "ps_formula"
    formula = parse_formula(cfg[key]) if cfg[key] else None
    return GridSettings(method, **{key: formula}, ps_mode=cfg["ps_mode"],
                        truncation=cfg["truncate_percentile"],
                        expit_weight=cfg["expit_weight"],
                        positivity_threshold=cfg["positivity_threshold"])


def _candidate_terms(spec: str) -> list:
    return [parse_formula("y ~ 0 + " + tok.strip()).terms[0]
            for tok in spec.split(",") if tok.strip()]


def _without_terms(formula, candidates):
    """Base model for elimination: the given formula minus the candidates."""
    drop = {t.label() for t in candidates}
    kept = [t for t in formula.terms
            if isinstance(t, Intercept) or t.label() not in drop]
    return ModelFormula(kept, response=formula.response)


def cmd_analyze(cfg: dict) -> int:
    settings = _settings_from(cfg)
    if not 0 < cfg["alpha"] < 1:
        raise ValueError(f"--alpha must be in (0, 1), not {cfg['alpha']}")
    if cfg["variance"] == "bootstrap" and cfg["bootstrap_b"] < 2:
        raise ValueError(f"--bootstrap-b must be at least 2, not {cfg['bootstrap_b']}")
    candidates = _candidate_terms(cfg["eliminate"]) if cfg["eliminate"] else None
    ds = load_ipd(cfg["input"])
    alpha = cfg["alpha"]

    # control-arm exchangeability: intercept + all covariate mains
    control = parse_formula("y ~ 1 + " + " + ".join(ds.schema.names))
    control_report = common_control_check(ds, control, alpha=alpha)

    eliminated_to = None
    if candidates is not None:
        key, target = (("outcome_formula", "outcome-model") if settings.method == OCR
                       else ("ps_formula", "membership-model"))
        base = _without_terms(getattr(settings, key), candidates)
        settings = replace(settings, **{key: backward_eliminate(ds, base, candidates,
                                                                alpha=alpha, target=target)})
        eliminated_to = getattr(settings, key).text()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        grid = standardized_grid(ds, settings)
        matrix = effect_matrix(grid, cfg["measure"], collect_errors=True)
        if cfg["variance"] == "sandwich":
            covres = sandwich_cov(grid, measures=(cfg["measure"],))
        else:
            covres = bootstrap_cov(grid, measures=(cfg["measure"],),
                                   B=cfg["bootstrap_b"], seed=cfg["seed"])
    attach_covariance(matrix, covres)
    warned = sorted({str(w.message) for w in caught})

    pooled = meta.pool_matrix(matrix, tau2_method=cfg["tau2_method"])
    tests = het.all_tests(matrix)

    tables = {"effects.csv": []}              # output file -> its rows
    for (j, k) in matrix.cell_order():
        cell = matrix.cells[(j, k)]
        se = cell.se_transformed
        lo = hi = float("nan")
        if se is not None and cell.defined:
            lo = to_natural(matrix.measure, cell.transformed_point - meta.Z975 * se)
            hi = to_natural(matrix.measure, cell.transformed_point + meta.Z975 * se)
        tables["effects.csv"].append({
            "target_j": j, "source_k": k, "measure": matrix.measure,
            "prob1": cell.prob1, "prob0": cell.prob0,
            "point": cell.point, "transformed": cell.transformed_point,
            "se_transformed": float("nan") if se is None else se,
            "ci_lower": lo, "ci_upper": hi,
            "defined": cell.defined, "note": cell.note,
        })
    for j, summary in pooled.items():
        rows = tables[f"forest_{j}.csv"] = meta.forest_rows(summary)
        if matrix.measure in LOG_MEASURES:
            for row in rows:
                for key in ("point", "ci_lower", "ci_upper"):
                    row[f"{key}_natural"] = to_natural(matrix.measure, row[key])
    tables["het_tests.csv"] = het.report_records(tests)
    os.makedirs(cfg["out"], exist_ok=True)
    written = [os.path.join(cfg["out"], name) for name in [*tables, "diagnostics.json"]]
    for path, rows in zip(written, tables.values()):
        write_csv(path, rows, cfg)

    diagnostics = {
        "config": cfg,
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
        diagnostics["bootstrap_failures"] = covres.failures
    else:
        diagnostics["bread_condition_number"] = covres.bread_condition
    with open(written[-1], "w") as fh:
        json.dump(diagnostics, fh, indent=1)
    for path in written:
        print(path)
    if diagnostics["positivity_flag"]:
        print(f"warning: transport weights exceed {settings.positivity_threshold:g}; "
              "possible positivity violation (see diagnostics.json)")
    return 0


def cmd_transport(cfg: dict) -> int:
    for key in ("target", "source", "arm"):
        if cfg[key] is None:
            raise ValueError(f"--{key} is required")
    settings = _settings_from(cfg)
    ds = load_ipd(cfg["input"])
    j, k, x = cfg["target"], cfg["source"], cfg["arm"]
    ds.study_number(j)
    ds.study_number(k)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        grid = standardized_grid(ds, settings)
        est = grid[(j, k, x)]
        se = float("nan")
        se_note = ""
        try:
            system = build_system(grid)
            sigma = system.sandwich()
            row = system.prob_rows[(j, k, x)]
            v = sigma[row, row]
            se = float(np.sqrt(v)) if v >= 0 else float("nan")
        except CasemixError as e:
            se_note = f" (no sandwich SE: {e})"
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)

    print(f"P(Y({x}_{k})=1 | S={j}) = {est.prob:.6f}  se={se:.6f}{se_note}")
    if est.out_of_bounds:
        print("estimate is outside [0,1]")
    if est.weights_summary is not None:
        d = est.weights_summary
        print(f"weights: max={d.max:.4g} p95={d.p95:.4g} ess={d.ess:.1f} "
              f"over_threshold={d.n_over_threshold}"
              + (f" truncated_at={d.truncated_at:.4g}"
                 if d.truncated_at is not None else ""))
    if cfg["out"]:
        report = {
            "config": cfg,
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
