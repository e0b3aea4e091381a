"""Output checks for one op.

Every op is checked three ways:

* the expected files exist and hold finite numbers (analyze: effects with
  finite SEs and test p-values; simulate: no failed replication and finite
  bias tables);
* its output files are byte-identical to the first op of the run;
* at the reference seed, its key values match `reference.json` to 1e-8
  relative (analyze: effect points and `se_transformed`, test p-values;
  simulate: the bias, variance and rejection tables of `report.json`).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

from workloads import ANALYZE

REFERENCE_SEED = 0
REL_TOL = 1e-8
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

ANALYZE_FILES = ("effects.csv", "het_tests.csv", "diagnostics.json")
SIMULATE_FILES = ("tables2.csv", "tables3.csv", "table4.csv", "table5.csv", "report.json")


def _csv_rows(path: str) -> list:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def file_hashes(outdir: str) -> dict:
    hashes = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def analyze_values(outdir: str) -> dict:
    """Reference keys of an analyze op: effect points, SEs and test p-values."""
    values = {}
    for row in _csv_rows(os.path.join(outdir, "effects.csv")):
        cell = f"({row['target_j']},{row['source_k']})"
        for col in ("point", "transformed", "se_transformed"):
            values[f"effects{cell}.{col}"] = float(row[col])
    for row in _csv_rows(os.path.join(outdir, "het_tests.csv")):
        values[f"het[{row['hypothesis']}].p_value"] = float(row["p_value"])
    return values


def simulate_values(outdir: str) -> dict:
    """Reference keys of a simulate op: bias, variance and rejection tables."""
    with open(os.path.join(outdir, "report.json")) as fh:
        report = json.load(fh)
    values = {}
    tables = (("probability_bias", ("analysis", "target_j", "source_k", "arm_x"),
               ("mean", "bias")),
              ("effect_bias", ("analysis", "measure", "target_j", "source_k"),
               ("mean", "bias")),
              ("variance", ("analysis", "measure", "target_j", "source_k"),
               ("mcv", "mev", "btv")),
              ("rejection", ("analysis", "variance", "measure", "test"),
               ("n_feasible", "n_reject")))
    for table, keys, cols in tables:
        for row in report[table]:
            name = table + "[" + ",".join(str(row[k]) for k in keys) + "]"
            for col in cols:
                values[f"{name}.{col}"] = float(row[col])
    return values


def sanity_errors(kind: str, outdir: str, labels: tuple) -> list:
    """Problems visible without a reference: missing files, non-finite numbers,
    failed replications."""
    expected = (ANALYZE_FILES + tuple(f"forest_{j}.csv" for j in labels)
                if kind == ANALYZE else SIMULATE_FILES)
    missing = [f for f in expected if not os.path.isfile(os.path.join(outdir, f))]
    if missing:
        return [f"missing output files: {missing}"]
    errors = []
    if kind == ANALYZE:
        rows = _csv_rows(os.path.join(outdir, "effects.csv"))
        if len(rows) != len(labels) ** 2:
            errors.append(f"effects.csv has {len(rows)} rows, expected {len(labels) ** 2}")
        bad = [f"({r['target_j']},{r['source_k']})" for r in rows
               if not all(math.isfinite(float(r[c]))
                          for c in ("point", "transformed", "se_transformed"))]
        if bad:
            errors.append(f"non-finite effect or SE in cells {bad}")
        tests = _csv_rows(os.path.join(outdir, "het_tests.csv"))
        if not tests or not all(math.isfinite(float(t["p_value"])) for t in tests):
            errors.append("het_tests.csv is empty or has non-finite p-values")
    else:
        with open(os.path.join(outdir, "report.json")) as fh:
            report = json.load(fh)
        failed = {k: v for k, v in report["failure_counts"].items() if v}
        if failed:
            errors.append(f"failed replications: {failed}")
        bias = [float(r["bias"]) for r in report["effect_bias"]]
        if not bias or not all(math.isfinite(b) for b in bias):
            errors.append("effect bias table is empty or non-finite")
    return errors


def compare(values: dict, reference: dict, rel_tol: float = REL_TOL) -> list:
    """Keys whose value differs from the reference by more than rel_tol
    (relative to the larger magnitude); NaN matches only NaN."""
    errors = []
    if set(values) != set(reference):
        errors.append(f"keys differ from reference: "
                      f"{sorted(set(values) ^ set(reference))[:5]}")
    for key in sorted(set(values) & set(reference)):
        a, b = values[key], reference[key]
        b = float("nan") if b is None else float(b)
        if math.isnan(a) and math.isnan(b):
            continue
        if not abs(a - b) <= rel_tol * max(abs(a), abs(b)):
            errors.append(f"{key}: {a!r} vs reference {b!r}")
    return errors


def load_reference(key: str):
    """Stored reference values for a workload key, or None."""
    if not os.path.isfile(REFERENCE_FILE):
        return None
    with open(REFERENCE_FILE) as fh:
        return json.load(fh).get(key)
