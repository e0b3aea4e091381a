"""Check that two casemix checkouts write byte-identical output files.

    python3 tools/same_outputs.py OLD_ROOT NEW_ROOT [--smoke] [--work DIR]

Each root is a checkout whose `src/casemix` is run. The analyze inputs are
written once, by the benchmark's own generator (`write_analyze_csv` in this
checkout's `perfbench/workloads.py`) at a reduced size, and both trees read
the same files. Each tree then runs, one fresh process per command:

* `analyze` with each analyze workload's arguments;
* one bootstrap `analyze` (unstabilized IPW, OR, B = 20) on the first input;
* `transport --out` on each analyze input, with its workload's model;
* `simulate` with each simulate workload's arguments at a few replications;
* `simulate` of presets 3 and 5 at a small size, whose replications reach
  the report's rarer paths: failed and out-of-bounds replications, a cell
  override and stabilized IPW;
* with `--ps-mode pairwise`, one membership model per pair of trials: the
  `analyze` and `transport` runs of each analyze workload that fits a
  membership model, and the bootstrap run;

each at seeds 0 and 1. Every output embeds its `--out` path, so the trees
write to the same paths, one tree after the other. Each command's stdout,
stderr and exit code are compared as files too. The script prints each file
that differs or that one tree lacks, and each command that did not exit 0,
and then exits 1; it exits 0 when every run succeeded and every file is
byte-identical. Under each differing `.csv` or `.json` file it says how far
the values moved: how many numeric values differ and their largest relative
difference, or that the files differ in more than their numbers.

`--smoke` uses the benchmark's smoke sizes. `--work DIR` keeps the inputs
and both trees' outputs (`DIR/old`, `DIR/new`); by default they go to a
temporary directory that is removed. BLAS runs on one thread, as in the
benchmark, so no sum depends on thread scheduling.
"""

from __future__ import annotations

import argparse
import dataclasses
import filecmp
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import ANALYZE, WORKLOADS, smoke, write_analyze_csv  # noqa: E402

SEEDS = (0, 1)
ANALYZE_N = 20_000                  # rows of each analyze input
SIMULATE_REPS = 4
RARE_SIMULATE = {"simulate-preset3": ("--preset", "3", "--analyses", "OCR1,IPW1,IPW1S"),
                 "simulate-preset5": ("--preset", "5", "--analyses", "OCR1,IPW1,OCR3")}
RARE_SIZE = ("--n-total", "300", "--bootstrap-b", "10", "--oracle-runs", "50")
RARE_REPS, RARE_SMOKE_REPS = 10, 2     # `simulate` exits 2 when over 10% of reps fail
BOOTSTRAP = ("--method", "ipw", "--ps-formula", "study ~ 1 + L1 + L2", "--measure", "or",
             "--variance", "bootstrap", "--bootstrap-b", "20")
TRANSPORT_CELL = ("--target", "2", "--source", "1", "--arm", "1")
PAIRWISE = ("--ps-mode", "pairwise")
ANALYZE_ONLY = ("--measure", "--variance")     # analyze options that transport lacks
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKERS = 2
CHILD = "import sys, casemix.cli; sys.exit(casemix.cli.main(sys.argv[1:]))"


def _model_args(args) -> list:
    """An analyze workload's arguments less the options `transport` lacks."""
    out, it = [], iter(args)
    for arg in it:
        if arg in ANALYZE_ONLY:
            next(it)
        else:
            out.append(arg)
    return out


def commands(work: str, smoke_sizes: bool) -> dict:
    """Run name -> casemix arguments of every run; writes the analyze inputs
    under `work/inputs`. Outputs go under `work/out`."""
    out, runs = os.path.join(work, "out"), {}
    for seed in SEEDS:
        inputs = []
        for w in WORKLOADS.values():
            w = smoke(w) if smoke_sizes else w
            tag = f"{w.name}-seed{seed}"
            if w.kind == ANALYZE:
                w = w if smoke_sizes else dataclasses.replace(w, n=ANALYZE_N)
                path = os.path.join(work, "inputs", f"{tag}.csv")
                write_analyze_csv(w, seed, path)
                inputs.append(path)
                # pairwise mode only changes a grid with a membership model
                modes = ((), PAIRWISE) if "--ps-formula" in w.cli_args else ((),)
                for mode in modes:
                    name = f"{w.name}-pairwise-seed{seed}" if mode else tag
                    runs[name] = ["analyze", path, *w.cli_args, *mode, "--seed", str(seed),
                                  "--out", os.path.join(out, name)]
                    runs[f"transport-{name}"] = [
                        "transport", path, *_model_args(w.cli_args), *mode, *TRANSPORT_CELL,
                        "--out", os.path.join(out, f"transport-{name}.json")]
            else:
                reps = w.reps if smoke_sizes else SIMULATE_REPS
                runs[tag] = ["simulate", *w.cli_args, "--reps", str(reps), "--seed", str(seed),
                             "--out", os.path.join(out, tag)]
        for kind, args in RARE_SIMULATE.items():
            tag = f"{kind}-seed{seed}"
            reps = RARE_SMOKE_REPS if smoke_sizes else RARE_REPS
            runs[tag] = ["simulate", *args, *RARE_SIZE, "--reps", str(reps),
                         "--seed", str(seed), "--out", os.path.join(out, tag)]
        for mode, name in (((), f"bootstrap-seed{seed}"),
                           (PAIRWISE, f"bootstrap-pairwise-seed{seed}")):
            runs[name] = ["analyze", inputs[0], *BOOTSTRAP, *mode, "--seed", str(seed),
                          "--out", os.path.join(out, name)]
    return runs


def run_tree(root: str, runs: dict, work: str, name: str) -> str:
    """Every run on `root`'s sources; returns `work/name`, which holds the
    outputs and each run's `.stdout`, `.stderr` and `.exit` files."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "casemix", "cli.py")):
        raise SystemExit(f"error: no casemix sources under {src}")
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": src}

    def run(item):
        run_name, args = item
        proc = subprocess.run([sys.executable, "-c", CHILD, *args], cwd=work, env=env,
                              capture_output=True)
        for suffix, data in ((".stdout", proc.stdout), (".stderr", proc.stderr),
                             (".exit", b"%d\n" % proc.returncode)):
            with open(os.path.join(out, run_name + suffix), "wb") as fh:
                fh.write(data)

    with ThreadPoolExecutor(WORKERS) as pool:
        list(pool.map(run, runs.items()))
    kept = os.path.join(work, name)
    shutil.rmtree(kept, ignore_errors=True)
    os.rename(out, kept)
    return kept


def _files(top: str) -> set:
    return {os.path.relpath(os.path.join(d, f), top) for d, _, fs in os.walk(top) for f in fs}


def differences(old: str, new: str) -> list:
    """Lines naming each file that differs between two output trees or
    that one of them lacks."""
    a, b = _files(old), _files(new)
    lines = [f"only in old: {p}" for p in sorted(a - b)]
    lines += [f"only in new: {p}" for p in sorted(b - a)]
    lines += [f"differs: {p}" for p in sorted(a & b) if not filecmp.cmp(
        os.path.join(old, p), os.path.join(new, p), shallow=False)]
    return lines


# a CSV or JSON file's tokens: what lies between its delimiters and quotes
_TOKEN_SEPARATORS = re.compile(r'[\s,:\[\]{}"]+')


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def numeric_change(old_file: str, new_file: str) -> str:
    """How far two CSV or JSON files' numbers moved, one line: how many
    numeric values differ and their largest relative difference,
    |a - b| / max(|a|, |b|) (inf where one value is NaN or infinite and the
    other is not). Files whose other tokens or token counts differ are
    reported as such."""
    with open(old_file, encoding="utf-8") as fa, open(new_file, encoding="utf-8") as fb:
        a, b = (_TOKEN_SEPARATORS.split(fh.read()) for fh in (fa, fb))
    if len(a) != len(b):
        return f"{len(a)} and {len(b)} tokens: not comparable value by value"
    numeric = changed = other = 0
    largest = 0.0
    for ta, tb in zip(a, b):
        x, y = _number(ta), _number(tb)
        if x is None or y is None:
            other += ta != tb
            continue
        numeric += 1
        if ta == tb:
            continue
        changed += 1
        if x == y or (math.isnan(x) and math.isnan(y)):
            rel = 0.0
        elif math.isfinite(x) and math.isfinite(y):
            rel = abs(x - y) / max(abs(x), abs(y))
        else:
            rel = math.inf
        largest = max(largest, rel)
    line = (f"{changed} of {numeric} numeric values differ, "
            f"largest relative difference {largest:.3g}")
    return line + (f"; {other} other tokens differ" if other else "")


def report(old: str, new: str) -> list:
    """`differences`, each differing CSV or JSON file followed by an
    indented line of `numeric_change`."""
    lines = []
    for line in differences(old, new):
        lines.append(line)
        path = line[len("differs: "):]
        if line.startswith("differs: ") and path.endswith((".csv", ".json")):
            lines.append("  " + numeric_change(os.path.join(old, path),
                                               os.path.join(new, path)))
    return lines


def failures(top: str) -> list:
    """Lines naming each run of an output tree that did not exit 0."""
    lines = []
    for p in sorted(_files(top)):
        if p.endswith(".exit"):
            with open(os.path.join(top, p)) as fh:
                code = fh.read().strip()
            if code != "0":
                lines.append(f"failed: {p[:-len('.exit')]} (exit {code})")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_root")
    ap.add_argument("new_root")
    ap.add_argument("--smoke", action="store_true", help="the benchmark's smoke sizes")
    ap.add_argument("--work", help="keep inputs and outputs here")
    args = ap.parse_args(argv)
    work = os.path.abspath(args.work) if args.work else tempfile.mkdtemp(prefix="same-outputs-")
    try:
        os.makedirs(work, exist_ok=True)
        runs = commands(work, args.smoke)
        old = run_tree(args.old_root, runs, work, "old")
        new = run_tree(args.new_root, runs, work, "new")
        problems = [f"old {line}" for line in failures(old)]
        problems += [f"new {line}" for line in failures(new)] + report(old, new)
        for line in problems:
            print(line)
        print(f"{len(runs)} runs per tree, {len(_files(new))} files compared: "
              + ("FAIL" if problems else "byte-identical"))
        return 1 if problems else 0
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
