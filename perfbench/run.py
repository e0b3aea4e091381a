"""casemix benchmark: `casemix analyze` and `casemix simulate`, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. Each op is one CLI invocation in a fresh
child process (`child.py`), run one at a time (a closed loop with a single
client). The benchmark builds its inputs from --seed outside every timing,
runs the ops that fit in --seconds (at least MIN_OPS), checks every op's
outputs, and prints one line per metric followed by one JSON result line.

--trace 0 reports the end-to-end metrics (medians over ops). --trace 1
alternates untraced and traced ops; the traced ones time every casemix
public function from outside (`spantrace.py`) and give the per-layer
metrics, plus the tracing overhead as traced minus untraced wall time.

BLAS runs single-threaded in every child: OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS are set to 1 in its environment, and the
child reports the thread count each loaded OpenBLAS returns.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
from spantrace import self_times  # noqa: E402
from workloads import ANALYZE, WORKLOADS, smoke, write_analyze_csv  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

MIN_OPS = 3                 # timed ops per run, even when they overrun --seconds
RUN_LIMIT_S = 170.0         # every child is killed past this point of the run
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name -> (unit, better); the order is the print order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
PER_LAYER = {
    "ipd.load_s": ("s", "lower"),
    "ipd.load_rows_per_s": ("1/s", "higher"),
    "ipd.subset_calls": ("count", "lower"),
    "ipd.subset_s": ("s", "lower"),
    "ipd.mask_calls": ("count", "lower"),
    "ipd.mask_s": ("s", "lower"),
    "formula.design_calls": ("count", "lower"),
    "formula.design_s": ("s", "lower"),
    "glm.logistic_calls": ("count", "lower"),
    "glm.logistic_s": ("s", "lower"),
    "glm.multinomial_calls": ("count", "lower"),
    "glm.multinomial_s": ("s", "lower"),
    "glm.newton_iters": ("count", "lower"),
    "glm.fit_failures": ("count", "lower"),
    "glm.distinct_fit_ratio": ("ratio", "higher"),
    "transport.grid_calls": ("count", "lower"),
    "transport.grid_s": ("s", "lower"),
    "transport.effect_s": ("s", "lower"),
    "transport.control_check_s": ("s", "lower"),
    "variance.sandwich_s": ("s", "lower"),
    "variance.build_system_s": ("s", "lower"),
    "variance.bread_s": ("s", "lower"),
    "variance.meat_s": ("s", "lower"),
    "variance.theta_dim": ("count", "lower"),
    "variance.psi_bytes": ("B", "lower"),
    "variance.bootstrap_s": ("s", "lower"),
    "variance.boot_replicates": ("count", "higher"),
    "variance.boot_excluded": ("count", "lower"),
    "meta.pool_s": ("s", "lower"),
    "het.tests_s": ("s", "lower"),
    "het.tests_run": ("count", "higher"),
    "het.tests_infeasible": ("count", "lower"),
    "simlab.generate_s": ("s", "lower"),
    "simlab.oracle_s": ("s", "lower"),
    "simlab.study_s": ("s", "lower"),
    "simlab.reps_failed": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.hook_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# Exact per-op values; they must repeat between traced ops and traced runs.
EXACT = tuple(k for k, (unit, _) in PER_LAYER.items() if unit in ("count", "B"))


class RunError(Exception):
    """The benchmark cannot run here (no program to measure)."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _src_sha256() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cache_sizes() -> dict:
    out = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            res = subprocess.run(["getconf", key], capture_output=True, text=True, timeout=10)
            out[key.lower()] = int(res.stdout.strip()) if res.stdout.strip().isdigit() else None
        except (OSError, subprocess.TimeoutExpired):
            out[key.lower()] = None
    return out


def machine_facts() -> dict:
    return {"git_sha": _git_sha(), "src_sha256": _src_sha256(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "caches_bytes": _cache_sizes(), "blas_env": BLAS_ENV}


class Bench:
    """One benchmark run of one workload: inputs, ops, checks and metrics."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, smoke_mode: bool):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.ref_key = workload.name + (":smoke" if smoke_mode else "")
        tag = f"{workload.name}-seed{seed}-trace{int(trace)}" + ("-smoke" if smoke_mode else "")
        self.tag = tag
        self.work = os.path.join(WORK, f"{tag}-{os.getpid()}")
        self.outdir = os.path.join(self.work, "out")
        self.started = _now()
        self.inputs: list = []
        self.first_hashes = None
        self.reference = (check.load_reference(self.ref_key)
                          if seed == check.REFERENCE_SEED else None)

    # --- inputs ---

    def make_inputs(self) -> list:
        """casemix arguments of one op; input files are written here, before
        any timing starts."""
        w = self.w
        if w.kind == ANALYZE:
            path = os.path.join(self.work, f"{w.name}.csv")
            self.inputs.append(write_analyze_csv(w, self.seed, path))
            return ["analyze", path, *w.cli_args, "--out", self.outdir]
        return ["simulate", *w.cli_args, "--reps", str(w.reps), "--seed", str(self.seed),
                "--out", self.outdir]

    # --- ops ---

    def run_child(self, op_id: int, traced: bool, cli_args: list) -> dict:
        result_path = os.path.join(self.work, f"op{op_id}.json")
        log_path = os.path.join(self.work, f"op{op_id}.log")
        env = {**os.environ, **BLAS_ENV,
               "PYTHONPATH": SRC + (os.pathsep + os.environ["PYTHONPATH"]
                                    if os.environ.get("PYTHONPATH") else "")}
        timeout = max(1.0, RUN_LIMIT_S - (_now() - self.started))
        with open(log_path, "w") as log:
            cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path, repr(_now()),
                   str(op_id), "1" if traced else "0", SRC, "--", *cli_args]
            try:
                proc = subprocess.run(cmd, cwd=self.work, env=env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=timeout)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        if code != 0 or not os.path.isfile(result_path):
            with open(log_path) as fh:
                tail = fh.read()[-2000:]
            return {"ok": False, "errors": [f"child exit {code}: {tail}"]}
        with open(result_path) as fh:
            res = json.load(fh)
        res["ok"] = True
        res["errors"] = []
        return res

    def op(self, op_id: int, traced: bool, cli_args: list) -> dict:
        shutil.rmtree(self.outdir, ignore_errors=True)
        res = self.run_child(op_id, traced, cli_args)
        res["traced"] = traced
        if res["ok"]:
            res["errors"] = self.check_outputs(res)
            res["ok"] = not res["errors"]
        return res

    def check_outputs(self, res: dict) -> list:
        w = self.w
        errors = check.sanity_errors(w.kind, self.outdir, w.labels)
        if errors:
            return errors
        hashes = check.file_hashes(self.outdir)
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif hashes != self.first_hashes:
            errors.append("output files differ from the run's first op: " + ", ".join(
                sorted(k for k in set(hashes) | set(self.first_hashes)
                       if hashes.get(k) != self.first_hashes.get(k))))
        if self.seed == check.REFERENCE_SEED:
            values = (check.analyze_values(self.outdir) if w.kind == ANALYZE
                      else check.simulate_values(self.outdir))
            if self.reference is None:
                errors.append(f"no stored reference for {self.ref_key}")
            else:
                errors += check.compare(values, self.reference)
        if res.get("traced"):
            errors += self.check_trace(res)
        return errors

    def check_trace(self, res: dict) -> list:
        errors = []
        if res["missed_bindings"]:
            errors.append(f"tracer left unwrapped bindings: {res['missed_bindings']}")
        calls = self_times(res["trace"]["spans"])
        idle = [layer for layer in self.w.expect_layers if calls.get(layer, (0, 0))[0] == 0]
        if idle:
            errors.append(f"no traced calls in layers that must run: {idle}")
        total_self = sum(s for _, s in calls.values())
        if total_self > res["wall_s"]:
            errors.append(f"traced self times sum to {total_self} s, more than the "
                          f"op's wall time {res['wall_s']} s")
        return errors

    # --- metrics ---

    def layer_values(self, res: dict) -> dict:
        """Per-layer metrics of one traced op."""
        tr = res["trace"]
        st = self_times(tr["spans"])
        counts, maxima = tr["counts"], tr["maxima"]

        def s(name):
            return st.get(name, (0, 0.0))[1]

        def c(name):
            return st.get(name, (0, 0.0))[0]

        fits = c("glm.logistic") + c("glm.multinomial")
        return {
            "ipd.load_s": s("ipd.load"),
            "ipd.load_rows_per_s": (counts.get("ipd.load_rows", 0) / s("ipd.load")
                                    if c("ipd.load") else 0.0),
            "ipd.subset_calls": c("ipd.subset"),
            "ipd.subset_s": s("ipd.subset"),
            "ipd.mask_calls": c("ipd.mask"),
            "ipd.mask_s": s("ipd.mask"),
            "formula.design_calls": c("formula.design"),
            "formula.design_s": s("formula.design"),
            "glm.logistic_calls": c("glm.logistic"),
            "glm.logistic_s": s("glm.logistic"),
            "glm.multinomial_calls": c("glm.multinomial"),
            "glm.multinomial_s": s("glm.multinomial"),
            "glm.newton_iters": counts.get("glm.newton_iters", 0),
            "glm.fit_failures": (counts.get("glm.logistic.failed", 0)
                                 + counts.get("glm.multinomial.failed", 0)),
            "glm.distinct_fit_ratio": tr["distinct_fits"] / fits if fits else 0.0,
            "transport.grid_calls": c("transport.grid"),
            "transport.grid_s": s("transport.grid"),
            "transport.effect_s": s("transport.effect"),
            "transport.control_check_s": s("transport.control_check"),
            "variance.sandwich_s": s("variance.sandwich"),
            "variance.build_system_s": s("variance.build_system"),
            "variance.bread_s": s("variance.bread"),
            "variance.meat_s": s("variance.meat"),
            "variance.theta_dim": maxima.get("variance.theta_dim", 0),
            "variance.psi_bytes": maxima.get("variance.psi_bytes", 0),
            "variance.bootstrap_s": s("variance.bootstrap"),
            "variance.boot_replicates": counts.get("variance.boot_replicates", 0),
            "variance.boot_excluded": counts.get("variance.boot_excluded", 0),
            "meta.pool_s": s("meta.pool"),
            "het.tests_s": s("het.tests"),
            "het.tests_run": counts.get("het.tests_run", 0),
            "het.tests_infeasible": counts.get("het.tests_infeasible", 0),
            "simlab.generate_s": s("simlab.generate"),
            "simlab.oracle_s": s("simlab.oracle"),
            "simlab.study_s": s("simlab.study"),
            "simlab.reps_failed": counts.get("simlab.reps_failed", 0),
            "cli.self_s": s("cli.main"),
            "trace.hook_s": s("trace.hook"),
            "trace.wall_s": res["wall_s"],
        }

    def end_to_end(self, ops: list, setups: list) -> dict:
        ran = [r for r in ops if "wall_s" in r]
        wall = statistics.median(r["wall_s"] for r in ran)
        return {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "work_per_s": self.w.work / wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in ran),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ran),
        }

    def per_layer(self, ops: list) -> tuple:
        traced = [r for r in ops if r.get("traced") and "trace" in r]
        untraced = [r for r in ops if not r.get("traced") and "wall_s" in r]
        if not traced or not untraced:
            raise RunError("a traced run needs at least one traced and one untraced op:\n"
                           + "\n".join(e for r in ops for e in r["errors"]))
        per_op = [self.layer_values(r) for r in traced]
        errors = []
        for vals in per_op[1:]:
            moved = [k for k in EXACT if vals[k] != per_op[0][k]]
            if moved:
                errors.append(f"exact counts differ between traced ops: {moved}")
        metrics = {k: (per_op[0][k] if k in EXACT
                       else statistics.median(v[k] for v in per_op))
                   for k in per_op[0]}
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - statistics.median(r["wall_s"] for r in untraced))
        return metrics, errors

    # --- one run ---

    def run(self) -> dict:
        os.makedirs(self.work, exist_ok=True)
        cli_args = self.make_inputs()
        start = _now()
        ops: list = []
        cycles: list = []
        min_ops = 2 if self.trace else MIN_OPS
        # Start another op only while it is expected to end within --seconds,
        # so a run lasts max(--seconds, MIN_OPS ops) whatever the op length.
        while (len(ops) < min_ops
               or _now() - start + statistics.median(cycles) <= self.seconds):
            traced = self.trace and len(ops) % 2 == 1
            t = _now()
            ops.append(self.op(len(ops) + 1, traced, cli_args))
            cycles.append(_now() - t)
        setups = [r["setup_s"] for r in ops if "setup_s" in r]
        if not any("wall_s" in r for r in ops):
            raise RunError("no op completed:\n" + "\n".join(e for r in ops for e in r["errors"]))
        errors = []
        if self.trace:
            metrics, errors = self.per_layer(ops)
            units = PER_LAYER
        else:
            metrics = self.end_to_end(ops, setups)
            units = END_TO_END
        failed = sum(1 for r in ops if not r["ok"])
        return {"ops": ops, "setups": setups, "metrics": metrics, "units": units,
                "failed": failed, "errors": errors}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "casemix", "__init__.py")):
        print(f"error: no casemix sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.smoke:
        w = smoke(w)
    bench = Bench(w, args.seed, args.seconds, bool(args.trace), args.smoke)
    try:
        out = bench.run()
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    ops = out["ops"]
    for i, r in enumerate(ops, start=1):
        for e in r["errors"]:
            print(f"op {i} failed check: {e}", file=sys.stderr)
    for e in out["errors"]:
        print(f"trace check failed: {e}", file=sys.stderr)
    facts = machine_facts()
    first = next(r for r in ops if "wall_s" in r)
    facts.update({k: first[k] for k in ("python", "numpy", "scipy", "blas")})
    facts.update({"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "smoke": args.smoke, "K": w.K, "n": w.n,
                  "reps": w.reps, "work_per_op": w.work, "work_unit": w.work_unit,
                  "casemix_args": list(w.cli_args), "inputs": bench.inputs})

    timed = [r["wall_s"] for r in ops if "wall_s" in r]
    print(f"workload {w.name}: {len(ops)} ops, {out['failed']} failed; "
          f"set-up samples {len(out['setups'])}; "
          f"op wall samples {sorted(round(t, 4) for t in timed)}")
    print(f"failed_frac = {out['failed'] / len(ops):.4g} ({out['failed']}/{len(ops)} ops)")
    for name, value in out["metrics"].items():
        print(f"{name} = {value:.6g} {out['units'][name][0]}")
    print("facts: " + json.dumps(facts, sort_keys=True))

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, bench.tag + ".json"), "w") as fh:
        json.dump({"facts": facts, "metrics": out["metrics"], "ops": ops,
                   "setups": out["setups"]}, fh)

    result = {
        "correct": out["failed"] == 0 and not out["errors"],
        "attempted": len(ops),
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": out["units"][k][0]}
                    for k, v in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
