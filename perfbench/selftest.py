"""The benchmark's own tests, at smoke sizes (n=2000, 2 replications, B=4).

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

The file is not named test_*.py, so the repository's test suite does not
collect it; it starts about 30 child processes and takes a minute or two.
"""

import copy
import functools
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, smoke  # noqa: E402

SECONDS = "0.5"


@functools.lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int, repeat: int = 0) -> tuple:
    """(result line, stdout, run record) of one smoke run; `repeat` tells
    otherwise identical runs apart."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
                           "--smoke"], cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    tag = f"{workload}-seed{seed}-trace{trace}-smoke"
    with open(os.path.join(run.OUT, tag + ".json")) as fh:
        record = json.load(fh)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout, record


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: u for k, (u, _) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (u, _) in run.PER_LAYER.items()}
    assert {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]} == {
        k: b for k, (_, b) in {**run.END_TO_END, **run.PER_LAYER}.items()}


def test_every_metric_is_printed_with_its_unit():
    for name in WORKLOADS:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            result, stdout, _ = bench(name, check.REFERENCE_SEED, trace)
            assert result["correct"] and result["failed"] == 0, (name, trace, stdout)
            assert result["attempted"] >= (2 if trace else run.MIN_OPS)
            assert list(result["metrics"]) == list(table)
            lines = stdout.splitlines()
            for metric, (unit, _) in table.items():
                assert result["metrics"][metric]["unit"] == unit
                assert any(ln.startswith(f"{metric} = ") and ln.endswith(f" {unit}")
                           for ln in lines), (name, metric)
            assert any(ln.startswith("failed_frac = ") for ln in lines)


def test_traced_self_times_stay_within_traced_wall():
    for name in WORKLOADS:
        _, _, record = bench(name, check.REFERENCE_SEED, 1)
        traced = [op for op in record["ops"] if op["traced"]]
        assert traced
        for op in traced:
            assert op["missed_bindings"] == []
            total = sum(s for _, s in run.self_times(op["trace"]["spans"]).values())
            assert 0 < total <= op["wall_s"]


def test_exact_counts_repeat_between_traced_runs():
    for name in WORKLOADS:
        first = bench(name, check.REFERENCE_SEED, 1)[0]["metrics"]
        second = bench(name, check.REFERENCE_SEED, 1, repeat=1)[0]["metrics"]
        for metric in run.EXACT:
            assert first[metric]["value"] == second[metric]["value"], (name, metric)
        expected = set(WORKLOADS[name].expect_layers)
        if "glm.logistic" in expected:
            assert first["glm.logistic_calls"]["value"] > 0
        if "glm.multinomial" in expected:
            assert first["glm.multinomial_calls"]["value"] > 0
        assert first["transport.grid_calls"]["value"] > 0


def test_other_seed_checks_without_reference():
    result, stdout, _ = bench("analyze-ocr-k5", check.REFERENCE_SEED + 7, 0)
    assert result["correct"] and result["failed"] == 0, stdout


def test_perturbed_reference_fails_every_op():
    for name, w in WORKLOADS.items():
        b = run.Bench(smoke(w), check.REFERENCE_SEED, 0.0, False, True)
        assert b.reference
        key = next(k for k, v in sorted(b.reference.items()) if v == v and v != 0)
        b.reference = copy.deepcopy(b.reference)
        b.reference[key] = b.reference[key] * (1 + 1e-6) + 1e-12
        try:
            out = b.run()
        finally:
            shutil.rmtree(b.work, ignore_errors=True)
        assert out["failed"] == len(out["ops"]) > 0, name
        assert all(any(key in e for e in op["errors"]) for op in out["ops"]), name


def test_compare_tolerance():
    ref = {"a": 1.0, "b": float("nan"), "c": -2.5}
    assert check.compare({"a": 1.0 + 1e-12, "b": float("nan"), "c": -2.5}, ref) == []
    assert check.compare({"a": 1.0 + 1e-7, "b": float("nan"), "c": -2.5}, ref)
    assert check.compare({"a": 1.0, "b": 0.0, "c": -2.5}, ref)
    assert check.compare({"a": 1.0, "b": float("nan")}, ref)


def test_exits_nonzero_without_the_program():
    bare = os.path.join(run.WORK, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate-boot",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    failures = 0
    for test_name, fn in list(globals().items()):
        if test_name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {test_name}")
            except Exception as e:  # report every failing test, then exit nonzero
                failures += 1
                print(f"FAIL {test_name}: {type(e).__name__}: {e}")
    sys.exit(1 if failures else 0)
