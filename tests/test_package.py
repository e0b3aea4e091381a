"""The package's public names and what importing it loads."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import casemix

ROOT = pathlib.Path(__file__).resolve().parent.parent
REMOVED = ("ocr_standardized_prob", "ipw_standardized_prob", "density_ratio_weights", "effect",
           "EmptyArm", "EmptyTarget", "ConditionNumberWarning", "IpdRecord", "predict_prob")
REMOVED_MEMBERS = {casemix.IpdDataset: ("from_records",),
                   casemix.FittedMultinomial: ("predict", "linear_predictors",
                                               "category_index")}


def test_every_export_resolves_once():
    assert len(set(casemix.__all__)) == len(casemix.__all__)
    for name in casemix.__all__:
        assert getattr(casemix, name, None) is not None, name
    for name in REMOVED:
        assert name not in casemix.__all__
        assert not hasattr(casemix, name), name


def test_removed_members_stay_gone():
    for cls, names in REMOVED_MEMBERS.items():
        for name in names:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats roughly doubles start-up time; the package now imports no
    # scipy module at all (test_cli_import_loads_no_scipy), this included
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import sys, casemix.cli; print('scipy.stats' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 0, r.stderr[-2000:]
    assert r.stdout.strip() == "False"


def _run_python(code: str, cwd=None) -> str:
    """stdout of `code` run by a fresh interpreter on this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    r = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True,
                       text=True, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    return r.stdout.strip().splitlines()[-1]


_SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_cli_import_loads_no_scipy():
    assert _run_python("import sys, casemix.cli; " + _SCIPY_LOADED) == "[]"


_WELL_POSED_RUNS = """
import sys
import numpy as np
from casemix import cli
from casemix.ipd import IpdDataset, save_ipd

rng = np.random.default_rng(3)
n = 2000
study = np.repeat([0, 1, 2], [500, 700, 800])
L = rng.normal(size=(n, 2)) + 0.3 * study[:, None]
treat = rng.integers(0, 2, n)
lp = -0.5 + 0.4 * treat + 0.6 * L[:, 0] - 0.3 * L[:, 1] + 0.2 * treat * L[:, 0]
y = (rng.random(n) < 1.0 / (1.0 + np.exp(-lp))).astype(int)
save_ipd(IpdDataset.from_arrays(["L1", "L2"], ["1", "2", "3"], study, treat, y, L), "in.csv")
runs = [
    ["analyze", "in.csv", "--method", "ocr",
     "--outcome-formula", "y ~ 1 + treat + L1 + L2 + treat:L1", "--out", "ocr"],
    ["analyze", "in.csv", "--method", "ipw-stabilized", "--ps-mode", "multinomial",
     "--ps-formula", "study ~ 1 + L1 + L2", "--out", "ipw"],
    ["simulate", "--preset", "1", "--analyses", "OCR1,IPW1", "--n-total", "400",
     "--bootstrap-b", "4", "--oracle-runs", "20", "--reps", "2", "--seed", "0",
     "--out", "sim"],
]
for argv in runs:
    assert cli.main(argv) == 0, argv
"""


def test_well_posed_runs_load_no_scipy(tmp_path):
    # every design of these runs passes the Gram rank certificate, so pivoted
    # QR, the package's one use of scipy, is never imported
    assert _run_python(_WELL_POSED_RUNS + _SCIPY_LOADED, cwd=tmp_path) == "[]"


_BOOTSTRAP_FAULTS = """
import resource, sys
from casemix.simlab import analysis_preset, generate_setting, preset_config
from casemix.transport import standardized_grid
from casemix.variance import bootstrap_cov

ds = generate_setting(preset_config(1), 0)
faults = []
for name in ("OCR1", "IPW1"):
    grid = standardized_grid(ds, analysis_preset(name, 1).settings)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    bootstrap_cov(grid, B=50, seed=1)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), max(faults))
"""


def test_library_bootstrap_reuses_its_heap_pages():
    # without scipy loaded, glibc keeps its default 128 KiB trim threshold
    # unless importing casemix raises it, and a library caller's bootstrap
    # would fault its temporaries in again on every Newton iteration (900 to
    # 3,600 faults per model without the step, at most about 180 with it)
    loaded, faults = _run_python(_BOOTSTRAP_FAULTS).rsplit(" ", 1)
    assert loaded == "[]"
    assert int(faults) < 300


_TRACED_OCR = """
import importlib, sys
from collections import Counter
import numpy as np
sys.path.insert(0, {perfbench!r})
import casemix.cli
from casemix.ipd import IpdDataset, save_ipd
from spantrace import TARGETS, Tracer

for modname, path, _ in TARGETS:
    owner = importlib.import_module(modname)
    for part in path.split("."):
        owner = getattr(owner, part)
tracer = Tracer(0)
tracer.install()
assert tracer.missed_bindings() == [], tracer.missed_bindings()

rng = np.random.default_rng(5)
n = 600
study = np.repeat([0, 1, 2], [150, 200, 250])
L = rng.normal(size=(n, 1)) + 0.3 * study[:, None]
treat = rng.integers(0, 2, n)
y = (rng.random(n) < 1.0 / (1.0 + np.exp(0.3 - 0.5 * L[:, 0] - 0.4 * treat))).astype(int)
save_ipd(IpdDataset.from_arrays(["L"], ["1", "2", "3"], study, treat, y, L), "in.csv")
assert casemix.cli.main(["analyze", "in.csv", "--method", "ocr", "--outcome-formula",
                         "y ~ 1 + treat + L", "--out", "ocr"]) == 0
calls = Counter(span[0] for span in tracer.spans)
print(calls["glm.logistic"], calls["glm.multinomial"])
"""


def test_span_tracer_binds_every_target_and_counts_each_outcome_fit_once(tmp_path):
    # the benchmark's tracer wraps public functions by name: every target
    # must resolve and be rebound everywhere casemix holds it, and an OCR
    # analysis (three outcome fits and the control check's two) is logistic
    # fits only, so no fit is counted twice through the multinomial fitter
    code = _TRACED_OCR.format(perfbench=str(ROOT / "perfbench"))
    assert _run_python(code, cwd=tmp_path) == "5 0"


def test_src_lines_lists_every_module_and_sums_them():
    # the size that ROADMAP tracks is this tool's total row
    src = ROOT / "src" / "casemix"
    r = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py")],
                       capture_output=True, text=True, check=True)
    header, *rows, total = (line.split() for line in r.stdout.splitlines())
    assert header == ["module", "physical", "code"]
    assert sorted(row[0] for row in rows) == sorted(
        str(p.relative_to(src)) for p in src.rglob("*.py"))
    for name, physical, code in rows:
        assert int(physical) == len((src / name).read_text(encoding="utf-8").splitlines())
        assert 0 < int(code) <= int(physical)
    assert total[0] == "total"
    assert [int(v) for v in total[1:]] == [sum(int(row[i]) for row in rows) for i in (1, 2)]


def test_same_outputs_passes_one_tree_against_itself_and_names_a_changed_byte(tmp_path):
    work = tmp_path / "work"
    r = subprocess.run([sys.executable, str(ROOT / "tools" / "same_outputs.py"), str(ROOT),
                        str(ROOT), "--smoke", "--work", str(work)],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr[-2000:]
    assert r.stdout.strip().endswith("byte-identical")
    old, new = work / "old", work / "new"
    exits = sorted(p.name for p in new.glob("*.exit"))
    assert exits == sorted(f"{kind}-seed{s}.exit" for s in (0, 1) for kind in (
        "analyze-ocr-k5", "analyze-ipw-k10", "bootstrap", "simulate-boot",
        "transport-analyze-ocr-k5", "transport-analyze-ipw-k10"))
    assert all(p.read_text() == "0\n" for p in new.glob("*.exit"))

    spec = importlib.util.spec_from_file_location("same_outputs",
                                                  ROOT / "tools" / "same_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.differences(str(old), str(new)) == []
    effects = new / "analyze-ocr-k5-seed0" / "effects.csv"
    data = bytearray(effects.read_bytes())
    data[-2] ^= 1                       # one bit of one byte
    effects.write_bytes(bytes(data))
    (old / "bootstrap-seed1" / "extra.txt").write_text("x")
    (new / "simulate-boot-seed0.exit").write_text("1\n")
    assert tool.differences(str(old), str(new)) == [
        "only in old: bootstrap-seed1/extra.txt",
        "differs: analyze-ocr-k5-seed0/effects.csv",
        "differs: simulate-boot-seed0.exit"]
    assert tool.failures(str(new)) == ["failed: simulate-boot-seed0 (exit 1)"]
