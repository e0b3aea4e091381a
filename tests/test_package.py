"""The package's public names and what importing it loads."""

import os
import pathlib
import subprocess
import sys

import casemix

ROOT = pathlib.Path(__file__).resolve().parent.parent
REMOVED = ("ocr_standardized_prob", "ipw_standardized_prob", "density_ratio_weights",
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
    # scipy.stats roughly doubles start-up time; the package needs only
    # scipy.special's chdtrc and ndtri from it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import sys, casemix.cli; print('scipy.stats' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 0, r.stderr[-2000:]
    assert r.stdout.strip() == "False"
