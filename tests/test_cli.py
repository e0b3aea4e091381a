import csv
import hashlib
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casemix import cli
from casemix.ipd import save_ipd
from casemix.simlab import generate_setting, preset_config

OCR_ARGS = ["--method", "ocr", "--outcome-formula", "y ~ 1 + treat + L + treat:L"]
IPW_ARGS = ["--method", "ipw", "--ps-formula", "study ~ 1 + L"]


from conftest import cell, dataset_from_cells, enum_dataset, oob_dataset, separated_dataset


@pytest.fixture(scope="module")
def enum_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "enum.csv"
    save_ipd(enum_dataset(), str(path))
    return str(path)


@pytest.fixture(scope="module")
def oob_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "oob.csv"
    save_ipd(oob_dataset(), str(path))
    return str(path)


def test_transport_reports_probability(enum_csv, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    rc = cli.main(["transport", enum_csv, "--target", "1", "--source", "2",
                   "--arm", "1", *IPW_ARGS, "--out", out])
    captured = capsys.readouterr()
    assert rc == 0
    assert "P(Y(1_2)=1 | S=1) = 0.450000" in captured.out
    assert "se=" in captured.out
    assert "weights: max=" in captured.out
    blob = json.load(open(out))
    assert blob["estimate"] == pytest.approx(0.45, abs=1e-10)
    assert blob["out_of_bounds"] is False
    assert blob["weights"]["max"] == pytest.approx(1.0, abs=1e-8)


def test_transport_shows_the_cell_analyze_reports(tmp_path, capsys):
    # the default 95th-percentile truncation binds on cell (1, 2); transport
    # computes the grid analyze reports from the same flags
    path = str(tmp_path / "p3.csv")
    save_ipd(generate_setting(preset_config(3, n_total=600), 3), path)
    out = str(tmp_path / "run")
    assert cli.main(["analyze", path, *IPW_ARGS, "--out", out]) == 0
    estimates = []
    for extra in ([], ["--truncate-percentile", "100"]):
        report = str(tmp_path / "cell.json")
        assert cli.main(["transport", path, *IPW_ARGS, "--target", "1", "--source", "2",
                         "--arm", "1", *extra, "--out", report]) == 0
        estimates.append(json.load(open(report))["estimate"])
    capsys.readouterr()
    with open(os.path.join(out, "effects.csv")) as fh:
        fh.readline()
        row = next(r for r in csv.DictReader(fh) if (r["target_j"], r["source_k"]) == ("1", "2"))
    assert estimates[0] == float(row["prob1"])
    assert estimates[1] != estimates[0]


def test_transport_flags_out_of_bounds(oob_csv, capsys):
    rc = cli.main(["transport", oob_csv, "--target", "1", "--source", "2",
                   "--arm", "1", *IPW_ARGS])
    captured = capsys.readouterr()
    assert rc == 0
    assert "= 1.350000" in captured.out
    assert "estimate is outside [0,1]" in captured.out


def test_transport_requires_target(enum_csv, capsys):
    rc = cli.main(["transport", enum_csv, "--source", "2", "--arm", "1",
                   *IPW_ARGS])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:")
    assert "--target is required" in captured.err


def test_transport_unknown_study(enum_csv, capsys):
    rc = cli.main(["transport", enum_csv, "--target", "7", "--source", "2",
                   "--arm", "1", *IPW_ARGS])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err


def test_analyze_sandwich_outputs(enum_csv, tmp_path, capsys):
    out = str(tmp_path / "run")
    rc = cli.main(["analyze", enum_csv, *OCR_ARGS, "--out", out])
    captured = capsys.readouterr()
    assert rc == 0
    for name in ("effects.csv", "forest_1.csv", "forest_2.csv",
                 "het_tests.csv", "diagnostics.json"):
        assert os.path.exists(os.path.join(out, name)), name
        assert os.path.join(out, name) in captured.out

    diag = json.load(open(os.path.join(out, "diagnostics.json")))
    assert diag["common_control"]["reject"] is True
    assert diag["eliminated_to"] is None
    assert diag["undefined_cells"] == []
    assert set(diag["pooled"]) == {"1", "2"}
    assert diag["pooled"]["1"]["k_used"] == 2
    assert "bootstrap_replicates" not in diag

    with open(os.path.join(out, "effects.csv")) as fh:
        assert fh.readline().startswith("# {")
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    cell12 = next(r for r in rows if r["target_j"] == "1" and r["source_k"] == "2")
    assert float(cell12["point"]) == pytest.approx(1.125, abs=1e-8)
    assert cell12["measure"] == "rr"


@pytest.mark.parametrize("args", [OCR_ARGS, IPW_ARGS], ids=["ocr", "ipw"])
def test_analyze_writes_the_bread_condition_number_after_every_other_key(enum_csv, tmp_path,
                                                                        args):
    from casemix.formula import parse
    from casemix.ipd import load_ipd
    from casemix.transport import GridSettings, standardized_grid
    from casemix.variance import build_system
    out = str(tmp_path / "run")
    assert cli.main(["analyze", enum_csv, *args, "--out", out]) == 0
    diag = json.load(open(os.path.join(out, "diagnostics.json")))
    assert list(diag) == ["config", "common_control", "eliminated_to", "weights",
                          "positivity_flag", "warnings", "undefined_cells", "pooled",
                          "bread_condition_number"]
    key = "outcome_formula" if args is OCR_ARGS else "ps_formula"
    grid = standardized_grid(load_ipd(enum_csv), GridSettings(
        args[1], **{key: parse(args[3])}, truncation=95.0))
    assert diag["bread_condition_number"] == np.linalg.cond(build_system(grid).bread())


def test_analyze_bootstrap_outputs(enum_csv, tmp_path):
    out = str(tmp_path / "boot")
    rc = cli.main(["analyze", enum_csv, *IPW_ARGS, "--variance", "bootstrap",
                   "--bootstrap-b", "24", "--seed", "5", "--out", out])
    assert rc == 0
    diag = json.load(open(os.path.join(out, "diagnostics.json")))
    assert diag["bootstrap_replicates"] == 24
    assert diag["bootstrap_excluded"]["rr"] == [0, 0, 0, 0]
    assert diag["config"]["variance"] == "bootstrap"


def test_analyze_eliminates_weak_interaction(enum_csv, tmp_path):
    out = str(tmp_path / "elim")
    rc = cli.main(["analyze", enum_csv, *OCR_ARGS, "--eliminate", "treat:L",
                   "--out", out])
    assert rc == 0
    diag = json.load(open(os.path.join(out, "diagnostics.json")))
    assert diag["eliminated_to"] == "y ~ 1 + treat + L"


def test_analyze_eliminates_aliased_membership_term(enum_csv, tmp_path):
    out = str(tmp_path / "elim-ps")
    rc = cli.main(["analyze", enum_csv, "--method", "ipw",
                   "--ps-formula", "study ~ 1 + L + L^2",
                   "--eliminate", "L^2", "--out", out])
    assert rc == 0
    diag = json.load(open(os.path.join(out, "diagnostics.json")))
    assert diag["eliminated_to"] == "study ~ 1 + L"


def test_analyze_requires_method(enum_csv, capsys):
    rc = cli.main(["analyze", enum_csv])
    captured = capsys.readouterr()
    assert rc == 1
    assert "--method is required" in captured.err


def test_analyze_ocr_rejects_an_invalid_truncation(enum_csv, capsys):
    # the default --truncate-percentile 95 is valid, and an OCR analysis ignores it
    rc = cli.main(["analyze", enum_csv, *OCR_ARGS, "--truncate-percentile", "150"])
    assert rc == 1
    assert "truncation percentile must be in (0, 100]" in capsys.readouterr().err


@pytest.mark.parametrize("args,msg", [
    (["analyze", *IPW_ARGS, "--truncate-percentile", "150"],
     "truncation percentile must be in (0, 100]"),
    (["analyze", "--method", "ocr"], "OCR needs an outcome formula"),
    (["analyze", "--method", "ipw", "--ps-formula", "study ~ 1 + treat"],
     "membership models cannot reference treat"),
    (["transport", "--target", "1", "--source", "2", "--arm", "1", "--method", "ipw"],
     "IPW needs a membership formula"),
    (["analyze", *OCR_ARGS, "--alpha", "7"], "--alpha must be in (0, 1), not 7.0"),
    (["analyze", *OCR_ARGS, "--alpha", "nan"], "--alpha must be in (0, 1), not nan"),
    (["analyze", *OCR_ARGS, "--variance", "bootstrap", "--bootstrap-b", "1"],
     "--bootstrap-b must be at least 2, not 1"),
])
def test_settings_are_checked_before_the_data_is_loaded(monkeypatch, capsys, args, msg):
    def load_ipd(*a, **kw):
        raise AssertionError("the data was loaded before the settings were checked")

    monkeypatch.setattr(cli, "load_ipd", load_ipd)
    rc = cli.main([args[0], "no-such.csv", *args[1:]])
    assert rc == 1
    assert msg in capsys.readouterr().err


def test_simulate_tiny_study(tmp_path, capsys):
    out = str(tmp_path / "sim")
    rc = cli.main(["simulate", "--preset", "1", "--reps", "2", "--seed", "1",
                   "--bootstrap-b", "0", "--oracle-runs", "20",
                   "--analyses", "OCR1", "--n-total", "300", "--out", out])
    captured = capsys.readouterr()
    assert rc == 0
    for name in ("tables2.csv", "tables3.csv", "table4.csv", "table5.csv",
                 "report.json"):
        assert os.path.exists(os.path.join(out, name))
    blob = json.load(open(os.path.join(out, "report.json")))
    assert blob["reps"] == 2
    assert blob["seed"] == 1
    assert blob["config"]["n_total"] == 300
    assert "replications failed" not in captured.out


# the label, flag and note columns; every other CSV column is numeric
TEXT_COLUMNS = {"analysis", "variance", "measure", "test", "kind", "target", "source",
                "target_j", "source_k", "defined", "note", "hypothesis", "scale",
                "feasible"}


def _numeric_fields(outdir):
    """(file, column, text) of every numeric field in the CSVs of `outdir`."""
    fields = []
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".csv"):
            with open(os.path.join(outdir, name)) as fh:
                assert fh.readline().startswith("# ")
                for row in csv.DictReader(fh):
                    fields += [(name, k, v) for k, v in row.items() if k not in TEXT_COLUMNS]
    return fields


def test_every_numeric_csv_field_parses_as_a_float(enum_csv, three_trial_ds, tmp_path,
                                                   capsys):
    runs = {}                                   # output directory -> columns it must hold
    for measure in ("rr", "rd"):
        out = str(tmp_path / measure)
        assert cli.main(["analyze", enum_csv, *OCR_ARGS, "--measure", measure,
                         "--out", out]) == 0
        runs[out] = {"ci_lower", "ci_upper", "p_value"}
    # three trials, both IPW methods and membership modes, bootstrap variance
    three = str(tmp_path / "three.csv")
    save_ipd(three_trial_ds, three)
    ps = ["--ps-formula", "study ~ 1 + L"]
    boot = ["--variance", "bootstrap", "--bootstrap-b", "4"]
    for name, args in (("ipw", ["--method", "ipw", *ps, "--ps-mode", "pairwise",
                                "--measure", "or"]),
                       ("ipw-s", ["--method", "ipw-stabilized", *ps, "--ps-mode",
                                  "multinomial", *boot, "--measure", "rd"]),
                       ("ocr", ["--method", "ocr", "--outcome-formula", "y ~ 1 + treat + L",
                                *boot])):
        out = str(tmp_path / name)
        assert cli.main(["analyze", three, *args, "--out", out]) == 0
        runs[out] = {"se_transformed", "ci_lower", "p_value"}
    out = str(tmp_path / "sim")
    assert cli.main(["simulate", "--preset", "1", "--reps", "2", "--seed", "1",
                     "--bootstrap-b", "4", "--oracle-runs", "20", "--n-total", "300",
                     "--analyses", "OCR1,IPW1,IPW1S,IPW2", "--out", out]) == 0
    capsys.readouterr()
    runs[out] = {"bias", "mcv", "btv", "reject_pct"}
    for out, columns in runs.items():
        fields = _numeric_fields(out)
        assert columns <= {column for _, column, _ in fields}
        for name, column, text in fields:
            try:
                float(text)
            except ValueError:
                pytest.fail(f"{name} {column}: {text!r}")


@pytest.mark.parametrize("args,msg", [
    (["--analyses", ","], "analyses: need at least one analysis"),
    (["--alpha", "7"], "alpha must be a number in (0, 1), not 7.0"),
    (["--bootstrap-b", "1"], "bootstrap_b must be 0 or an integer of at least 2, not 1"),
    (["--bootstrap-b", "-5"], "bootstrap_b must be 0 or an integer of at least 2, not -5"),
])
def test_simulate_rejects_a_bad_value_before_it_runs(tmp_path, capsys, args, msg):
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "--preset", "1", "--seed", "1", "--reps", "1",
                   "--oracle-runs", "5", "--out", str(out), *args])
    assert rc == 1
    assert msg in capsys.readouterr().err
    assert not out.exists()


def test_simulate_requires_seed(capsys):
    rc = cli.main(["simulate", "--preset", "1", "--reps", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "explicit --seed" in captured.err


@pytest.mark.parametrize("preset", [1, "1"], ids=["int", "str"])
def test_config_file_merging(tmp_path, preset):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "preset": preset, "seed": 9, "reps": 3, "bootstrap_b": 0,
        "analyses": "OCR1", "oracle_runs": 10, "n_total": 300,
    }))
    out = str(tmp_path / "sim")
    rc = cli.main(["simulate", "--config", str(conf), "--reps", "2",
                   "--out", out])
    assert rc == 0
    blob = json.load(open(os.path.join(out, "report.json")))
    assert blob["reps"] == 2          # explicit flag beats the config file
    assert blob["seed"] == 9          # config fills what flags leave unset


@pytest.mark.parametrize("args,conf,unknown", [
    (["simulate"], {"preset": 1, "seed": 1, "repz": 5, "workers": 2}, "['repz', 'workers']"),
    # a config holds its own command's options, not another command's
    (["analyze", "x.csv"], {"preset": 1}, "['preset']"),
    (["transport", "x.csv"], {"trials": 3}, "['trials']"),
    (["simulate"], {"preset": 1, "seed": 1, "input": "x.csv"}, "['input']"),
], ids=["simulate", "analyze", "transport", "simulate-input"])
def test_config_unknown_key_rejected(tmp_path, capsys, args, conf, unknown):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    rc = cli.main([*args, "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"unknown config keys: {unknown}" in captured.err


@pytest.fixture(scope="module")
def p3_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "p3.csv"
    save_ipd(generate_setting(preset_config(3, n_total=900), 3), str(path))
    return str(path)


CELL_ARGS = [*IPW_ARGS, "--target", "1", "--source", "2", "--arm", "1"]
TINY_SIM = ["--seed", "1", "--bootstrap-b", "0", "--oracle-runs", "10", "--n-total", "300",
            "--analyses", "OCR1"]


@pytest.mark.parametrize("args,conf,key", [
    (["transport", *CELL_ARGS], {"expit_weight": "no"}, "expit_weight"),
    (["transport", *CELL_ARGS], {"expit_weight": 1}, "expit_weight"),
    (["transport", *CELL_ARGS], {"arm": 2}, "arm"),
    (["transport", *CELL_ARGS], {"positivity_threshold": True}, "positivity_threshold"),
    (["transport", *CELL_ARGS], {"input": "x.csv"}, "input"),
    (["analyze", *IPW_ARGS], {"variance": None}, "variance"),
    (["analyze", *IPW_ARGS], {"alpha": None}, "alpha"),
    (["analyze", *IPW_ARGS], {"measure": ["rr"]}, "measure"),
    (["analyze", *IPW_ARGS], {"input": "x.csv"}, "input"),
    (["simulate", "--preset", "1", *TINY_SIM], {"reps": 2.7}, "reps"),
    (["simulate", "--reps", "1", *TINY_SIM], {"preset": 2.9}, "preset"),
    (["simulate", "--reps", "1", *TINY_SIM], {"preset": True}, "preset"),
], ids=["expit-string", "expit-int", "arm-choice", "threshold-bool", "transport-input",
        "variance-null", "alpha-null", "measure-list", "analyze-input", "reps-float",
        "preset-float", "preset-bool"])
def test_a_bad_config_value_is_rejected_by_its_key(p3_csv, tmp_path, capsys, args, conf, key):
    # each value meets its option's type and choices, as the flag's does
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    argv = [args[0], *([p3_csv] if args[0] != "simulate" else []), *args[1:]]
    rc = cli.main([*argv, "--out", str(tmp_path / "out"), "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and key in captured.err
    assert not os.path.exists(tmp_path / "out")


def test_a_config_value_parses_as_its_flag_does(p3_csv, tmp_path, capsys):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"truncate_percentile": "95", "expit_weight": False}))
    printed = []
    for extra in (["--config", str(path)], ["--truncate-percentile", "95"]):
        assert cli.main(["transport", p3_csv, *CELL_ARGS, *extra]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert "= 0.632921" in printed[0]


COMMANDS = cli._build_parser()[1]
POSITIONALS = {"simulate": [], "analyze": ["x.csv"], "transport": ["x.csv"]}


def _config_options(command):
    """The options a config file of `command` may set: every flag but --config."""
    return [a for a in COMMANDS[command]._actions
            if a.option_strings and a.dest not in ("help", "config")]


@st.composite
def _option_values(draw, command):
    """Valid values of some of the command's options, each as the JSON value a
    config file holds and the command-line tokens that set the same value."""
    chosen = {}
    for action in draw(st.lists(st.sampled_from(_config_options(command)),
                                unique_by=lambda a: a.dest)):
        flag = action.option_strings[0]
        if action.nargs == 0:
            on = draw(st.booleans())
            chosen[action.dest] = (on, [flag] * on)
            continue
        if action.choices is not None:
            value = draw(st.sampled_from(list(action.choices)))
        elif action.type is int:
            value = draw(st.integers())
        elif action.type is float:
            value = draw(st.floats(allow_nan=False))
        else:
            value = draw(st.text())
        # a number may also come as its text, as "95" does for --truncate-percentile 95
        chosen[action.dest] = (draw(st.sampled_from([value, str(value)])),
                               [f"{flag}={value}"])
    return chosen


def _resolved(command, flags, conf, path):
    """The resolved options `command` runs with, given its flags and, unless
    `conf` is None, a config file holding `conf`."""
    seen = []
    argv = [command, *POSITIONALS[command], *flags]
    if conf is not None:
        path.write_text(json.dumps(conf))
        argv += ["--config", str(path)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, f"cmd_{command}", lambda cfg: seen.append(cfg) or 0)
        assert cli.main(argv) == 0
    return list(seen[0].items())


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_config_file_resolves_the_options_its_flags_do(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    chosen = data.draw(_option_values(command))
    path = tmp_path_factory.mktemp("conf") / "conf.json"
    conf = {dest: value for dest, (value, _) in chosen.items()}
    flags = [token for _, tokens in chosen.values() for token in tokens]
    assert _resolved(command, [], conf, path) == _resolved(command, flags, None, path)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_flag_wins_over_its_config_key(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    in_file = data.draw(_option_values(command))
    on_line = data.draw(_option_values(command))
    path = tmp_path_factory.mktemp("conf") / "conf.json"
    conf = {dest: value for dest, (value, _) in in_file.items()}
    flags = [token for _, tokens in on_line.values() for token in tokens]
    both = dict(_resolved(command, flags, conf, path))
    flags_only = dict(_resolved(command, flags, None, path))
    for dest, (_, tokens) in on_line.items():
        if tokens:                       # a switch left off is not a flag given
            assert both[dest] == flags_only[dest]


ANALYZE_VALUES = st.fixed_dictionaries({}, optional={
    "measure": st.sampled_from(["rr", "or", "rd"]),
    "alpha": st.floats(0.001, 0.5),
    "tau2_method": st.sampled_from(["dl", "reml"]),
    "truncate_percentile": st.floats(50.0, 100.0),
    "positivity_threshold": st.floats(0.5, 1e6),
    "expit_weight": st.booleans(),
    "ps_mode": st.sampled_from(["pairwise", "multinomial"]),
    "seed": st.integers(0, 2 ** 32),
})


@settings(max_examples=15, deadline=None)
@given(values=ANALYZE_VALUES)
def test_analyze_records_the_same_config_from_either_route(enum_csv, tmp_path_factory,
                                                          values):
    # the whole diagnostics.json, its config section included, has the same bytes
    root = tmp_path_factory.mktemp("routes")
    out = str(root / "out")
    flags = [f"--{k.replace('_', '-')}" + ("" if v is True else f"={v}")
             for k, v in values.items() if v is not False]
    written = []
    for route in (flags, ["--config", str(root / "conf.json")]):
        (root / "conf.json").write_text(json.dumps(values))
        assert cli.main(["analyze", enum_csv, "--method", "ipw-stabilized",
                         "--ps-formula", "study ~ 1 + L", "--out", out, *route]) == 0
        with open(os.path.join(out, "diagnostics.json"), "rb") as fh:
            written.append(fh.read())
    assert written[0] == written[1]
    assert json.loads(written[1])["config"]["expit_weight"] is values.get("expit_weight", False)


def test_simulate_points_a_generic_setting_to_the_library(capsys):
    # a preset outside 1..5 is a bad flag value, and the help names the library route
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--preset", "generic", "--seed", "1"])
    assert exc.value.code == 2
    assert "invalid choice: 'generic'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--help"])
    assert exc.value.code == 0
    assert "casemix.simlab.run_study" in capsys.readouterr().out


def test_simulate_failure_threshold(tmp_path, capsys, monkeypatch):
    class FakeReport:
        reps = 1000

        def write_tables(self, outdir):
            return []

        def failure_counts(self):
            return {"OCR1": 500}

    monkeypatch.setattr(cli, "run_study", lambda *a, **kw: FakeReport())
    rc = cli.main(["simulate", "--preset", "1", "--seed", "1",
                   "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "OCR1: 500/1000 replications failed" in captured.out
    assert "failure rate above 10%" in captured.err


def test_bad_choice_exits_via_argparse(enum_csv):
    with pytest.raises(SystemExit):
        cli.main(["analyze", enum_csv, "--method", "matching"])


def test_analyze_has_no_workers_option(enum_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", enum_csv, *OCR_ARGS, "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_simulate_has_no_workers_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--preset", "1", "--seed", "1", "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


@pytest.mark.parametrize("args,fits", [
    (["--method", "ocr", "--outcome-formula", "y ~ 1 + treat + L + treat:L"], 5),
    (["--method", "ipw-stabilized", "--ps-formula", "study ~ 1 + L"], 3),
])
def test_analyze_fits_each_model_once(three_trial_ds, tmp_path, monkeypatch, args, fits):
    # 3 trials: one outcome fit per trial (OCR) or one multinomial membership
    # fit (IPW), plus the two fits of the common-control check
    path = str(tmp_path / "three.csv")
    save_ipd(three_trial_ds, path)
    calls = []

    def counted(fn):
        def wrapper(X, y, *a, **kw):
            h = hashlib.sha256(np.ascontiguousarray(X).tobytes())
            h.update(np.ascontiguousarray(y).tobytes())
            calls.append((fn.__name__, h.hexdigest()))
            return fn(X, y, *a, **kw)
        return wrapper

    for name in ("fit_logistic", "fit_multinomial"):
        original = getattr(sys.modules["casemix.glm"], name)
        wrapped = counted(original)
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("casemix") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapped)
    assert cli.main(["analyze", path, *args, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == fits
    assert len(set(calls)) == len(calls)


def test_analyze_positivity_threshold_governs_every_warning(tmp_path):
    # trial 2's weights toward trial 1 are 250 at L=1: above the default
    # threshold of 200, below the one asked for, which bootstrap replicates
    # must honour too
    ds = dataset_from_cells([
        cell("1", 0, 1, 100, 50), cell("1", 0, 0, 100, 40),
        cell("1", 1, 1, 500, 250), cell("1", 1, 0, 500, 200),
        cell("2", 0, 1, 100, 30), cell("2", 0, 0, 100, 20),
        cell("2", 1, 1, 2, 1), cell("2", 1, 0, 2, 1),
    ])
    path = str(tmp_path / "steep.csv")
    save_ipd(ds, path)
    for variance in ("sandwich", "bootstrap"):
        out = str(tmp_path / variance)
        rc = cli.main(["analyze", path, *IPW_ARGS, "--truncate-percentile", "100",
                       "--positivity-threshold", "1000", "--variance", variance,
                       "--bootstrap-b", "50", "--out", out])
        assert rc == 0
        diag = json.load(open(os.path.join(out, "diagnostics.json")))
        assert diag["weights"]["(1,2)"]["max"] == pytest.approx(250.0)
        assert not diag["positivity_flag"]
        warned = [w for w in diag["warnings"] if "positivity" in w]
        if variance == "sandwich":
            assert not warned
        else:       # a replicate may draw weights past 1000, but none warns at 200
            assert all("exceed 1000 " in w for w in warned), warned


def test_transport_without_sandwich_se_on_separated_outcome(tmp_path, capsys):
    path = str(tmp_path / "separated.csv")
    save_ipd(separated_dataset(), path)
    rc = cli.main(["transport", path, *OCR_ARGS, "--target", "1", "--source", "2",
                   "--arm", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "P(Y(1_2)=1 | S=1) = 0.500000  se=nan (no sandwich SE: bread matrix " \
           "condition number" in captured.out


def test_transport_prints_each_distinct_warning(tmp_path, capsys):
    # the separated outcome fit warns once per fit; transport prints the
    # message once, on stderr, and stdout keeps only the report
    path = str(tmp_path / "separated.csv")
    save_ipd(separated_dataset(), path)
    rc = cli.main(["transport", path, *OCR_ARGS, "--target", "1", "--source", "2",
                   "--arm", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err.splitlines() == [
        "warning: fitted probabilities numerically 0/1: possible separation"]
    assert "warning" not in captured.out


def test_no_subcommand_prints_help(capsys):
    rc = cli.main([])
    captured = capsys.readouterr()
    assert rc == 1
    assert "usage:" in captured.out
