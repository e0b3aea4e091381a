import csv
import inspect
import json
import re

import numpy as np
import pytest

from casemix import simlab
from casemix.errors import InvalidFormula
from casemix.formula import parse
from casemix.ipd import IpdDataset
from casemix.simlab import (Analysis, SettingConfig, analysis_preset,
                            generate_setting, preset_config, run_study,
                            true_values_oracle)
from casemix.transport import IPW, IPW_STABILIZED, OCR, GridSettings


def test_setting_config_validation():
    with pytest.raises(ValueError, match="unknown preset"):
        SettingConfig(preset=9)
    with pytest.raises(ValueError, match="allocation"):
        SettingConfig(preset=1, allocation=1.0)
    with pytest.raises(ValueError, match="n_total"):
        SettingConfig(preset=1, n_total=1)
    with pytest.raises(ValueError, match="s2_shift"):
        SettingConfig(preset=2, s2_shift="slope")


def test_generic_config_validation():
    covs = (("normal", 0.0, 1.0),)
    outcome = {"1": -0.5, "x": 0.4, "l1": 0.3}
    with pytest.raises(ValueError, match="covariates and outcome"):
        SettingConfig(preset="generic")
    with pytest.raises(ValueError, match="at least two trials"):
        SettingConfig(preset="generic", trials=1, covariates=covs,
                      membership=(), outcome=outcome)
    with pytest.raises(ValueError, match="one coefficient row"):
        SettingConfig(preset="generic", trials=3, covariates=covs,
                      membership=((0.1, 0.2),), outcome=outcome)
    with pytest.raises(ValueError, match="length 2"):
        SettingConfig(preset="generic", trials=2, covariates=covs,
                      membership=((0.1, 0.2, 0.3),), outcome=outcome)
    ok = SettingConfig(preset="generic", trials=3, covariates=covs,
                       membership=((0.1, 0.2), (-0.1, 0.3)), outcome=outcome)
    assert ok.K == 3
    assert ok.labels == ("1", "2", "3")


def test_generic_setting_runs_through_run_study():
    # three trials, a continuous and a binary covariate, and the explicit
    # Analysis objects a generic setting needs: generation, the outcome's
    # linear predictor, the oracle and both estimation routes all run
    cfg = SettingConfig(preset="generic", n_total=900, trials=3,
                        covariates=(("normal", 0.0, 1.0), ("choice", (0.0, 1.0), (0.6, 0.4))),
                        membership=((0.2, 0.4, 0.0), (-0.1, -0.3, 0.5)),
                        outcome={"1": -0.3, "x": 0.5, "l1": 0.4, "x:l1": -0.3, "l2": 0.2})
    analyses = [
        Analysis("OCR", GridSettings(OCR, outcome_formula=parse(
            "y ~ 1 + treat + L1 + treat:L1 + L2"))),
        Analysis("IPWS", GridSettings(IPW_STABILIZED, ps_formula=parse("study ~ 1 + L1 + L2"))),
    ]
    report = run_study(cfg, analyses, reps=2, seed=4, bootstrap_b=4, oracle_runs=20)
    assert report.labels == ("1", "2", "3")
    assert report.failure_counts() == {"OCR": 0, "IPWS": 0}
    rows = report.effect_bias_rows()
    for name in ("OCR", "IPWS"):
        for msr in report.measures:
            mine = [r for r in rows if (r["analysis"], r["measure"]) == (name, msr)]
            assert len(mine) == 3 ** 2
    assert all(np.isfinite(r["bias"]) for r in rows + report.probability_bias_rows())


def test_preset_config_defaults():
    cfg = preset_config(1)
    assert cfg.n_total == 1500
    assert cfg.labels == ("1", "2")
    assert cfg.K == 2
    assert cfg.to_dict()["normal_params"] == "mean,sd"
    cfg2 = preset_config(2, s2_shift="treatment")
    assert cfg2.to_dict()["s2_shift"] == "treatment"
    assert "s2_shift" not in cfg.to_dict()


def test_generate_setting_deterministic():
    cfg = preset_config(1, n_total=400)
    a = generate_setting(cfg, 5)
    b = generate_setting(cfg, 5)
    c = generate_setting(cfg, 6)
    assert np.array_equal(a.cov, b.cov)
    assert np.array_equal(a.treat, b.treat)
    assert np.array_equal(a.outcome, b.outcome)
    assert np.array_equal(a.study_idx, b.study_idx)
    assert not np.array_equal(a.cov, c.cov)
    assert a.n == 400
    assert a.studies == ("1", "2")
    assert set(np.unique(a.treat)) <= {0, 1}
    assert set(np.unique(a.outcome)) <= {0, 1}


def test_oracle_truth_internal_consistency():
    cfg = preset_config(1, n_total=600)
    t = true_values_oracle(cfg, runs=50, seed=2)
    assert t.runs == 50
    assert set(t.probs) == {(j, k, x) for j in ("1", "2") for k in ("1", "2")
                            for x in (0, 1)}
    for jk in t.rr:
        p1, p0 = t.probs[jk + (1,)], t.probs[jk + (0,)]
        assert t.rd[jk] == pytest.approx(p1 - p0, abs=1e-15)
        assert t.rr[jk] == pytest.approx(p1 / p0, rel=1e-12)
        assert t.or_[jk] == pytest.approx((p1 / (1 - p1)) / (p0 / (1 - p0)),
                                          rel=1e-12)
    assert t.effect("rd") is t.rd
    with pytest.raises(ValueError, match="at least one"):
        true_values_oracle(cfg, runs=0)


def test_analysis_presets():
    a = analysis_preset("OCR1", 1)
    assert a.settings.method == OCR
    assert a.settings.outcome_formula.text() == "y ~ 1 + treat + L + treat:L"
    assert analysis_preset("OCR1", 5).settings.outcome_formula.text() == \
        "y ~ 1 + treat + L + L^2 + L^3"
    b = analysis_preset("OCR2", 1)
    assert b.settings.outcome_formula.text() == "y ~ 1 + treat + L"
    c = analysis_preset("OCR3", 5)
    assert c.settings.outcome_formula.text() == "y ~ 1 + treat + L + L^2 + L^3"
    assert c.settings.overrides[("2", "1")].text() == "y ~ 1 + treat + L + L^2"
    with pytest.raises(ValueError, match="specific to setting 5"):
        analysis_preset("OCR3", 1)
    assert analysis_preset("IPW1", 1).settings.ps_formula.text() == "study ~ 1 + L + L^2"
    assert analysis_preset("IPW1", 2).settings.ps_formula.text() == "study ~ 1 + L"
    assert analysis_preset("IPW3", 1).settings.ps_formula.text() == "study ~ 0 + L"
    s = analysis_preset("IPW1S", 3)
    assert s.settings.method == IPW_STABILIZED
    assert s.name == "IPW1S"
    assert analysis_preset("IPW2", 1).settings.method == IPW
    with pytest.raises(ValueError, match="unknown analysis"):
        analysis_preset("TMLE", 1)
    with pytest.raises(ValueError, match="explicit Analysis"):
        analysis_preset("OCR1", "generic")


@pytest.fixture(scope="module")
def tiny_truth():
    return true_values_oracle(preset_config(1), runs=5, seed=0)


@pytest.fixture(scope="module")
def tiny_run(tiny_truth):
    return run_study(preset_config(1), ["OCR1", "IPW1"], reps=3, seed=7,
                     bootstrap_b=0, truth=tiny_truth)


def test_run_study_report_shape(tiny_run):
    rep = tiny_run
    assert rep.reps == 3
    assert rep.test_names == ["beyond[1]", "beyond[2]", "casemix[1]",
                              "casemix[2]", "conventional"]
    assert rep.failure_counts() == {"OCR1": 0, "IPW1": 0}
    assert len(rep.probability_bias_rows()) == 2 * 4 * 2
    assert len(rep.effect_bias_rows()) == 2 * 2 * 4
    assert len(rep.variance_rows()) == 2 * 2 * 4
    rr_rows = rep.rejection_rows()
    assert len(rr_rows) == 2 * 1 * 2 * 5
    assert all(r["variance"] == "sandwich" for r in rr_rows)
    assert all(r["n_ran"] == 3 for r in rr_rows)


def test_probability_bias_row_math(tiny_run):
    row = next(r for r in tiny_run.probability_bias_rows()
               if r["analysis"] == "OCR1" and r["target_j"] == "1"
               and r["source_k"] == "2" and r["arm_x"] == 1)
    raw = tiny_run.raw["OCR1"]
    c = tiny_run.cell_order().index(("1", "2"))
    expect = float(np.nanmean(raw.probs[:, c, 1]))
    assert row["mean"] == pytest.approx(expect, abs=1e-15)
    assert row["bias"] == pytest.approx(expect - row["truth"], abs=1e-15)
    assert row["n_defined"] == 3


def test_rejection_rate_lookup(tiny_run):
    r = tiny_run.rejection_rate("OCR1", "conventional", "rr")
    assert 0.0 <= r <= 1.0
    with pytest.raises(KeyError):
        tiny_run.rejection_rate("OCR1", "conventional", "rr",
                                variance="bootstrap")
    with pytest.raises(KeyError):
        tiny_run.rejection_rate("NOPE", "conventional")


def test_run_study_replication_prefix_determinism(tiny_truth):
    # replication r depends only on (seed, r): two reps equal the first two of three
    cfg = preset_config(1)
    bad = Analysis(name="BAD", settings=GridSettings(IPW, ps_formula=parse("study ~ 1 + Z")))
    kw = dict(seed=11, bootstrap_b=4, truth=tiny_truth)
    two = run_study(cfg, ["OCR1", "IPW1", bad], reps=2, **kw)
    three = run_study(cfg, ["OCR1", "IPW1", bad], reps=3, **kw)
    for name in ("OCR1", "IPW1"):
        a, b = two.raw[name], three.raw[name]
        for slot in ("probs", "eff_log", "var", "pval"):
            assert np.array_equal(getattr(a, slot), getattr(b, slot)[:2],
                                  equal_nan=True), (name, slot)
    assert [r for r, _ in three.failures["BAD"]] == [0, 1, 2]
    assert two.failures["BAD"] == three.failures["BAD"][:2]


def test_run_study_has_no_workers_parameter():
    assert "workers" not in inspect.signature(run_study).parameters


def test_run_study_records_failures(tiny_truth):
    # the setting has no covariate Z, which only the data can tell
    bad = Analysis(name="BAD", settings=GridSettings(IPW, ps_formula=parse("study ~ 1 + Z")))
    rep = run_study(preset_config(1), [bad], reps=2, seed=3, bootstrap_b=0,
                    truth=tiny_truth)
    assert rep.failure_counts() == {"BAD": 2}
    assert len(rep.failures["BAD"]) == 2
    r, msg = rep.failures["BAD"][0]
    assert r == 0 and "Z" in msg
    assert all(r["n_ran"] == 0 for r in rep.rejection_rows())


def test_run_study_surfaces_programming_errors(tiny_truth, monkeypatch):
    # only a typed failure (CasemixError, LinAlgError) fails a replication
    def broken(*args, **kwargs):
        raise TypeError("a programming error")

    monkeypatch.setattr(simlab, "sandwich_cov", broken)
    with pytest.raises(TypeError, match="programming error"):
        run_study(preset_config(1), ["OCR1"], reps=2, seed=3, bootstrap_b=0,
                  truth=tiny_truth)


def test_write_tables(tiny_run, tmp_path):
    out = tmp_path / "study"
    written = tiny_run.write_tables(out)
    names = [p.split("/")[-1] for p in written]
    assert names == ["tables2.csv", "tables3.csv", "table4.csv", "table5.csv",
                     "report.json"]
    first = open(written[0]).readline()
    assert first.startswith("# {")
    meta = json.loads(first[2:])
    assert meta["reps"] == 3
    assert meta["config"]["preset"] == 1
    with open(written[0]) as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    raw_truth = float(rows[0]["truth"])
    assert repr(raw_truth) == rows[0]["truth"]
    blob = json.load(open(written[-1]))
    assert blob["reps"] == 3
    assert blob["failure_counts"] == {"OCR1": 0, "IPW1": 0}
    assert len(blob["rejection"]) == 20


def test_write_tables_builds_each_table_once_and_writes_the_report_rows(
        tiny_run, tmp_path, monkeypatch):
    calls = {}
    for name, table in (("probability_bias_rows", "probability_bias"),
                        ("effect_bias_rows", "effect_bias"),
                        ("variance_rows", "variance"), ("rejection_rows", "rejection")):
        def counted(self, _real=getattr(simlab.SimulationReport, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(self)
        monkeypatch.setattr(simlab.SimulationReport, name, counted)
    written = tiny_run.write_tables(tmp_path / "study")
    assert calls == {"probability_bias_rows": 1, "effect_bias_rows": 1,
                     "variance_rows": 1, "rejection_rows": 1}
    with open(written[-1]) as fh:
        report = json.load(fh)
    for path, (fname, table) in zip(written, simlab.TABLES):
        assert path.endswith(fname)
        with open(path) as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        want = report[table]
        assert len(rows) == len(want) > 0
        for got, row in zip(rows, want):
            assert list(got) == list(row)
            for key, value in row.items():
                text = got[key]
                if isinstance(value, float):
                    assert float(text) == value or (np.isnan(value) and text == "nan")
                else:
                    assert text == str(value)


def test_relative_bias_at_a_zero_truth_is_nan(tmp_path):
    # no treatment term: both arms share every probability, so each RD truth is 0
    cfg = SettingConfig(preset="generic", n_total=400, trials=2,
                        covariates=(("normal", 0.0, 1.0),), membership=((0.0, 0.5),),
                        outcome={"1": -0.3, "l1": 0.8})
    ocr = Analysis("OCR", GridSettings(OCR, outcome_formula=parse("y ~ 1 + treat + L1")))
    rep = run_study(cfg, [ocr], reps=2, seed=0, bootstrap_b=0, oracle_runs=5,
                    measures=("rd",))
    rows = rep.effect_bias_rows()
    assert len(rows) == 4
    for row in rows:
        assert row["truth"] == 0.0 and np.isnan(row["rb_pct"])
        assert np.isfinite(row["mean"]) and row["bias"] == row["mean"]
    assert len(rep.write_tables(tmp_path / "null")) == 5


def test_duplicate_analysis_names_rejected(tiny_truth):
    with pytest.raises(ValueError, match="unique"):
        run_study(preset_config(1), ["OCR1", "OCR1"], reps=1, seed=0,
                  bootstrap_b=0, truth=tiny_truth)


def _no_oracle(*args, **kwargs):
    raise AssertionError("the oracle ran before the analyses were checked")


def test_run_study_checks_analyses_before_the_oracle(monkeypatch):
    monkeypatch.setattr(simlab, "true_values_oracle", _no_oracle)
    with pytest.raises(ValueError, match="truncation percentile must be in"):
        bad = Analysis("T", GridSettings(IPW, ps_formula=parse("study ~ 1 + L"),
                                         truncation=150.0))
        run_study(preset_config(1), [bad], reps=3, bootstrap_b=0, oracle_runs=300)


def test_analysis_with_treat_in_membership_formula_fails_when_built(monkeypatch):
    # a data-free fault fails the study before the oracle or any replication
    monkeypatch.setattr(simlab, "true_values_oracle", _no_oracle)
    with pytest.raises(InvalidFormula, match="cannot reference treat"):
        bad = Analysis("BAD", GridSettings(IPW, ps_formula=parse("study ~ 1 + treat")))
        run_study(preset_config(1), [bad], reps=2, seed=3, bootstrap_b=0)


def test_analysis_describe_is_the_settings_description():
    ocr3 = analysis_preset("OCR3", 5)
    assert ocr3.describe() == {
        "name": "OCR3", "method": OCR, "outcome_formula": "y ~ 1 + treat + L + L^2 + L^3",
        "overrides": {"(2,1)": "y ~ 1 + treat + L + L^2"}}
    # ps_mode and a non-default positivity threshold appear only when set
    assert "ps_mode" not in analysis_preset("IPW1", 1).describe()
    pairwise = Analysis("P", GridSettings(IPW, ps_formula=parse("study ~ 1 + L"),
                                          ps_mode="pairwise", positivity_threshold=50.0))
    assert pairwise.describe() == {"name": "P", "method": IPW, "ps_formula": "study ~ 1 + L",
                                   "ps_mode": "pairwise", "positivity_threshold": 50.0}


@pytest.mark.parametrize("kw,msg", [
    ({"preset": True}, "unknown preset True"),
    ({"preset": 1.0}, "unknown preset 1.0"),
    ({"preset": 1, "n_total": 1500.0}, "n_total must be an integer, not 1500.0"),
    ({"preset": 1, "n_total": 2.5}, "n_total must be an integer, not 2.5"),
    ({"preset": 1, "n_total": True}, "n_total must be an integer, not True"),
    ({"preset": 1, "allocation": "0.5"}, "allocation must be a number in (0, 1), not '0.5'"),
])
def test_setting_config_rejects_a_bool_or_a_non_integral_value(kw, msg):
    with pytest.raises(ValueError, match=re.escape(msg)):
        SettingConfig(**kw)


@pytest.mark.parametrize("runs", [True, 2.5, 0])
def test_the_oracle_takes_an_integer_count_of_runs(runs):
    with pytest.raises(ValueError, match=re.escape(f"runs must be an integer of at least 1, "
                                                   f"not {runs!r}")):
        true_values_oracle(preset_config(1), runs=runs)


@pytest.mark.parametrize("kw,msg", [
    ({"seed": 1.5}, "seed must be a non-negative integer"),
    ({"seed": True}, "seed must be a non-negative integer"),
    ({"seed": [1, 2.5]}, "seed must be a non-negative integer"),
    ({"seed": -1}, "seed must be a non-negative integer or a sequence of them, not -1"),
    ({"reps": 2.5}, "reps must be an integer of at least 1, not 2.5"),
    ({"reps": 0}, "reps must be an integer of at least 1, not 0"),
    ({"bootstrap_b": -5}, "bootstrap_b must be 0 or an integer of at least 2, not -5"),
    ({"bootstrap_b": 1}, "bootstrap_b must be 0 or an integer of at least 2, not 1"),
    ({"bootstrap_b": 2.0}, "bootstrap_b must be 0 or an integer of at least 2, not 2.0"),
    ({"alpha": 7}, "alpha must be a number in (0, 1), not 7"),
    ({"alpha": 0.0}, "alpha must be a number in (0, 1), not 0.0"),
    ({"alpha": True}, "alpha must be a number in (0, 1), not True"),
    ({"analyses": []}, "analyses: need at least one analysis"),
    ({"measures": ("rr", "hr")}, "unknown measure 'hr'"),
    ({"oracle_runs": 2.5}, "oracle_runs must be an integer of at least 1, not 2.5"),
    ({"oracle_runs": True}, "oracle_runs must be an integer of at least 1, not True"),
])
def test_run_study_checks_its_arguments_before_the_oracle(monkeypatch, kw, msg):
    monkeypatch.setattr(simlab, "true_values_oracle", _no_oracle)
    args = {"analyses": ["OCR1"], "reps": 2, "seed": 3, "bootstrap_b": 0, **kw}
    with pytest.raises(ValueError, match=re.escape(msg)):
        run_study(preset_config(1), **args)


def _counting_subsets(monkeypatch) -> list:
    calls = []
    real = IpdDataset.subset
    monkeypatch.setattr(IpdDataset, "subset",
                        lambda self, rows: calls.append(1) or real(self, rows))
    return calls


def test_a_replication_draws_its_bootstrap_once_for_every_analysis(monkeypatch, tiny_truth):
    calls = _counting_subsets(monkeypatch)
    run_study(preset_config(1, n_total=300), ["OCR1", "IPW1"], reps=2, seed=4,
              bootstrap_b=6, truth=tiny_truth)
    assert len(calls) == 2 * 6          # reps x B: each draw validated once


def test_the_shared_draws_give_each_analysis_the_bootstrap_of_its_own(monkeypatch,
                                                                        tiny_truth):
    # run_study hands each analysis the replication's draws; drawn by the
    # bootstrap itself they give the same covariance, bit for bit
    real, checked = simlab.bootstrap_cov, []

    def both(grid, measures, B, seed, draws):
        shared = real(grid, measures, B=B, seed=seed, draws=draws)
        own = real(grid, measures, B=B, seed=seed)
        for msr in measures:
            assert shared.sigma[msr].tobytes() == own.sigma[msr].tobytes(), msr
            assert np.array_equal(shared.excluded[msr], own.excluded[msr]), msr
        assert shared.failures == own.failures
        checked.append(grid.settings.method)
        return shared

    monkeypatch.setattr(simlab, "bootstrap_cov", both)
    report = run_study(preset_config(1, n_total=300), ["OCR1", "IPW1"], reps=2, seed=4,
                       bootstrap_b=6, truth=tiny_truth)
    assert sorted(checked) == sorted([OCR, IPW] * 2)
    assert sum(report.failure_counts().values()) == 0


def test_oracle_takes_its_size_from_the_setting():
    assert "n" not in inspect.signature(true_values_oracle).parameters
