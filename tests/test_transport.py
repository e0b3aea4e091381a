import re
import warnings
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from casemix.errors import (CasemixError, DivisionByZero, InvalidFormula,
                            PositivityWarning, UndefinedMeasure)
from casemix import glm, transport
from casemix.formula import parse
from casemix.transport import (
    IPW, IPW_STABILIZED, MEASURES, METHODS, OCR, GridSettings, StandardizedEstimate,
    WeightDiagnostics, common_control_check, effect_matrix, effect_transform,
    membership_eta, natural_effect, standardized_grid, transport_weight)

from conftest import (ENUM_GRID, ENUM_OR, ENUM_RD, ENUM_RR, cell, continuous_ds,
                      dataset_from_cells)

OUTCOME = parse("y ~ 1 + treat + L + treat:L")
PS = parse("study ~ 1 + L")


# With a single binary covariate every model above is saturated, so all three
# standardization routes must reproduce the closed-form finite-population
# answer exactly (to solver tolerance).

@pytest.mark.parametrize("method", [OCR, IPW, IPW_STABILIZED])
def test_grid_matches_enumeration(enum_ds, method):
    grid = standardized_grid(enum_ds, GridSettings(method, outcome_formula=OUTCOME,
                                                   ps_formula=PS))
    assert set(grid) == set(ENUM_GRID)
    for key, truth in ENUM_GRID.items():
        assert grid[key].prob == pytest.approx(truth, abs=1e-10), key
        assert not grid[key].out_of_bounds


def test_grid_estimate_metadata(enum_ds):
    grid = standardized_grid(enum_ds, GridSettings(IPW, ps_formula=PS))
    est = grid[("1", "2", 1)]
    assert isinstance(est.weights_summary, WeightDiagnostics)
    assert est.weights_summary is grid.diagnostics[("1", "2")]


def test_estimate_holds_its_probability_weights_and_bounds_flag_only():
    assert [f.name for f in fields(StandardizedEstimate)] == [
        "prob", "weights_summary", "out_of_bounds"]


def test_grid_keeps_its_probability_array_and_cell_diagnostics(enum_ds):
    grid = standardized_grid(enum_ds, GridSettings(IPW, ps_formula=PS))
    assert grid.probs.shape == (4, 2)
    with pytest.raises(ValueError, match="read-only"):
        grid.probs[0, 0] = 0.5
    order = [("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")]
    assert list(grid.diagnostics) == order
    for j, k in order:
        assert grid[(j, k, 0)].weights_summary is grid.diagnostics[(j, k)]
    ocr = standardized_grid(enum_ds, GridSettings(OCR, outcome_formula=OUTCOME))
    assert ocr.diagnostics == {}
    assert effect_matrix(ocr, "rr").diagnostics == {}


def test_diagonal_uses_unit_weights(enum_ds):
    est = standardized_grid(enum_ds, GridSettings(IPW, ps_formula=PS))[("2", "2", 1)]
    assert est.prob == pytest.approx(0.375, abs=1e-12)
    assert est.weights_summary.max == 1.0
    assert est.weights_summary.ess == pytest.approx(800.0)


@pytest.mark.parametrize("measure,table", [
    ("rr", ENUM_RR), ("or", ENUM_OR), ("rd", ENUM_RD)])
def test_effect_matrix_frozen_values(enum_ds, measure, table):
    mat = effect_matrix(standardized_grid(enum_ds, GridSettings(OCR, outcome_formula=OUTCOME)),
                        measure)
    assert mat.labels == ("1", "2")
    for jk, truth in table.items():
        c = mat.cells[jk]
        assert c.defined
        assert c.point == pytest.approx(truth, abs=1e-10), jk
        expect_t = truth if measure == "rd" else np.log(truth)
        assert c.transformed_point == pytest.approx(expect_t, abs=1e-10)


def test_effect_matrix_vector_order(enum_ds):
    mat = effect_matrix(standardized_grid(enum_ds, GridSettings(OCR, outcome_formula=OUTCOME)),
                        "rd")
    assert mat.cell_order() == [("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")]
    assert mat.cell_index("2", "1") == 2
    vec = mat.transformed_vector()
    assert vec == pytest.approx([0.0, 0.05, 0.0, 0.075], abs=1e-10)
    assert mat.point_vector() == pytest.approx(vec, abs=1e-12)


def test_density_ratio_weights_values(enum_ds):
    grid = standardized_grid(enum_ds, GridSettings(IPW, ps_formula=PS))
    c12 = grid.cells[1]                 # (1, 2): the reference trial is the target
    assert (c12.j, c12.k, c12.j_col, c12.k_col) == ("1", "2", None, 0)
    w = transport_weight(membership_eta(c12.designs[0], grid.models[c12.model].fit.coef),
                         c12.j_col, c12.k_col)[0]
    diag = grid[("1", "2", 1)].weights_summary
    assert w.shape == (800,)
    lo = enum_ds.cov[enum_ds.mask("2"), 0] == 0
    assert np.allclose(w[lo], 1 / 3, atol=1e-10)
    assert np.allclose(w[~lo], 1.0, atol=1e-10)
    assert diag.max == pytest.approx(1.0, abs=1e-10)
    assert diag.truncated_at is None
    assert diag.n_over_threshold == 0


def test_expit_weight_stabilized(enum_ds):
    # membership probability itself as the weight, not the density ratio
    grid = standardized_grid(enum_ds, GridSettings(IPW_STABILIZED, ps_formula=PS,
                                                   expit_weight=True))
    est1, est0 = grid[("1", "2", 1)], grid[("1", "2", 0)]
    assert est1.prob == pytest.approx(0.42, abs=1e-10)
    assert est0.prob == pytest.approx(0.36, abs=1e-10)


def test_truncation_at_median_collapses_to_crude(enum_ds):
    # the median weight for (1,2) is 1/3, so capping there makes the weights
    # uniform and the stabilized estimate equal to trial 2's crude rates
    grid = standardized_grid(enum_ds, GridSettings(IPW_STABILIZED, ps_formula=PS,
                                                   truncation=50.0))
    est1, est0 = grid[("1", "2", 1)], grid[("1", "2", 0)]
    assert est1.prob == pytest.approx(0.375, abs=1e-10)
    assert est0.prob == pytest.approx(0.3, abs=1e-10)
    assert est1.weights_summary.truncated_at == pytest.approx(1 / 3, abs=1e-10)


def test_truncation_100_is_identity(enum_ds):
    plain = standardized_grid(enum_ds, GridSettings(IPW, ps_formula=PS))[("1", "2", 1)]
    capped = standardized_grid(enum_ds, GridSettings(IPW, ps_formula=PS,
                                                     truncation=100.0))[("1", "2", 1)]
    assert capped.prob == pytest.approx(plain.prob, abs=1e-12)
    assert capped.weights_summary.truncated_at == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("bad", [0.0, -5.0, 100.5, True, "95"])
def test_truncation_percentile_validated(enum_ds, bad):
    # True is not the 1st percentile, and a string is not a percentile at all
    with pytest.raises(ValueError, match="truncation percentile"):
        standardized_grid(enum_ds, GridSettings(IPW, ps_formula=PS, truncation=bad))


@pytest.mark.parametrize("field,bad", [
    ("expit_weight", "no"), ("expit_weight", 2), ("expit_weight", None),
    ("positivity_threshold", True), ("positivity_threshold", 0.0),
    ("positivity_threshold", -1.0), ("positivity_threshold", float("nan")),
    ("positivity_threshold", "200"),
])
def test_expit_weight_and_positivity_threshold_validated(field, bad):
    with pytest.raises(ValueError, match=field):
        GridSettings(IPW, ps_formula=PS, **{field: bad})


def test_unstabilized_can_leave_unit_interval(oob_ds):
    grid = standardized_grid(oob_ds, GridSettings(IPW, ps_formula=PS))
    est1, est0 = grid[("1", "2", 1)], grid[("1", "2", 0)]
    assert est1.prob == pytest.approx(1.35, abs=1e-8)
    assert est1.out_of_bounds
    assert est0.prob == pytest.approx(0.45, abs=1e-8)
    assert not est0.out_of_bounds
    assert effect_matrix(grid, "rr").cells[("1", "2")].point == pytest.approx(3.0, abs=1e-7)
    assert effect_matrix(grid, "rd").cells[("1", "2")].point == pytest.approx(0.9, abs=1e-8)
    with pytest.raises(UndefinedMeasure, match=re.escape("OR(1,2)")):
        effect_matrix(grid, "or")


def test_stabilized_always_in_bounds(oob_ds):
    est = standardized_grid(oob_ds, GridSettings(IPW_STABILIZED, ps_formula=PS))[("1", "2", 1)]
    assert not est.out_of_bounds
    assert est.prob == pytest.approx(243 / 260, abs=1e-8)
    assert 0.0 <= est.prob <= 1.0


def test_effect_matrix_collect_errors(oob_ds):
    grid = standardized_grid(oob_ds, GridSettings(IPW, ps_formula=PS))
    with pytest.raises(UndefinedMeasure):
        effect_matrix(grid, "or")
    mat = effect_matrix(grid, "or", collect_errors=True)
    bad = mat.cells[("1", "2")]
    assert not bad.defined
    assert np.isnan(bad.point) and np.isnan(bad.transformed_point)
    assert "undefined" in bad.note
    assert mat.cells[("2", "1")].defined


def test_positivity_warning(oob_ds):
    with pytest.warns(PositivityWarning, match="positivity"):
        grid = standardized_grid(oob_ds, GridSettings(IPW, ps_formula=PS,
                                                      positivity_threshold=5.0))
    diag = grid[("1", "2", 1)].weights_summary
    assert diag.n_over_threshold == 40
    assert diag.max == pytest.approx(9.0, abs=1e-6)


def test_stabilized_cell_with_no_weight_mass_in_an_arm_raises(monkeypatch):
    # weights below 0.6 are rigged to 0: those of trial 2's L=0 rows toward
    # trial 1 (1/3), and trial 2's control arm lies at L=0 only
    from casemix import transport
    real = transport.transport_weight

    def rigged(eta, *args, **kwargs):
        w, dw = real(eta, *args, **kwargs)
        return np.where(w < 0.6, 0.0, w), dw

    monkeypatch.setattr(transport, "transport_weight", rigged)
    ds = dataset_from_cells([
        cell("1", 0, 1, 100, 50), cell("1", 0, 0, 100, 50),
        cell("1", 1, 1, 100, 50), cell("1", 1, 0, 100, 50),
        cell("2", 0, 1, 300, 90), cell("2", 0, 0, 300, 60), cell("2", 1, 1, 100, 60),
    ])
    with pytest.raises(DivisionByZero, match=re.escape(
            "no weight mass in arm 0 of study '2': positivity failure")):
        standardized_grid(ds, GridSettings(IPW_STABILIZED, ps_formula=PS))


def test_three_study_pairwise_matches_multinomial(three_trial_ds):
    pair = standardized_grid(three_trial_ds, GridSettings(IPW_STABILIZED, ps_formula=PS,
                                                          ps_mode="pairwise"))
    multi = standardized_grid(three_trial_ds, GridSettings(IPW_STABILIZED, ps_formula=PS,
                                                           ps_mode="multinomial"))
    assert set(pair) == set(multi)
    for key in pair:
        assert pair[key].prob == pytest.approx(multi[key].prob, abs=1e-10), key
    assert multi[("1", "2", 1)].prob == pytest.approx(0.6, abs=1e-10)
    assert multi[("1", "2", 0)].prob == pytest.approx(0.3, abs=1e-10)


def test_three_study_default_mode_is_multinomial(three_trial_ds):
    grid = standardized_grid(three_trial_ds, GridSettings(IPW_STABILIZED, ps_formula=PS))
    multi = standardized_grid(three_trial_ds, GridSettings(IPW_STABILIZED, ps_formula=PS,
                                                           ps_mode="multinomial"))
    for key in grid:
        assert grid[key].prob == pytest.approx(multi[key].prob, abs=1e-12)


def _edge_dataset():
    """Trial 2's treated all have the event and its controls none, so under
    stabilized IPW every cell (j, 2) holds p1 = 1 and p0 = 0 exactly."""
    return dataset_from_cells([
        cell("1", 0, 1, 100, 50), cell("1", 0, 0, 100, 50),
        cell("1", 1, 1, 100, 50), cell("1", 1, 0, 100, 40),
        cell("2", 0, 1, 300, 300), cell("2", 0, 0, 300, 0),
        cell("2", 1, 1, 100, 100), cell("2", 1, 0, 100, 0),
    ])


def test_effect_matrix_rejects_an_unknown_measure(enum_ds):
    grid = standardized_grid(enum_ds, GridSettings(OCR, outcome_formula=OUTCOME))
    with pytest.raises(ValueError, match="unknown measure 'hr'"):
        effect_matrix(grid, "hr")


def test_effect_undefined_edges():
    grid = standardized_grid(_edge_dataset(), GridSettings(IPW_STABILIZED, ps_formula=PS))
    assert (grid[("1", "2", 1)].prob, grid[("1", "2", 0)].prob) == (1.0, 0.0)
    with pytest.raises(UndefinedMeasure, match=re.escape("RR(1,2) undefined: "
                                                         "probabilities (1, 0)")):
        effect_matrix(grid, "rr")
    with pytest.raises(UndefinedMeasure, match=re.escape("OR(1,2)")):
        effect_matrix(grid, "or")
    rd = effect_matrix(grid, "rd")
    assert rd.cells[("1", "2")].point == 1.0 and rd.cells[("2", "2")].point == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # p0 = 0 divides by zero nowhere visible
        for measure in ("rr", "or"):
            mat = effect_matrix(grid, measure, collect_errors=True)
            assert [jk for jk, c in mat.cells.items() if not c.defined] == [
                ("1", "2"), ("2", "2")]
            assert mat.cells[("1", "1")].defined


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _cell_counts(n):
    return st.one_of(st.just(0), st.just(n), st.integers(0, n)).map(lambda s: (n, s))


_TRIAL_CELLS = st.lists(st.integers(4, 12).flatmap(_cell_counts), min_size=4, max_size=4)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(trials=st.lists(_TRIAL_CELLS, min_size=2, max_size=3), method=st.sampled_from(METHODS))
def test_effects_come_bit_for_bit_from_the_grid_array(trials, method):
    # each trial: (n, successes) of its (L, arm) cells; an arm with no events
    # or only events gives a probability of exactly 0 or 1 under IPW
    ds = dataset_from_cells([cell(str(t + 1), i // 2, i % 2, n, s)
                             for t, cells in enumerate(trials)
                             for i, (n, s) in enumerate(cells)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            grid = standardized_grid(ds, GridSettings(method, outcome_formula=OUTCOME,
                                                      ps_formula=PS))
        except CasemixError:
            assume(False)
    order = [(j, k) for j in ds.studies for k in ds.studies]
    for c, (j, k) in enumerate(order):
        for x in (0, 1):
            assert _bits(grid[(j, k, x)].prob) == _bits(grid.probs[c, x])
            assert grid[(j, k, x)].out_of_bounds == bool(grid.out_of_bounds[c, x])
    for measure in MEASURES:
        mat = effect_matrix(grid, measure, collect_errors=True)
        for c, jk in enumerate(order):
            p1, p0 = float(grid.probs[c, 1]), float(grid.probs[c, 0])
            got = mat.cells[jk]
            assert (_bits(got.prob1), _bits(got.prob0)) == (_bits(p1), _bits(p0))
            t = float(effect_transform(measure, p1, p0)[0])
            if np.isnan(t):
                assert not got.defined and np.isnan(got.point)
                assert np.isnan(got.transformed_point)
            else:
                assert got.defined
                assert _bits(got.transformed_point) == _bits(t)
                assert _bits(got.point) == _bits(natural_effect(measure, p1, p0))


def test_effect_matrix_makes_one_effect_transform_call(monkeypatch, three_trial_ds):
    grid = standardized_grid(three_trial_ds, GridSettings(OCR, outcome_formula=OUTCOME))
    calls = []
    real = transport.effect_transform

    def counted(measure, p1, p0):
        calls.append(measure)
        return real(measure, p1, p0)

    monkeypatch.setattr(transport, "effect_transform", counted)
    for measure in MEASURES:
        effect_matrix(grid, measure)
    assert calls == list(MEASURES)


@pytest.mark.parametrize("measure", ["rr", "or", "rd"])
def test_effect_transform_derivatives_match_central_differences(measure):
    # the sandwich's delta method rests on these two partials
    p1 = np.array([0.05, 0.3, 0.5, 0.8, 0.97])
    p0 = np.array([0.6, 0.2, 0.5, 0.1, 0.9])
    t, d1, d0 = effect_transform(measure, p1, p0)
    h = 1e-6
    fd1 = (effect_transform(measure, p1 + h, p0)[0]
           - effect_transform(measure, p1 - h, p0)[0]) / (2 * h)
    fd0 = (effect_transform(measure, p1, p0 + h)[0]
           - effect_transform(measure, p1, p0 - h)[0]) / (2 * h)
    assert d1 == pytest.approx(fd1, rel=1e-7)
    assert d0 == pytest.approx(fd0, rel=1e-7)


def test_effect_transform_undefined_cells_are_nan():
    p1, p0 = np.array([0.0, 1.0, 1.35, 0.4]), np.array([0.3, 0.3, 0.5, 0.0])
    rr = np.array(effect_transform("rr", p1, p0))
    assert np.array_equal(np.isnan(rr[:, [0, 3]]), np.ones((3, 2), bool))
    assert np.all(np.isfinite(rr[:, [1, 2]]))
    assert np.all(np.isnan(effect_transform("or", p1, p0)))
    assert np.all(np.isfinite(effect_transform("rd", p1, p0)))
    with pytest.raises(ValueError, match="unknown measure"):
        effect_transform("hr", p1, p0)


def test_grid_input_validation(enum_ds):
    with pytest.raises(ValueError, match="unknown method"):
        standardized_grid(enum_ds, GridSettings("matching"))
    with pytest.raises(ValueError, match="outcome formula"):
        standardized_grid(enum_ds, GridSettings(OCR))
    with pytest.raises(ValueError, match="membership formula"):
        standardized_grid(enum_ds, GridSettings(IPW))
    single = dataset_from_cells([
        cell("1", 0, 1, 50, 20), cell("1", 0, 0, 50, 10)])
    with pytest.raises(ValueError, match="at least two studies"):
        standardized_grid(single, GridSettings(OCR, outcome_formula=OUTCOME))


def test_ps_formula_cannot_reference_treat(enum_ds):
    with pytest.raises(ValueError, match="cannot reference treat"):
        standardized_grid(enum_ds, GridSettings(IPW, ps_formula=parse("study ~ 1 + treat")))


MODELS = {OCR: {"outcome_formula": OUTCOME}, IPW: {"ps_formula": PS},
          IPW_STABILIZED: {"ps_formula": PS}}


def test_grid_settings_are_frozen_and_copy_the_overrides():
    overrides = {("1", "2"): parse("y ~ 1 + treat")}
    settings = GridSettings(OCR, outcome_formula=OUTCOME, overrides=overrides)
    with pytest.raises(FrozenInstanceError):
        settings.truncation = 50.0
    with pytest.raises(TypeError):
        settings.overrides[("2", "1")] = OUTCOME
    overrides[("2", "1")] = OUTCOME
    assert list(settings.overrides) == [("1", "2")]
    assert GridSettings(IPW, ps_formula=PS, expit_weight=1).expit_weight is True


@pytest.mark.parametrize("kw,error,msg", [
    ({"method": "matching"}, ValueError, "unknown method 'matching'"),
    ({"method": OCR}, ValueError, "OCR needs an outcome formula"),
    ({"method": IPW}, ValueError, "IPW needs a membership formula"),
    ({"method": IPW_STABILIZED, "ps_formula": parse("study ~ 1 + treat")}, InvalidFormula,
     "membership models cannot reference treat"),
] + [({"method": m, **MODELS[m], **bad}, ValueError, msg)
     for m in (OCR, IPW, IPW_STABILIZED)
     for bad, msg in (({"ps_mode": "bogus"}, "unknown propensity mode 'bogus'"),
                      ({"truncation": 150.0}, "truncation percentile must be in (0, 100]"),
                      ({"truncation": 0.0}, "truncation percentile must be in (0, 100]"))])
def test_grid_settings_reject_invalid_input(kw, error, msg):
    # an invalid ps_mode or truncation fails for OCR too, which ignores valid ones
    with pytest.raises(error, match=re.escape(msg)):
        GridSettings(**kw)


def test_ocr_grid_ignores_valid_ipw_settings(enum_ds):
    plain = standardized_grid(enum_ds, GridSettings(OCR, outcome_formula=OUTCOME))
    extra = standardized_grid(enum_ds, GridSettings(
        OCR, outcome_formula=OUTCOME, ps_formula=PS, ps_mode="multinomial", truncation=95.0,
        expit_weight=True, positivity_threshold=5.0))
    assert {key: est.prob for key, est in extra.items()} == \
        {key: est.prob for key, est in plain.items()}
    assert all(est.weights_summary is None for est in extra.values())


def test_ocr_overrides_replace_single_cell(enum_ds):
    # intercept-only override for (1,2): prediction is trial 2's crude rate
    override = {("1", "2"): parse("y ~ 1 + treat")}
    mat = standardized_grid(enum_ds, GridSettings(OCR, outcome_formula=OUTCOME,
                                                  overrides=override))
    assert mat[("1", "2", 1)].prob == pytest.approx(0.375, abs=1e-10)
    assert mat[("1", "2", 0)].prob == pytest.approx(0.3, abs=1e-10)
    assert mat[("2", "1", 1)].prob == pytest.approx(0.5, abs=1e-10)


def test_common_control_aligned_accepts(aligned_ds):
    rep = common_control_check(aligned_ds, parse("y ~ 1 + L"))
    assert rep.statistic == pytest.approx(0.0, abs=1e-6)
    assert rep.df == 2
    assert not rep.reject


def test_common_control_divergent_rejects(enum_ds):
    rep = common_control_check(enum_ds, parse("y ~ 1 + L"))
    assert rep.reject
    assert rep.p_value < 1e-6


@pytest.mark.parametrize("make", ["enum", "continuous"])
def test_common_control_statistic_matches_a_logaddexp_deviance(monkeypatch, enum_ds, make):
    # the LR statistic is a difference of fit deviances: it must agree with
    # the statistic computed from logaddexp deviances at the same fits
    ds = enum_ds if make == "enum" else continuous_ds(seed=3, n=600)
    control = parse("y ~ 1 + L")
    got = common_control_check(ds, control).statistic

    def logaddexp_deviance(eta, observed):      # one category: the logistic fits
        y = np.zeros(len(eta))
        y[observed] = 1.0
        dev = 2.0 * float(np.sum(np.logaddexp(0.0, eta[:, 0]) - y * eta[:, 0]))
        return glm.nonref_softmax(eta)[0], dev

    monkeypatch.setattr(glm, "_logit_deviance", logaddexp_deviance)
    want = common_control_check(ds, control).statistic
    assert want > 1.0
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_common_control_validation(enum_ds):
    with pytest.raises(ValueError, match="cannot reference treat"):
        common_control_check(enum_ds, parse("y ~ 1 + treat + L"))
    single = dataset_from_cells([
        cell("1", 0, 1, 50, 20), cell("1", 0, 0, 50, 10)])
    with pytest.raises(ValueError, match="at least two studies"):
        common_control_check(single, parse("y ~ 1 + L"))


@pytest.mark.parametrize("threshold", [0.5, 200.0])
def test_diagonal_cells_carry_unit_weight_diagnostics(three_trial_ds, threshold):
    settings = GridSettings(IPW_STABILIZED, ps_formula=PS, positivity_threshold=threshold)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PositivityWarning)
        grid = standardized_grid(three_trial_ds, settings)
    for k in three_trial_ds.studies:
        n_k = int(three_trial_ds.mask(k).sum())
        for x in (0, 1):
            assert grid[(k, k, x)].weights_summary == WeightDiagnostics.of(np.ones(n_k),
                                                                           threshold)
