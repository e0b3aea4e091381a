import math

import numpy as np
import pytest

from casemix.errors import NoEstimableInputs
from casemix.formula import parse
from casemix.meta import MetaSummary, forest_rows, pool_matrix, pool_row
from casemix.transport import (EffectEstimate, EffectMatrix, IPW, OCR, GridSettings,
                               effect_matrix, standardized_grid)
from casemix.variance import attach_covariance, sandwich_cov

PS = parse("study ~ 1 + L")


def test_dl_hand_example():
    s = pool_row([0.0, 1.0], [math.sqrt(0.1), math.sqrt(0.1)], measure="rr")
    assert s.q == pytest.approx(5.0, abs=1e-12)
    assert s.tau2 == pytest.approx(0.4, abs=1e-12)
    assert s.estimate == pytest.approx(0.5, abs=1e-12)
    assert s.se == pytest.approx(0.5, abs=1e-12)
    assert s.i2 == pytest.approx(0.8, abs=1e-12)
    assert s.weights == pytest.approx([0.5, 0.5], abs=1e-12)
    assert s.k_used == 2
    assert s.ci_lower == pytest.approx(0.5 - 1.959963984540054 * 0.5, abs=1e-9)


def test_reml_fixed_point():
    # same inputs: the REML iteration solves t^2 - 1.9 t + 0.3 = 0
    s = pool_row([0.0, 1.0], [math.sqrt(0.1), math.sqrt(0.1)],
                 tau2_method="reml")
    expect = (1.9 - math.sqrt(2.41)) / 2
    assert s.tau2 == pytest.approx(expect, abs=1e-8)
    assert s.tau2_method == "reml"
    assert s.estimate == pytest.approx(0.5, abs=1e-10)


def test_single_estimate_passthrough():
    s = pool_row([0.3], [0.2], target="1")
    assert (s.estimate, s.se) == (0.3, 0.2)
    assert s.tau2 == 0.0 and s.q == 0.0 and s.i2 == 0.0
    assert s.weights == [1.0]
    assert s.k_used == 1


def test_homogeneous_row_gets_zero_tau2():
    s = pool_row([0.5, 0.5, 0.5], [0.1, 0.2, 0.3])
    assert s.tau2 == 0.0
    assert s.i2 == 0.0
    assert s.estimate == pytest.approx(0.5, abs=1e-12)
    # inverse-variance weights, largest for the most precise input
    assert s.weights[0] > s.weights[1] > s.weights[2]


def test_unusable_entries_dropped():
    s = pool_row([0.2, None, float("nan"), 0.4],
                 [0.1, 0.1, 0.1, None],
                 sources=["a", "b", "c", "d"])
    assert s.k_used == 1
    assert s.sources == ["a"]
    assert s.dropped == ["b", "c", "d"]
    assert s.estimate == 0.2


def test_zero_se_dropped():
    s = pool_row([0.2, 0.4], [0.1, 0.0])
    assert s.k_used == 1
    assert s.dropped == [1]


def test_nothing_to_pool():
    with pytest.raises(NoEstimableInputs):
        pool_row([None, float("nan")], [0.1, 0.1], target="2")


def test_pool_row_validation():
    with pytest.raises(ValueError, match="unknown tau2 method"):
        pool_row([0.1], [0.1], tau2_method="ml")
    with pytest.raises(ValueError, match="equal length"):
        pool_row([0.1, 0.2], [0.1])


def test_natural_scale_helpers():
    s = pool_row([0.0, 1.0], [math.sqrt(0.1), math.sqrt(0.1)], measure="or")
    assert s.point_natural() == pytest.approx(math.exp(0.5))
    lo, hi = s.ci_natural()
    assert lo == pytest.approx(math.exp(s.ci_lower))
    d = pool_row([0.1], [0.05], measure="rd")
    assert d.point_natural() == 0.1
    assert d.ci_natural() == (d.ci_lower, d.ci_upper)


def test_pool_matrix_rows(enum_ds):
    grid = standardized_grid(enum_ds, GridSettings(IPW, ps_formula=PS))
    mat = effect_matrix(grid, "rr")
    attach_covariance(mat, sandwich_cov(grid))
    pooled = pool_matrix(mat)
    assert set(pooled) == {"1", "2"}
    s1 = pooled["1"]
    assert s1.sources == ["1", "2"]
    assert s1.k_used == 2
    lo = min(mat.cells[("1", "1")].transformed_point,
             mat.cells[("1", "2")].transformed_point)
    hi = max(mat.cells[("1", "1")].transformed_point,
             mat.cells[("1", "2")].transformed_point)
    assert lo <= s1.estimate <= hi
    assert s1.measure == "rr"


def test_pool_matrix_skips_empty_rows():
    cells = {
        ("1", "1"): EffectEstimate("rr", "1", "1", float("nan"), float("nan"),
                                   defined=False, note="undefined"),
        ("1", "2"): EffectEstimate("rr", "1", "2", 1.2, math.log(1.2),
                                   se_transformed=None),
        ("2", "1"): EffectEstimate("rr", "2", "1", 1.1, math.log(1.1),
                                   se_transformed=0.1),
        ("2", "2"): EffectEstimate("rr", "2", "2", 1.3, math.log(1.3),
                                   se_transformed=0.2),
    }
    mat = EffectMatrix(measure="rr", labels=("1", "2"), cells=cells, method=OCR)
    pooled = pool_matrix(mat)
    assert set(pooled) == {"2"}
    assert pooled["2"].k_used == 2


def test_forest_rows_shape():
    s = pool_row([0.0, 1.0], [math.sqrt(0.1), math.sqrt(0.1)],
                 sources=["1", "2"], target="1")
    rows = forest_rows(s)
    assert [r["kind"] for r in rows] == ["study", "study", "pooled"]
    assert rows[0]["source"] == "1" and rows[0]["weight"] == pytest.approx(0.5)
    assert rows[2]["point"] == pytest.approx(0.5)
    assert rows[2]["weight"] == 1.0
    assert rows[2]["ci_lower"] == pytest.approx(s.ci_lower)
